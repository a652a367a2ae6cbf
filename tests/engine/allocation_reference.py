"""The per-slot GSP allocation loop, kept as the differential oracle.

Before :func:`repro.engine.allocation.gsp_allocate`, the engine priced
and allocated one phrase at a time with this loop (one Python iteration
per slot, ~14 calls per displayed ad).  It is the specification the
vectorized pass is tested against, byte for byte.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core.topk import TopKList

Display = Tuple[int, int, int, int, float]
"""``(auction, slot, advertiser_id, price_cents, ctr)``."""


def reference_allocate(
    rankings: Sequence[TopKList],
    slot_factors: Sequence[float],
    ctr_factor_of: Callable[[int, int], float],
    effective_of: Callable[[int], float],
) -> List[Display]:
    """Allocate every auction's slots one slot at a time.

    Args:
        rankings: One top-``(k + 1)`` ranking per auction, best first.
        slot_factors: The ``k`` slot factors ``d_j``.
        ctr_factor_of: ``(auction, advertiser_id) -> c_i`` (the phrase's
            factor, overrides included).
        effective_of: ``advertiser_id -> b̂_i`` in cents.

    Returns:
        The displayed ads in display order: auctions in order, slots
        ascending.
    """
    displays: List[Display] = []
    for auction, ranking in enumerate(rankings):
        entries = ranking.entries
        for slot in range(min(len(slot_factors), len(entries))):
            entry = entries[slot]
            if entry.score <= 0.0:
                continue
            next_score = (
                entries[slot + 1].score if slot + 1 < len(entries) else 0.0
            )
            c_i = ctr_factor_of(auction, entry.advertiser_id)
            if c_i <= 0.0:
                continue
            effective = effective_of(entry.advertiser_id)
            price_cents = min(effective, next_score / c_i * 100.0)
            price = int(round(price_cents))
            if price <= 0:
                continue
            ctr = min(1.0, c_i * slot_factors[slot])
            displays.append((auction, slot, entry.advertiser_id, price, ctr))
    return displays
