"""Slot allocation and GSP pricing over a whole round's rankings at once.

Every phrase auction of a round ends the same way: the first ``k``
entries of its top-``(k + 1)`` ranking take slots ``0 .. k - 1``, and
the ad in slot ``j`` pays the generalized second price

    ``price = round(min(b̂_i, next / c_i * 100))`` cents per click,

where ``next`` is the score of the entry ranked below it (``0.0`` when
there is none), ``b̂_i`` the advertiser's effective bid in cents and
``c_i`` its CTR factor for the phrase; it is shown with click
probability ``min(1, c_i * d_j)``.  An entry with a non-positive score
or CTR factor, or a price that rounds to zero, takes no slot (the slot
stays empty; lower entries keep their own slots).

:func:`gsp_allocate` evaluates that rule for every slot of every ranking
of a :class:`repro.core.ranked.RankedTable` in one pass of elementwise
array operations.  Every operation is a single IEEE-754 operation on the
same operands in the same order as the per-slot formula, and
``np.rint`` rounds half to even exactly like Python's ``round``, so the
prices and click probabilities are bit-identical to evaluating the
formula one slot at a time (``tests/engine/allocation_reference.py``
keeps that loop as the differential oracle).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from repro.core.ranked import RankedTable, expand_runs
from repro.errors import InvalidAuctionError

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["Displays", "gsp_allocate"]

_INT64_LIMIT = 2.0**63


class Displays(NamedTuple):
    """The displayed ads of a round, in display order.

    Display order is ranking order, then ascending slot.  All fields are
    parallel arrays with one element per displayed ad.

    Attributes:
        owner: int64 index of the ranking (auction) the ad was shown in.
        slot: int64 slot index.
        ids: int64 advertiser id.
        prices: int64 price per click, in cents (positive).
        ctrs: float64 click probability ``min(1, c_i * d_slot)``.
    """

    owner: "np.ndarray"
    slot: "np.ndarray"
    ids: "np.ndarray"
    prices: "np.ndarray"
    ctrs: "np.ndarray"


WinnerInputs = Callable[
    ["np.ndarray", "np.ndarray"], Tuple["np.ndarray", "np.ndarray"]
]
"""``inputs(owner, ids) -> (ctr_factors, effective_bid_cents)``: float64
arrays parallel to the slot holders, given each holder's ranking index
and advertiser id."""


def gsp_allocate(
    table: RankedTable,
    slot_factors,
    inputs: WinnerInputs,
) -> Displays:
    """Allocate slots and set GSP prices for every ranking of ``table``.

    Args:
        table: The round's rankings, best first; each may hold up to
            ``len(slot_factors) + 1`` entries (the last is the runner-up
            that prices the lowest slot).
        slot_factors: The separable slot factors ``d_j``.
        inputs: Gathers ``c_i`` and ``b̂_i`` for the slot holders (see
            :data:`WinnerInputs`).

    Returns:
        The displayed ads (see :class:`Displays`).
    """
    slot_factors = np.asarray(slot_factors, dtype=np.float64)
    length = table.length
    holders, owner = expand_runs(
        table.start, np.minimum(length, len(slot_factors))
    )
    slot = holders - table.start[owner]
    ids = table.ids[holders]
    ctr_factor, effective = inputs(owner, ids)
    scores = table.scores
    has_next = slot + 1 < length[owner]
    # The runner-up's score, or 0.0 below the last entry (the index
    # stays in bounds: without a next entry it reads the holder itself).
    next_score = np.where(has_next, scores[holders + has_next], 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        price = np.rint(np.minimum(effective, next_score / ctr_factor * 100.0))
    shown = np.flatnonzero(
        (scores[holders] > 0.0) & (ctr_factor > 0.0) & (price > 0.0)
    )
    slot = slot[shown]
    price = price[shown]
    if len(price) and price.max() >= _INT64_LIMIT:
        raise InvalidAuctionError(
            f"a click price of {price.max():.0f} cents exceeds int64"
        )
    return Displays(
        owner[shown],
        slot,
        ids[shown],
        price.astype(np.int64),
        np.minimum(1.0, ctr_factor[shown] * slot_factors[slot]),
    )
