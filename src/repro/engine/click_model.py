"""Simulated user clicks with delayed arrival.

The paper's budget machinery exists because clicks arrive *after* the ad
is displayed.  :class:`DelayedClickModel` samples, for each displayed ad,
whether the user eventually clicks (Bernoulli with the ad's
click-through rate) and when the click arrives (a geometric number of
rounds, capped at a horizon after which the click is abandoned --
matching the decay-to-zero assumption of Section IV).

A round's displays arrive in one call, validated as a whole before any
random draw, and are sampled in display order, so the draw sequence is
the one a display-at-a-time loop would make.  Pending clicks wait in
buckets keyed by arrival round, with the bucket rounds on a min-heap:
delivering a round's clicks costs the clicks delivered, however many
are pending and however far the clock moved.
"""

from __future__ import annotations

import heapq
import math
import random
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.budgets.outstanding import checked_displays
from repro.errors import BudgetError, InvalidAuctionError

__all__ = ["ClickEvent", "DelayedClickModel"]


class ClickEvent(NamedTuple):
    """A click scheduled to arrive in a future round.

    Attributes:
        advertiser_id: Whose ad was clicked.
        phrase: The auction's bid phrase.
        price_cents: Price the pricing rule set for this click.
        display_round: Round the ad was shown.
        arrival_round: Round the click arrives (payment is attempted).
        ledger_handle: Identity of the outstanding-ledger entry recorded
            for this display
            (:meth:`repro.engine.budget_manager.BudgetManager.record_display`),
            so settlement resolves exactly the clicked ad rather than
            the first ad with a matching price and round.  ``-1`` when
            the display was not recorded against a ledger.
    """

    advertiser_id: int
    phrase: str
    price_cents: int
    display_round: int
    arrival_round: int
    ledger_handle: int = -1


class DelayedClickModel:
    """Samples click outcomes and delays for displayed ads.

    Args:
        mean_delay_rounds: Mean of the geometric delay (0 means clicks
            arrive in the next round); finite and non-negative.
        horizon_rounds: Clicks that would arrive later than this many
            rounds after display are dropped (never happen).
        rng: Seeded random source.
    """

    def __init__(
        self,
        mean_delay_rounds: float,
        horizon_rounds: int,
        rng: random.Random,
    ) -> None:
        if not (math.isfinite(mean_delay_rounds) and mean_delay_rounds >= 0.0):
            raise InvalidAuctionError(
                f"mean delay must be finite and non-negative, got "
                f"{mean_delay_rounds!r}"
            )
        if horizon_rounds <= 0:
            raise InvalidAuctionError("click horizon must be positive")
        self.mean_delay_rounds = mean_delay_rounds
        self.horizon_rounds = horizon_rounds
        self._rng = rng
        # Scheduled clicks by arrival round, in scheduling order, and
        # the rounds that have a bucket, as a min-heap.
        self._due: Dict[int, List[ClickEvent]] = {}
        self._rounds: List[int] = []
        self._pending = 0

    def record_display(
        self,
        advertiser_ids: Sequence[int],
        phrases: Sequence[str],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        display_round: int,
        ledger_handles: Optional[Sequence[int]] = None,
    ) -> int:
        """Sample a round's displayed ads; returns the clicks scheduled.

        The arguments are parallel, one entry per displayed ad, in
        display order; the ads are sampled in that order.
        ``ledger_handles`` (default ``-1`` for every ad) rides along on
        each scheduled :class:`ClickEvent` so the eventual settlement
        can name the exact outstanding-book entry its display created.

        Raises:
            InvalidAuctionError: If the arguments are not parallel, a
                price is not whole non-negative cents, or a CTR is
                outside ``[0, 1]``.  The batch is validated before any
                draw, so a rejected batch leaves the random source and
                the pending clicks untouched.
        """
        try:
            ids, prices, rates = checked_displays(
                advertiser_ids, prices_cents, ctrs
            )
        except BudgetError as error:
            raise InvalidAuctionError(str(error)) from None
        handles = (
            [-1] * len(ids) if ledger_handles is None else list(ledger_handles)
        )
        if not len(ids) == len(phrases) == len(handles):
            raise InvalidAuctionError(
                "a display batch is parallel one-dimensional sequences"
            )
        draw = self._rng.random
        horizon = self.horizon_rounds
        scheduled = 0
        for advertiser_id, phrase, price, ctr, handle in zip(
            ids, phrases, prices, rates, handles
        ):
            if draw() >= ctr:
                continue
            delay = self._sample_delay()
            if delay > horizon:
                continue
            arrival = display_round + delay
            bucket = self._due.get(arrival)
            if bucket is None:
                bucket = self._due[arrival] = []
                heapq.heappush(self._rounds, arrival)
            bucket.append(
                ClickEvent(
                    advertiser_id, phrase, price, display_round, arrival,
                    handle,
                )
            )
            scheduled += 1
        self._pending += scheduled
        return scheduled

    def _sample_delay(self) -> int:
        if self.mean_delay_rounds == 0.0:
            return 1
        p = 1.0 / (1.0 + self.mean_delay_rounds)
        delay = 1
        while self._rng.random() > p:
            delay += 1
            if delay > self.horizon_rounds:
                break
        return delay

    def arrivals(self, round_index: int) -> List[ClickEvent]:
        """Pop and return the clicks arriving at ``round_index`` or before.

        Ordered by ``(arrival_round, advertiser_id)``, ties in
        scheduling order.
        """
        rounds = self._rounds
        due: List[ClickEvent] = []
        while rounds and rounds[0] <= round_index:
            due += sorted(
                self._due.pop(heapq.heappop(rounds)), key=_ADVERTISER
            )
        self._pending -= len(due)
        return due

    def flush(self) -> List[ClickEvent]:
        """Pop all remaining scheduled clicks (end of simulation)."""
        if not self._rounds:
            return []
        return self.arrivals(max(self._rounds))

    @property
    def pending_count(self) -> int:
        """Clicks scheduled but not yet delivered."""
        return self._pending


_ADVERTISER = attrgetter("advertiser_id")
