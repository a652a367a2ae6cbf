"""The ledger-backed budget manager: the oracle for the outstanding book.

:class:`LedgerReferenceManager` is the budget manager as it stood before
the engine moved to one :class:`repro.budgets.outstanding.OutstandingBook`:
one :class:`repro.budgets.outstanding.OutstandingLedger` per advertiser,
every ad's ``ctr_j`` re-evaluated by the decay model on each expiry
sweep and each throttle snapshot, every snapshot re-validated by
:class:`repro.budgets.throttle.ThrottleProblem`.  It is slow by
construction and simple enough to read as the specification:
:class:`repro.engine.budget_manager.BudgetManager` must return the same
values, the same throttle problems (same pairs, same order) and the
same multiset of events for any valid call sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.budgets.outstanding import ClickDecayModel, NoDecay, OutstandingLedger
from repro.budgets.throttle import ThrottleProblem
from repro.engine.budget_manager import ChargeResult
from repro.errors import BudgetError


class LedgerReferenceManager:
    """One :class:`OutstandingLedger` per advertiser, rebuilt views on
    every call.  Same constructor and methods as
    :class:`repro.engine.budget_manager.BudgetManager`, minus the
    money-boundary validation (the differential draws valid inputs)."""

    UNBUDGETED_CENTS = 10**12
    """Stand-in budget for unbudgeted advertisers (effectively infinite)."""

    def __init__(
        self,
        budgets_cents: Dict[int, int],
        decay: ClickDecayModel | None = None,
        changefeed=None,
    ) -> None:
        for advertiser_id, budget in budgets_cents.items():
            if budget < 0:
                raise BudgetError(
                    f"budget for advertiser {advertiser_id} must be >= 0"
                )
        self._budgets = dict(budgets_cents)
        self._spent: Dict[int, int] = {}
        self._decay = decay if decay is not None else NoDecay()
        self._ledgers: Dict[int, OutstandingLedger] = {}
        self._feed = changefeed

    def _publish_change(self, advertiser_id: int) -> None:
        """Announce a book movement on the change feed, if anyone cares."""
        feed = self._feed
        if feed is not None and feed.active:
            from repro.engine.changefeed import BudgetChanged

            feed.publish(BudgetChanged(advertiser_id))

    def _ledger(self, advertiser_id: int) -> OutstandingLedger:
        ledger = self._ledgers.get(advertiser_id)
        if ledger is None:
            ledger = OutstandingLedger(decay=self._decay)
            self._ledgers[advertiser_id] = ledger
        return ledger

    @property
    def decay_varies(self) -> bool:
        """Whether outstanding debt re-weighs as rounds pass.

        Under :class:`repro.budgets.outstanding.NoDecay` an ad's
        ``ctr_j`` is constant until the horizon prunes it (and pruning
        publishes ``BudgetChanged``), so a throttle problem built for
        one round stays valid in later rounds with no event.  Any other
        decay model moves every debt-carrying advertiser's b̂ each
        round; incremental consumers must then treat cached problems as
        valid only within the round they were built.
        """
        return not isinstance(self._decay, NoDecay)

    def budget_cents(self, advertiser_id: int) -> int:
        """The advertiser's daily budget (huge sentinel if unbudgeted)."""
        return self._budgets.get(advertiser_id, self.UNBUDGETED_CENTS)

    def remaining_cents(self, advertiser_id: int) -> int:
        """``β_i`` -- budget minus settled charges (never negative)."""
        remaining = self.budget_cents(advertiser_id) - self._spent.get(
            advertiser_id, 0
        )
        return max(0, remaining)

    def spent_cents(self, advertiser_id: int) -> int:
        """Total settled charges so far."""
        return self._spent.get(advertiser_id, 0)

    def record_display(
        self,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        round_index: int,
    ) -> List[int]:
        """Register a round's displayed ads as outstanding debt, in order.

        Returns:
            The ledger handles identifying exactly these outstanding
            ads.  Thread each to :meth:`settle_click` when its click
            arrives: the handle is the only unambiguous name when an
            advertiser wins several same-price slots in one round.
        """
        handles = []
        for advertiser_id, price_cents, ctr in zip(
            advertiser_ids, prices_cents, ctrs
        ):
            ad = self._ledger(advertiser_id).record_display(
                price_cents, ctr, round_index
            )
            self._publish_change(advertiser_id)
            handles.append(ad.handle)
        return handles

    def settle_click(
        self,
        advertiser_id: int,
        price_cents: int,
        display_round: int,
        handle: Optional[int] = None,
    ) -> ChargeResult:
        """Charge a click, forgiving any shortfall.

        Also clears the clicked ad from the outstanding ledger.  With a
        ``handle`` (from :meth:`record_display`) the resolve is O(1) and
        names exactly the displayed ad that was clicked; an expired
        handle (the ad aged past the ledger horizon) settles the charge
        without touching the ledger.  Without a handle -- legacy callers
        only -- the first outstanding ad matching ``(price_cents,
        display_round)`` is cleared, which picks the *wrong* ad whenever
        the advertiser holds two same-price same-round ads with
        different CTRs and skews every later b̂ built from this ledger.
        """
        ledger = self._ledger(advertiser_id)
        if handle is not None:
            if ledger.has_handle(handle):
                ledger.resolve_handle(handle)
        else:
            for ad in ledger.ads:
                if (
                    ad.price_cents == price_cents
                    and ad.displayed_round == display_round
                ):
                    ledger.resolve(ad)
                    break
        remaining = self.remaining_cents(advertiser_id)
        charged = min(price_cents, remaining)
        self._spent[advertiser_id] = self.spent_cents(advertiser_id) + charged
        self._publish_change(advertiser_id)
        return ChargeResult(charged, price_cents - charged)

    def expire_outstanding(self, round_index: int) -> int:
        """Drop outstanding ads whose click probability decayed to zero."""
        return sum(self.expire_outstanding_by_advertiser(round_index).values())

    def expire_outstanding_by_advertiser(
        self, round_index: int
    ) -> Dict[int, int]:
        """Per-advertiser expiry counts (zero-count advertisers omitted).

        Same pruning as :meth:`expire_outstanding`, but reporting *who*
        lost outstanding ads: an expiry shrinks the advertiser's
        outstanding debt and therefore moves its throttled bid, so the
        engine's dirty-set tracking needs the ids, not just the total.
        """
        expired: Dict[int, int] = {}
        for advertiser_id, ledger in self._ledgers.items():
            pruned = ledger.prune(round_index)
            if pruned:
                expired[advertiser_id] = pruned
                self._publish_change(advertiser_id)
        return expired

    def throttle_problem(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> ThrottleProblem:
        """Build the Section IV throttle inputs for one advertiser."""
        remaining = self.remaining_cents(advertiser_id)
        outstanding = self._ledger(advertiser_id).snapshot(round_index)
        return ThrottleProblem(
            bid_cents=min(bid_cents, remaining),
            budget_cents=remaining,
            num_auctions=num_auctions,
            outstanding=outstanding,
        )

    def outstanding_counts(self) -> Dict[int, int]:
        """Outstanding-ad count per advertiser (for reports)."""
        return {
            advertiser_id: len(ledger)
            for advertiser_id, ledger in self._ledgers.items()
            if len(ledger)
        }

    def spent_snapshot(self) -> Dict[int, int]:
        """Settled spend per advertiser (zero-spend advertisers omitted).

        A frozen copy of the books at this instant, ordered by
        advertiser id.  The serving differential suite records one
        snapshot per served query and asserts the whole *trajectory* --
        not just the final balance -- is identical between
        query-at-a-time serving and single-phrase batch replay.
        """
        return {
            advertiser_id: spent
            for advertiser_id, spent in sorted(self._spent.items())
            if spent
        }
