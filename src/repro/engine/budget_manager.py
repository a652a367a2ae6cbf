"""Per-advertiser budget accounting with outstanding-ad tracking.

The budget manager is the engine's source of truth for how much each
advertiser can still spend.  It tracks settled charges against the daily
budget and keeps every advertiser's outstanding ads in one
:class:`repro.budgets.OutstandingBook`, so the throttled bid ``b̂_i`` can
be formed for winner determination (Section IV-A).

Every operation costs what it changes, not the outstanding population:
money and CTRs are validated once, at the entry points (budgets here,
prices in :meth:`BudgetManager.record_display` and
:meth:`BudgetManager.settle_click`); expiry pops the book's deadline
buckets; and under :class:`repro.budgets.NoDecay` a throttle problem is
built from the book's stored pairs with no decay call and no
re-validation.  ``tests/engine/ledger_reference.py`` keeps the
ledger-per-advertiser manager this replaced as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.budgets.outstanding import (
    ClickDecayModel,
    NoDecay,
    OutstandingBook,
    checked_cents,
)
from repro.budgets.throttle import ThrottleProblem
from repro.errors import BudgetError

__all__ = ["BudgetManager", "ChargeResult"]


@dataclass(frozen=True)
class ChargeResult:
    """Outcome of charging one click.

    Attributes:
        charged_cents: Amount actually collected.
        forgiven_cents: Shortfall beyond the remaining budget.
    """

    charged_cents: int
    forgiven_cents: int


class BudgetManager:
    """Tracks budgets, settled spend, and outstanding ads.

    Args:
        budgets_cents: Daily budget per advertiser id.  Advertisers not
            present are treated as unbudgeted (infinite budget).
        decay: Click-decay model for outstanding ads.
        changefeed: Optional
            :class:`repro.engine.changefeed.ChangeFeed`.  When present
            and active, the manager publishes a
            :class:`repro.engine.changefeed.BudgetChanged` event for
            every book movement -- click settlements, displays becoming
            outstanding debt, and outstanding-ad expiries -- so the
            cross-round caches learn about throttle-input changes from
            the source instead of from engine-side bookkeeping.
    """

    UNBUDGETED_CENTS = 10**12
    """Stand-in budget for unbudgeted advertisers (effectively infinite)."""

    def __init__(
        self,
        budgets_cents: Dict[int, int],
        decay: ClickDecayModel | None = None,
        changefeed=None,
    ) -> None:
        self._budgets = {
            advertiser_id: checked_cents(
                budget, f"budget for advertiser {advertiser_id}"
            )
            for advertiser_id, budget in budgets_cents.items()
        }
        self._spent: Dict[int, int] = {}
        self._decay = decay if decay is not None else NoDecay()
        self._book = OutstandingBook(self._decay)
        self._feed = changefeed

    def _publish_change(self, advertiser_id: int) -> None:
        """Announce a book movement on the change feed, if anyone cares."""
        feed = self._feed
        if feed is not None and feed.active:
            from repro.engine.changefeed import BudgetChanged

            feed.publish(BudgetChanged(advertiser_id))

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
        advertiser_id: int,
        price_cents: int,
        ctr: float,
        round_index: int,
    ) -> int:
        """Register a displayed ad as outstanding debt.

        Returns:
            The book handle identifying exactly this outstanding ad.
            Thread it to :meth:`settle_click` when the click arrives:
            the handle is the only unambiguous name when an advertiser
            wins several same-price slots in one round.

        Raises:
            BudgetError: If the price is not whole non-negative cents or
                the CTR is outside ``[0, 1]``.
        """
        handle = self._book.record(advertiser_id, price_cents, ctr, round_index)
        self._publish_change(advertiser_id)
        return handle

    def settle_click(
        self,
        advertiser_id: int,
        price_cents: int,
        display_round: int,
        handle: Optional[int] = None,
    ) -> ChargeResult:
        """Charge a click, forgiving any shortfall.

        Also clears the clicked ad from the outstanding book.  With a
        ``handle`` (from :meth:`record_display`) the resolve is O(1) and
        names exactly the displayed ad that was clicked; an expired
        handle (the ad aged past the decay horizon) settles the charge
        without touching the book.  Without a handle -- legacy callers
        only -- the oldest outstanding ad matching ``(price_cents,
        display_round)`` is cleared, which picks the *wrong* ad whenever
        the advertiser holds two same-price same-round ads with
        different CTRs and skews every later b̂ built from the book.

        Raises:
            BudgetError: If the price is not whole non-negative cents (a
                negative price would refund spend).
        """
        price_cents = checked_cents(price_cents, "click price")
        if handle is not None:
            self._book.resolve(advertiser_id, handle)
        else:
            self._book.resolve_first(advertiser_id, price_cents, display_round)
        spent = self._spent.get(advertiser_id, 0)
        remaining = max(0, self.budget_cents(advertiser_id) - spent)
        charged = min(price_cents, remaining)
        self._spent[advertiser_id] = spent + charged
        self._publish_change(advertiser_id)
        return ChargeResult(charged, price_cents - charged)

    def expire_outstanding(self, round_index: int) -> int:
        """Drop outstanding ads whose click probability decayed to zero."""
        return sum(self.expire_outstanding_by_advertiser(round_index).values())

    def expire_outstanding_by_advertiser(
        self, round_index: int
    ) -> Dict[int, int]:
        """Per-advertiser expiry counts (zero-count advertisers omitted).

        Same expiry as :meth:`expire_outstanding`, but reporting *who*
        lost outstanding ads: an expiry shrinks the advertiser's
        outstanding debt and therefore moves its throttled bid, so the
        engine's dirty-set tracking needs the ids, not just the total.
        """
        expired = self._book.expire(round_index)
        for advertiser_id in expired:
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
        debts = self._book.constant_debts(advertiser_id, round_index)
        if debts is not None:
            return ThrottleProblem.from_cleaned(
                min(bid_cents, remaining), remaining, num_auctions, *debts
            )
        return ThrottleProblem(
            bid_cents=min(bid_cents, remaining),
            budget_cents=remaining,
            num_auctions=num_auctions,
            outstanding=self._book.snapshot(advertiser_id, round_index),
        )

    def outstanding_counts(self) -> Dict[int, int]:
        """Outstanding-ad count per advertiser (for reports)."""
        return self._book.counts()

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

    def check_invariants(self) -> None:
        """Raise :class:`repro.errors.BudgetError` if the books are broken.

        Spend is non-negative and within the budget of every budgeted
        advertiser, and the outstanding book is sound
        (:meth:`repro.budgets.OutstandingBook.check_invariants`: every
        live ad filed once under its deadline, none live past it on the
        expiry clock, per-advertiser counts equal to the live entries).
        """
        problems = [
            f"advertiser {advertiser_id} spent {spent} cents"
            for advertiser_id, spent in self._spent.items()
            if not 0 <= spent <= self.budget_cents(advertiser_id)
        ]
        if problems:
            raise BudgetError("budget books broken: " + "; ".join(problems))
        self._book.check_invariants()
