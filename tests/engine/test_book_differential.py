"""The outstanding book against the ledger-per-advertiser oracle.

:class:`repro.engine.budget_manager.BudgetManager` keeps one
:class:`repro.budgets.outstanding.OutstandingBook` with deadline-bucket
expiry and throttle inputs validated once;
:class:`tests.engine.ledger_reference.LedgerReferenceManager` keeps one
re-decayed :class:`repro.budgets.outstanding.OutstandingLedger` per
advertiser.  A random interleaving of displays, handle and legacy
settlements, expiries and throttle snapshots must give identical return
values, identical throttle problems (pairs, order and floats),
identical outstanding counts and the same multiset of published events,
under every decay model -- with zero-CTR ads, displays behind the
expiry clock, and clock jumps of 10^7 in the mix.  The book's own
invariants are checked after every step.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.budgets.outstanding import ExponentialDecay, GeometricDecay, NoDecay
from repro.engine.budget_manager import BudgetManager
from tests.engine.ledger_reference import LedgerReferenceManager

ADVERTISERS = (1, 2, 3)
JUMP = 10_000_000

DECAYS = {
    "NoDecay": NoDecay(),
    "NoDecayShortHorizon": NoDecay(horizon=3),
    "NoDecayZeroHorizon": NoDecay(horizon=0),
    "GeometricDecay": GeometricDecay(ratio=0.5, horizon=6),
    "GeometricDecayRatioZero": GeometricDecay(ratio=0.0, horizon=4),
    "ExponentialDecay": ExponentialDecay(rate=0.3, horizon=5),
    # exp(-400 * 2) underflows to 0.0: the deadline comes before the
    # horizon and only the bisection finds it.
    "ExponentialDecayUnderflow": ExponentialDecay(rate=400.0, horizon=8),
}

# A few prices, so legacy settlements meet same-price ads of other
# rounds; zero-price ads count as outstanding but never throttle.
PRICES = st.sampled_from([0, 1, 40, 75, 150])
CTRS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


class RecordingFeed:
    """A change feed that is always active and keeps what it is sent."""

    active = True

    def __init__(self) -> None:
        self.events = []

    def publish(self, event) -> None:
        self.events.append(event)


class BookDifferential(RuleBasedStateMachine):
    """Drive both managers with the same calls; compare every answer."""

    decay = NoDecay()

    @initialize(
        budgets=st.dictionaries(
            st.sampled_from(ADVERTISERS), st.integers(0, 400), max_size=2
        ),
    )
    def build(self, budgets) -> None:
        self.feed, self.reference_feed = RecordingFeed(), RecordingFeed()
        self.manager = BudgetManager(budgets, self.decay, changefeed=self.feed)
        self.reference = LedgerReferenceManager(
            budgets, self.decay, changefeed=self.reference_feed
        )
        self.clock = 0
        # (advertiser, price, round, book handle, ledger handle)
        self.displays = []

    def both(self, method, *args, **kwargs):
        result = getattr(self.manager, method)(*args, **kwargs)
        expected = getattr(self.reference, method)(*args, **kwargs)
        return result, expected

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        price=PRICES,
        ctr=CTRS,
        offset=st.integers(-6, 2),
    )
    def display(self, advertiser, price, ctr, offset) -> None:
        shown = self.clock + offset
        handle, ledger_handle = self.both(
            "record_display", advertiser, price, ctr, shown
        )
        self.displays.append((advertiser, price, shown, handle, ledger_handle))

    @precondition(lambda self: self.displays)
    @rule(data=st.data())
    def settle_by_handle(self, data) -> None:
        advertiser, price, shown, handle, ledger_handle = data.draw(
            st.sampled_from(self.displays)
        )
        result = self.manager.settle_click(advertiser, price, shown, handle)
        expected = self.reference.settle_click(
            advertiser, price, shown, ledger_handle
        )
        assert result == expected

    @rule(advertiser=st.sampled_from(ADVERTISERS), price=PRICES)
    def settle_sentinel(self, advertiser, price) -> None:
        result, expected = self.both(
            "settle_click", advertiser, price, self.clock, handle=-1
        )
        assert result == expected

    @precondition(lambda self: self.displays)
    @rule(data=st.data())
    def settle_legacy(self, data) -> None:
        advertiser, price, shown, _, _ = data.draw(
            st.sampled_from(self.displays)
        )
        result, expected = self.both("settle_click", advertiser, price, shown)
        assert result == expected

    @rule(step=st.integers(-2, 3), jump=st.booleans())
    def expire(self, step, jump) -> None:
        self.clock += JUMP if jump else step
        result, expected = self.both(
            "expire_outstanding_by_advertiser", self.clock
        )
        assert result == expected

    @rule(step=st.integers(0, 2))
    def expire_total(self, step) -> None:
        self.clock += step
        result, expected = self.both("expire_outstanding", self.clock)
        assert result == expected

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        bid=st.integers(0, 200),
        auctions=st.integers(1, 3),
        offset=st.integers(-3, 8),
        data=st.data(),
    )
    def throttle(self, advertiser, bid, auctions, offset, data) -> None:
        # Half the time, aim at the rounds around a display: deadlines
        # sit there, and a round exactly on one is the edge case.
        anchor = self.clock
        if self.displays and data.draw(st.booleans()):
            advertiser, _, anchor, _, _ = data.draw(
                st.sampled_from(self.displays)
            )
        result, expected = self.both(
            "throttle_problem", advertiser, bid, auctions, anchor + offset
        )
        assert result == expected
        assert result.max_liability == expected.max_liability
        assert [type(price) for price, _ in result.outstanding] == [
            type(price) for price, _ in expected.outstanding
        ]

    @invariant()
    def books_agree(self) -> None:
        if not hasattr(self, "manager"):
            return
        assert (
            self.manager.outstanding_counts()
            == self.reference.outstanding_counts()
        )
        assert self.manager.spent_snapshot() == self.reference.spent_snapshot()
        assert Counter(self.feed.events) == Counter(self.reference_feed.events)
        self.feed.events.clear()
        self.reference_feed.events.clear()
        self.manager.check_invariants()


def _machine_test(name, decay):
    machine = type(
        f"BookDifferential{name}", (BookDifferential,), {"decay": decay}
    )
    test = machine.TestCase
    test.settings = settings(
        max_examples=60,
        stateful_step_count=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return test


# One state machine per decay model, so every model gets the full search.
for _name, _decay in DECAYS.items():
    globals()[f"Test{_name}"] = _machine_test(_name, _decay)


@pytest.mark.parametrize("decay", DECAYS.values(), ids=list(DECAYS))
def test_clock_jump_matches_the_ledgers_and_drains_the_heap(decay):
    manager = BudgetManager({}, decay)
    reference = LedgerReferenceManager({}, decay)
    for books in (manager, reference):
        books.record_display(1, 50, 0.5, 0)
        books.record_display(2, 60, 0.0, 0)
    assert manager.expire_outstanding(JUMP) == reference.expire_outstanding(
        JUMP
    )
    assert manager.outstanding_counts() == reference.outstanding_counts() == {}
    assert manager._book._deadlines == []
    manager.check_invariants()
