"""Tests for the budget manager."""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import GeometricDecay
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError


class TestBudgets:
    def test_negative_budget_rejected(self):
        with pytest.raises(BudgetError):
            BudgetManager({1: -5})

    def test_remaining_decreases_with_settlement(self):
        manager = BudgetManager({1: 100})
        assert manager.remaining_cents(1) == 100
        result = manager.settle_click(1, 40, display_round=0)
        assert result.charged_cents == 40
        assert result.forgiven_cents == 0
        assert manager.remaining_cents(1) == 60
        assert manager.spent_cents(1) == 40

    def test_forgiveness_beyond_budget(self):
        manager = BudgetManager({1: 30})
        result = manager.settle_click(1, 50, display_round=0)
        assert result.charged_cents == 30
        assert result.forgiven_cents == 20
        assert manager.remaining_cents(1) == 0

    def test_unbudgeted_advertiser_is_effectively_infinite(self):
        manager = BudgetManager({})
        assert manager.remaining_cents(7) == BudgetManager.UNBUDGETED_CENTS
        result = manager.settle_click(7, 1_000, display_round=0)
        assert result.forgiven_cents == 0


class TestOutstanding:
    def test_display_then_settle_clears_ledger(self):
        manager = BudgetManager({1: 100})
        manager.record_display([1], [40], [0.5], round_index=3)
        assert manager.outstanding_counts() == {1: 1}
        manager.settle_click(1, 40, display_round=3)
        assert manager.outstanding_counts() == {}

    def test_expire_outstanding_uses_decay(self):
        manager = BudgetManager({1: 100}, GeometricDecay(ratio=0.5, horizon=2))
        manager.record_display([1], [40], [0.5], round_index=0)
        assert manager.expire_outstanding(1) == 0
        assert manager.expire_outstanding(2) == 1
        assert manager.outstanding_counts() == {}

    def test_throttle_problem_construction(self):
        manager = BudgetManager({1: 100})
        manager.record_display([1], [30], [0.4], round_index=0)
        problem = manager.throttle_problem(
            1, bid_cents=60, num_auctions=2, round_index=0
        )
        assert problem.bid_cents == 60
        assert problem.budget_cents == 100
        assert problem.num_auctions == 2
        assert problem.outstanding == ((30, 0.4),)

    def test_throttle_problem_caps_bid_at_remaining(self):
        manager = BudgetManager({1: 25})
        problem = manager.throttle_problem(
            1, bid_cents=60, num_auctions=1, round_index=0
        )
        assert problem.bid_cents == 25

    def test_settle_matches_ledger_entry_by_round_and_price(self):
        manager = BudgetManager({1: 1000})
        manager.record_display([1], [40], [0.5], round_index=2)
        manager.record_display([1], [40], [0.5], round_index=3)
        manager.settle_click(1, 40, display_round=3)
        assert manager.outstanding_counts() == {1: 1}


class TestMoneyBoundary:
    """Money is whole non-negative cents at every entry into the books."""

    @pytest.mark.parametrize("price", [-50, 10.5, float("nan"), float("inf")])
    def test_settle_rejects_bad_click_price(self, price):
        # A negative price used to refund: spent -50, remaining 150.
        manager = BudgetManager({1: 100})
        with pytest.raises(BudgetError):
            manager.settle_click(1, price, 0)
        assert manager.spent_cents(1) == 0
        assert manager.remaining_cents(1) == 100

    @pytest.mark.parametrize("price", [-1, 2.5, float("nan"), float("inf")])
    def test_record_display_rejects_bad_price(self, price):
        # A NaN price used to be accepted and silently dropped by the
        # throttle problem.
        manager = BudgetManager({1: 100})
        with pytest.raises(BudgetError):
            manager.record_display([1], [price], [0.5], 0)
        assert manager.outstanding_counts() == {}

    @pytest.mark.parametrize("ctr", [-0.1, 1.5, float("nan")])
    def test_record_display_rejects_bad_ctr(self, ctr):
        manager = BudgetManager({1: 100})
        with pytest.raises(BudgetError):
            manager.record_display([1], [40], [ctr], 0)

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), 99.5, -5]
    )
    def test_bad_budget_rejected(self, budget):
        # A NaN budget used to be accepted and report 0 remaining.
        with pytest.raises(BudgetError):
            BudgetManager({1: budget})

    def test_integral_amounts_are_stored_as_int(self):
        manager = BudgetManager({1: 100.0})
        assert manager.budget_cents(1) == 100
        assert type(manager.budget_cents(1)) is int
        manager.record_display([1], [40.0], [0.5], 0)
        problem = manager.throttle_problem(1, 60, 1, 0)
        assert problem.outstanding == ((40, 0.5),)
        assert type(problem.outstanding[0][0]) is int


class TestCheckInvariants:
    def test_sound_books_pass(self):
        manager = BudgetManager({1: 100}, GeometricDecay(ratio=0.5, horizon=4))
        handle = manager.record_display([1], [40], [0.5], 0)[0]
        manager.record_display([2], [30], [0.0], 0)
        manager.expire_outstanding(1)
        manager.settle_click(1, 40, 0, handle=handle)
        manager.settle_click(1, 90, 0)
        manager.check_invariants()

    def test_display_behind_the_clock_is_due_next_expiry(self):
        manager = BudgetManager({}, GeometricDecay(ratio=0.5, horizon=4))
        manager.expire_outstanding(10)
        manager.record_display([1], [40], [0.5], 0)
        manager.check_invariants()  # recorded since the last expiry
        assert manager.expire_outstanding(10) == 1

    def test_negative_spend_is_caught(self):
        manager = BudgetManager({1: 100})
        manager._spent[1] = -50
        with pytest.raises(BudgetError, match="spent -50"):
            manager.check_invariants()

    def test_overspend_is_caught(self):
        manager = BudgetManager({1: 100})
        manager._spent[1] = 150
        with pytest.raises(BudgetError, match="spent 150"):
            manager.check_invariants()

    def test_ad_left_past_its_deadline_is_caught(self):
        manager = BudgetManager({}, GeometricDecay(ratio=0.5, horizon=4))
        manager.record_display([1], [40], [0.5], 0)
        book = manager._book
        # Lose the bucket: the ad is still live but never expires.
        book._buckets.clear()
        book._deadlines.clear()
        manager.expire_outstanding(10)
        with pytest.raises(BudgetError, match="filed 0 times"):
            manager.check_invariants()

    def test_unexpired_due_bucket_is_caught(self):
        manager = BudgetManager({}, GeometricDecay(ratio=0.5, horizon=4))
        manager.record_display([1], [40], [0.5], 0)
        book = manager._book
        book._clock, book._handles_at_clock = 10, book._next_handle
        with pytest.raises(BudgetError, match="past its deadline"):
            manager.check_invariants()


class TestMoneyConservation:
    """Spend plus forgiven equals the clicked value, checked at runtime."""

    def test_settlements_conserve_money(self):
        manager = BudgetManager({1: 100, 2: 30})
        for advertiser_id, price in [(1, 40), (2, 50), (1, 70), (3, 10)]:
            manager.settle_click(advertiser_id, price, 0)
        manager.check_invariants()
        assert manager._clicked_cents == 170
        assert manager._forgiven_cents == 20 + 10

    def test_lost_forgiveness_is_caught(self):
        manager = BudgetManager({1: 30})
        manager.settle_click(1, 50, 0)
        manager._forgiven_cents = 0
        with pytest.raises(BudgetError, match="money not conserved"):
            manager.check_invariants()

    def test_spend_column_tracks_settlements(self):
        manager = BudgetManager({5: 60}, spend_rows=[2, 5, 9])
        manager.settle_click(5, 40, 0)
        manager.settle_click(9, 25, 0)
        manager.settle_click(5, 40, 0)  # 20 charged, 20 forgiven
        manager.settle_click(11, 7, 0)  # not in the column
        assert manager.spent_by_row.tolist() == [0, 60, 25]
        manager.check_invariants()

    def test_spend_column_drift_is_caught(self):
        manager = BudgetManager({}, spend_rows=[2, 5])
        manager.settle_click(5, 40, 0)
        manager.spent_by_row[1] = 39
        with pytest.raises(BudgetError, match="spend column"):
            manager.check_invariants()

    def test_engine_books_hold_after_every_round(self):
        from repro.engine import SharedAuctionEngine
        from repro.workloads.fig4 import fig4_market

        advertisers, rates = fig4_market(
            num_queries=10, num_advertisers=40, num_components=2, seed=4
        )
        engine = SharedAuctionEngine(
            advertisers, (0.3, 0.2, 0.1), rates, layout="columnar", seed=4
        )
        manager = engine.budget_manager
        for _ in range(12):
            engine.run_round()
            manager.check_invariants()
        spent = manager.spent_snapshot()
        assert spent
        store = engine._store
        assert {
            int(store.ids[row]): value
            for row, value in enumerate(manager.spent_by_row.tolist())
            if value
        } == spent
