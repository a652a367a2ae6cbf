"""Tests for the delayed click model."""

from __future__ import annotations

import random

import pytest

from repro.engine.click_model import DelayedClickModel
from repro.errors import InvalidAuctionError


def model(mean=1.0, horizon=8, seed=0):
    return DelayedClickModel(mean, horizon, random.Random(seed))


class TestValidation:
    def test_negative_mean_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model(mean=-1.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, mean):
        # NaN passed the old `mean < 0` test and silently delayed every
        # click by exactly one round.
        with pytest.raises(InvalidAuctionError, match="finite"):
            model(mean=mean)

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model(horizon=0)

    def test_bad_ctr_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model().record_display([1], ["p"], [10], [1.5], 0)


class TestSampling:
    def test_ctr_zero_never_clicks(self):
        m = model()
        for i in range(100):
            assert not m.record_display([i], ["p"], [10], [0.0], 0)
        assert m.pending_count == 0

    def test_ctr_one_always_schedules(self):
        m = model(mean=0.0)
        for i in range(50):
            assert m.record_display([i], ["p"], [10], [1.0], 0)
        assert m.pending_count == 50

    def test_zero_mean_delay_arrives_next_round(self):
        m = model(mean=0.0)
        m.record_display([1], ["p"], [10], [1.0], 5)
        assert m.arrivals(5) == []
        (click,) = m.arrivals(6)
        assert click.arrival_round == 6
        assert click.display_round == 5

    def test_arrivals_pop_in_order(self):
        m = model(mean=0.0)
        m.record_display([2], ["p"], [10], [1.0], 0)
        m.record_display([1], ["p"], [10], [1.0], 0)
        clicks = m.arrivals(10)
        assert [c.advertiser_id for c in clicks] == [1, 2]
        assert m.pending_count == 0

    def test_flush_returns_everything(self):
        m = model(mean=3.0)
        scheduled = sum(
            m.record_display([i], ["p"], [10], [1.0], 0) for i in range(30)
        )
        flushed = m.flush()
        assert m.pending_count == 0
        # Clicks whose sampled delay exceeded the horizon were dropped at
        # record time; everything else must be flushed.
        assert len(flushed) == scheduled
        assert scheduled > 0

    def test_deterministic_by_seed(self):
        a, b = model(seed=3), model(seed=3)
        outcomes_a = [a.record_display([i], ["p"], [10], [0.5], 0) for i in range(50)]
        outcomes_b = [b.record_display([i], ["p"], [10], [0.5], 0) for i in range(50)]
        assert outcomes_a == outcomes_b

    def test_click_rate_roughly_ctr(self):
        m = model(seed=11)
        clicks = sum(
            m.record_display([i], ["p"], [10], [0.3], 0) for i in range(3000)
        )
        assert 0.25 < clicks / 3000 < 0.35

    def test_delays_within_horizon(self):
        m = model(mean=4.0, horizon=6, seed=2)
        for i in range(300):
            m.record_display([i], ["p"], [10], [1.0], 0)
        for click in m.flush():
            assert 1 <= click.arrival_round <= 6
