"""Property suite for the seeded traffic generator.

Three families of properties, each over hypothesis-drawn parameters:

- *Determinism*: the trace is a pure function of
  ``(phrases, rate_qps, zipf_exponent, seed)`` -- two generators with
  equal parameters produce identical arrival sequences, and the stream
  is oblivious to how it is consumed (iterator vs ``take``).
- *Popularity*: empirical phrase frequencies are monotone in Zipf rank
  (checked with a skew/sample-size combination that makes rank
  inversions statistically negligible, so the property holds for every
  drawn seed rather than merely on average).
- *Arrivals*: inter-arrival gaps are strictly positive, arrival times
  strictly increase, and the empirical mean gap is consistent with
  ``1 / rate_qps``.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.serving import TrafficGenerator

PHRASES = ["alpha", "beta", "gamma", "delta"]


class TestDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.5, max_value=500.0),
        exponent=st.floats(min_value=0.0, max_value=3.0),
        count=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_trace(self, seed, rate, exponent, count):
        first = TrafficGenerator(PHRASES, rate, exponent, seed)
        second = TrafficGenerator(PHRASES, rate, exponent, seed)
        assert first.take(count) == second.take(count)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_iterator_and_take_agree(self, seed):
        by_take = TrafficGenerator(PHRASES, 10.0, 1.0, seed).take(50)
        by_iter = list(
            itertools.islice(TrafficGenerator(PHRASES, 10.0, 1.0, seed), 50)
        )
        assert by_take == by_iter

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_indices_are_arrival_order(self, seed):
        arrivals = TrafficGenerator(PHRASES, 10.0, 1.0, seed).take(30)
        assert [a.index for a in arrivals] == list(range(30))

    def test_different_seeds_differ(self):
        # Not a theorem, but 100 queries colliding across seeds would
        # mean the seed is not reaching the draws at all.
        a = TrafficGenerator(PHRASES, 10.0, 1.0, seed=1).take(100)
        b = TrafficGenerator(PHRASES, 10.0, 1.0, seed=2).take(100)
        assert a != b


class TestPopularity:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_frequencies_monotone_in_zipf_rank(self, seed):
        # exponent 2.0 over 4 phrases gives expected shares of roughly
        # 70/18/8/4%; at n=2000 the rank gaps are tens of standard
        # deviations wide, so strict monotonicity holds for every seed.
        traffic = TrafficGenerator(PHRASES, 50.0, 2.0, seed)
        counts = {phrase: 0 for phrase in PHRASES}
        for arrival in traffic.take(2000):
            counts[arrival.phrase] += 1
        observed = [counts[phrase] for phrase in PHRASES]
        assert observed == sorted(observed, reverse=True)
        assert observed[0] > observed[-1]

    def test_zero_exponent_is_uniformish(self):
        traffic = TrafficGenerator(PHRASES, 50.0, 0.0, seed=3)
        counts = {phrase: 0 for phrase in PHRASES}
        for arrival in traffic.take(4000):
            counts[arrival.phrase] += 1
        for phrase in PHRASES:
            assert 800 <= counts[phrase] <= 1200  # 1000 expected

    def test_weights_monotone_by_construction(self):
        traffic = TrafficGenerator(PHRASES, 1.0, 1.3, seed=0)
        assert list(traffic.weights) == sorted(traffic.weights, reverse=True)

    def test_from_search_rates_ranks_by_rate_then_name(self):
        traffic = TrafficGenerator.from_search_rates(
            {"low": 0.1, "tie_b": 0.5, "tie_a": 0.5, "top": 0.9},
            rate_qps=10.0,
        )
        assert traffic.phrases == ("top", "tie_a", "tie_b", "low")


class TestArrivals:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.5, max_value=500.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_gaps_positive_and_times_increase(self, seed, rate):
        arrivals = TrafficGenerator(PHRASES, rate, 1.0, seed).take(200)
        previous = 0.0
        for arrival in arrivals:
            assert arrival.arrival_time > previous
            previous = arrival.arrival_time

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mean_gap_consistent_with_rate(self, seed):
        rate = 40.0
        n = 3000
        arrivals = TrafficGenerator(PHRASES, rate, 1.0, seed).take(n)
        mean_gap = arrivals[-1].arrival_time / n
        # Exponential gaps: sd of the mean is (1/rate)/sqrt(n) ~ 0.046
        # of the mean, so +-15% is a >3-sigma corridor.
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.15)


class TestValidation:
    def test_rejects_empty_phrases(self):
        with pytest.raises(WorkloadError, match="at least one phrase"):
            TrafficGenerator([], 1.0)

    def test_rejects_duplicate_phrases(self):
        with pytest.raises(WorkloadError, match="distinct"):
            TrafficGenerator(["a", "a"], 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(WorkloadError, match="rate"):
            TrafficGenerator(PHRASES, 0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        # NaN passed the old `rate <= 0` test and timestamped every
        # arrival NaN.
        with pytest.raises(WorkloadError, match="finite"):
            TrafficGenerator(PHRASES, rate)

    def test_rejects_non_finite_exponent(self):
        with pytest.raises(WorkloadError, match="exponent"):
            TrafficGenerator(PHRASES, 1.0, zipf_exponent=float("nan"))

    def test_rejects_negative_exponent(self):
        with pytest.raises(WorkloadError, match="exponent"):
            TrafficGenerator(PHRASES, 1.0, zipf_exponent=-0.5)

    def test_rejects_negative_take(self):
        with pytest.raises(WorkloadError, match="count"):
            TrafficGenerator(PHRASES, 1.0).take(-1)
