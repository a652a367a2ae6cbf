"""Property tests for the segmented top-k kernel of columnar execution.

:class:`ColumnarFragmentExecutor` answers a round with two segmented
sorts -- one over the needed fragments' rows, one over each query's
fragment survivors -- instead of folding per-fragment top-k lists with
the binary ``⊕`` operator.  The fold is the specification: these
properties draw random instances (so random fragment partitions),
random requested-query subsets and adversarial score pools, and assert
the kernel's answers equal a left fold of :func:`top_k_merge` over
per-fragment :func:`columnar_top_k` lists entry for entry -- scores
compared by bit pattern, so ``-0.0`` versus ``0.0`` counts -- and that
the work counters equal the fold's (:mod:`tests.plans.fold_reference`).
"""

from __future__ import annotations

import math
import struct

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.core.topk import TopKList
from repro.instrument import MetricsCollector, names as metric_names
from repro.plans.columnar_exec import (
    ColumnarFragmentExecutor,
    segmented_top_k,
)
from repro.plans.instance import AggregateQuery, SharedAggregationInstance

from tests.plans.fold_reference import FoldReference

# Ties, 1-ulp neighbours, zeros of both signs and a subnormal: the
# values on which a sort and a tuple compare could disagree.
ADVERSARIAL = (
    0.0,
    -0.0,
    5e-324,
    1.0,
    math.nextafter(1.0, math.inf),
    math.nextafter(1.0, 0.0),
    2.5,
    math.nextafter(2.5, math.inf),
)

score_values = st.one_of(
    st.sampled_from(ADVERSARIAL),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def _bits(ranking: TopKList):
    """Entries with scores as bit patterns (so -0.0 != 0.0)."""
    return [
        (struct.pack("<d", entry.score), entry.advertiser_id)
        for entry in ranking.entries
    ]


COUNTERS = (
    "merges_performed",
    "advertisers_scanned",
    "nodes_reused",
    "nodes_invalidated",
    "nodes_revalidated",
)


def _counters(result):
    return {name: getattr(result, name) for name in COUNTERS}


def _expected(counters):
    return {name: counters[name] for name in COUNTERS}


@st.composite
def rounds(draw):
    """An instance, its store, ``k``, a score column and a request."""
    ids = sorted(
        draw(st.sets(st.integers(0, 400), min_size=1, max_size=14), label="ids")
    )
    queries = [
        AggregateQuery(
            f"q{index}",
            draw(st.sets(st.sampled_from(ids), min_size=1), label=f"q{index}"),
        )
        for index in range(draw(st.integers(1, 5), label="queries"))
    ]
    instance = SharedAggregationInstance(queries)
    store = ColumnarStore(
        [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in ids]
    )
    k = draw(st.integers(1, 6), label="k")
    score_by_row = np.array(
        [draw(score_values, label=f"s{i}") for i in ids], dtype=np.float64
    )
    every = [q.name for q in instance.queries + instance.trivial_queries]
    names = draw(
        st.lists(st.sampled_from(every), min_size=1, unique=True),
        label="request",
    )
    return instance, store, k, score_by_row, names


class TestKernelEqualsFold:
    @settings(max_examples=200, deadline=None)
    @given(case=rounds())
    def test_fresh_round_equals_left_fold(self, case):
        instance, store, k, score_by_row, names = case
        oracle, counters = FoldReference(instance, store, k).run_round(
            score_by_row, names
        )
        collector = MetricsCollector()
        result = ColumnarFragmentExecutor(
            instance, store, k, collector
        ).run_round(score_by_row, names)
        assert list(result.answers) == names
        for name in names:
            assert _bits(result.answers[name]) == _bits(oracle[name]), name
        assert _counters(result) == _expected(counters)
        # Bulk collector increments keep the per-merge totals.
        assert collector.counter(metric_names.PLAN_MERGES) == (
            result.merges_performed
        )
        assert collector.counter(metric_names.PLAN_LEAF_SCANS) == (
            result.advertisers_scanned
        )

    @settings(max_examples=100, deadline=None)
    @given(case=rounds(), data=st.data())
    def test_cached_rounds_equal_left_fold(self, case, data):
        instance, store, k, score_by_row, names = case
        executor = ColumnarFragmentExecutor(
            instance, store, k, cross_round=True
        )
        reference = FoldReference(instance, store, k, cross_round=True)
        every = [q.name for q in instance.queries + instance.trivial_queries]
        ids = [int(i) for i in store.ids]
        for round_index in range(4):
            if round_index:
                for i in data.draw(st.sets(st.sampled_from(ids)), label="moved"):
                    score_by_row[store.row_of(i)] = data.draw(score_values)
                names = data.draw(
                    st.lists(st.sampled_from(every), min_size=1, unique=True),
                    label="request",
                )
            oracle, counters = reference.run_round(score_by_row, names)
            result = executor.run_round(score_by_row, names)
            # Both caches detect change with ``!=``, so a 0.0 -> -0.0
            # move is no change and both keep the cached 0.0 entry.
            for name in names:
                assert _bits(result.answers[name]) == _bits(oracle[name])
            assert _counters(result) == _expected(counters)

    def test_single_fragment_cover_and_k_beyond_query(self):
        # q1's variables occur in no other query: its cover is one
        # fragment, and k = 5 exceeds its three members.
        instance = SharedAggregationInstance(
            [
                AggregateQuery("q1", {1, 2, 3}),
                AggregateQuery("q2", {4, 5}),
                AggregateQuery("q3", {5, 6}),
            ]
        )
        store = ColumnarStore(
            [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in range(1, 7)]
        )
        score_by_row = np.array([0.0, -0.0, 2.0, 1.0, 1.0, -0.0])
        names = ["q1", "q2", "q3"]
        oracle, _ = FoldReference(instance, store, 5).run_round(
            score_by_row, names
        )
        result = ColumnarFragmentExecutor(instance, store, 5).run_round(
            score_by_row, names
        )
        assert result.merges_performed == 2  # q2 and q3: two fragments
        for name in names:
            assert _bits(result.answers[name]) == _bits(oracle[name])
        assert result.answers["q1"].advertiser_ids() == (3, 1, 2)


class TestSegmentedTopK:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 5),
        entries=st.lists(
            st.tuples(st.integers(0, 3), score_values), max_size=30
        ),
        data=st.data(),
    )
    def test_matches_per_segment_sort(self, k, entries, data):
        scores = np.array([v for _, v in entries], dtype=np.float64)
        # Distinct ids, deliberately not in score order.
        ids = np.arange(len(entries), dtype=np.int64)[::-1].copy()
        # Each pool entry competes in its own segment plus, sometimes,
        # a shared one -- the query stage's fragment-in-many-queries.
        pairs = [(segment, j) for j, (segment, _) in enumerate(entries)]
        pairs += [
            (4, j)
            for j in range(len(entries))
            if data.draw(st.booleans(), label=f"shared{j}")
        ]
        segments = np.array([s for s, _ in pairs], dtype=np.int64)
        members = np.array([j for _, j in pairs], dtype=np.int64)
        labels, kept = segmented_top_k(k, scores, ids, segments, members)
        expected = []
        for segment in sorted({s for s, _ in pairs}):
            ranked = sorted(
                (j for s, j in pairs if s == segment),
                key=lambda j: (-scores[j], ids[j]),
            )
            expected.extend((segment, j) for j in ranked[:k])
        assert list(zip(labels.tolist(), kept.tolist())) == expected
