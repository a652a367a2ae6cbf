"""Work-accounting invariants: counters vs the analytic cost model.

The acceptance bar for the instrumentation layer: with collection
enabled, the counter-derived expected materialized-node cost equals
``plans/cost.py``'s closed form *exactly* on deterministic (sr = 1)
instances, and matches in expectation on stochastic ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import MetricsCollector, names
from repro.plans.baselines import fragment_only_plan, no_sharing_plan
from repro.plans.cost import expected_plan_cost
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance
from repro.workloads.fig4 import fig4_instance
from repro.workloads.scenarios import shoe_store_instance

from tests.conftest import query_families
from tests.plans.fold_reference import FoldReference


def _scores(instance) -> dict:
    rng = random.Random(0xFEED)
    return {v: rng.uniform(0.1, 9.0) for v in instance.variables}


class TestDeterministicCostMatch:
    """On sr=1 instances every node materializes every round: the
    per-round counter average must equal the closed form exactly."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("planner", [greedy_shared_plan, no_sharing_plan])
    def test_counter_cost_equals_analytic_cost(self, seed, planner):
        instance = fig4_instance(1.0, num_queries=6, num_advertisers=12, seed=seed)
        plan = planner(instance)
        collector = MetricsCollector()
        executor = PlanExecutor(plan, 3, collector)
        rounds = 4
        scores = _scores(instance)
        for _ in range(rounds):
            executor.run_round(scores)
        analytic = expected_plan_cost(plan)
        assert analytic == float(int(analytic))  # sr=1 -> integral cost
        assert collector.counter(names.PLAN_NODES) == rounds * int(analytic)
        assert collector.counter(names.PLAN_MERGES) == rounds * int(analytic)

    def test_monte_carlo_cost_matches_in_expectation(self):
        instance = fig4_instance(0.6, num_queries=6, num_advertisers=12, seed=1)
        plan = greedy_shared_plan(instance)
        collector = MetricsCollector()
        executor = PlanExecutor(plan, 3, collector)
        rng = random.Random(31337)
        rounds = 3000
        scores = _scores(instance)
        for _ in range(rounds):
            occurring = [
                q.name for q in instance.queries if rng.random() < q.search_rate
            ]
            executor.run_round(scores, occurring)
        empirical = collector.counter(names.PLAN_NODES) / rounds
        assert empirical == pytest.approx(expected_plan_cost(plan), rel=0.06)


class TestCounterConsistency:
    """Collector counters must mirror the executor's own result fields."""

    @settings(max_examples=40, deadline=None)
    @given(query_families(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_collector_mirrors_execution_result(self, family, occ_seed):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        plan = greedy_shared_plan(instance)
        collector = MetricsCollector()
        executor = PlanExecutor(plan, 2, collector)
        rng = random.Random(occ_seed)
        names_all = [q.name for q in instance.queries] + [
            q.name for q in instance.trivial_queries
        ]
        occurring = [n for n in names_all if rng.random() < 0.7]
        result = executor.run_round(_scores(instance), occurring)
        assert collector.counter(names.PLAN_NODES) == result.nodes_materialized
        assert collector.counter(names.PLAN_MERGES) == result.merges_performed
        assert (
            collector.counter(names.PLAN_LEAF_SCANS)
            == result.advertisers_scanned
        )
        assert collector.counter(names.PLAN_CACHE_HITS) == result.cache_hits
        assert collector.counter(names.PLAN_CACHE_MISSES) == result.cache_misses
        # One merge per materialized operator node, keyed by node id.
        node_merges = collector.keyed(names.PLAN_NODE_MERGES)
        assert sum(node_merges.values()) == result.nodes_materialized
        assert all(count == 1 for count in node_merges.values())

    def test_cache_hits_appear_when_queries_share_nodes(self):
        # Two identical-variable queries dedupe to one plan query; two
        # *overlapping* queries share fragment nodes, so executing both
        # in one round must hit the round memo at least once.
        instance = SharedAggregationInstance.from_sets(
            {"p": ["a", "b", "c"], "q": ["a", "b", "d"]}, 1.0
        )
        plan = greedy_shared_plan(instance)
        collector = MetricsCollector()
        executor = PlanExecutor(plan, 2, collector)
        result = executor.run_round(_scores(instance))
        assert result.cache_hits > 0
        assert result.cache_misses >= result.nodes_materialized
        assert collector.counter(names.PLAN_CACHE_HITS) == result.cache_hits

    def test_null_collector_leaves_result_counters_intact(self):
        instance = SharedAggregationInstance.from_sets(
            {"p": ["a", "b", "c"], "q": ["a", "b", "d"]}, 1.0
        )
        plan = greedy_shared_plan(instance)
        plain = PlanExecutor(plan, 2).run_round(_scores(instance))
        collector = MetricsCollector()
        instrumented = PlanExecutor(plan, 2, collector).run_round(
            _scores(instance)
        )
        assert plain.answers == instrumented.answers
        assert plain.nodes_materialized == instrumented.nodes_materialized
        assert plain.advertisers_scanned == instrumented.advertisers_scanned


class TestColumnarCostAccounting:
    """The columnar executor's counters on the Section II-B shoe store.

    Against the object :class:`PlanExecutor` on the same instance and
    scores: identical answers, the same 270 leaf scans (each fragment's
    advertisers read once), and the plan's merges split exactly into
    the fragment-internal ones (the kernel's fragment stage, counted as
    scans) and one merge per extra fragment of each query's cover.
    Round for round, cached or not, the counters equal the ``⊕``-fold
    reference's, and the collector receives the same totals in bulk.
    """

    def _setup(self):
        np = pytest.importorskip("numpy")
        from repro.core.advertiser import Advertiser
        from repro.core.columnar import ColumnarStore

        instance, _ = shoe_store_instance()
        ids = sorted(instance.variables)
        store = ColumnarStore(
            [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in ids]
        )
        rng = random.Random(0xB007)
        score_by_row = np.array(
            [rng.choice([0.5, 1.0, rng.uniform(0.1, 9.0)]) for _ in ids]
        )
        return instance, store, score_by_row

    @pytest.mark.parametrize(
        "planner",
        [
            lambda instance: greedy_shared_plan(instance, pair_strategy="cover"),
            fragment_only_plan,
        ],
        ids=["greedy", "fragment_only"],
    )
    def test_shoe_store_counters_match_the_object_plan(self, planner):
        from repro.plans.columnar_exec import ColumnarFragmentExecutor
        from repro.plans.fragments import identify_fragments

        instance, store, score_by_row = self._setup()
        names_all = [q.name for q in instance.queries]
        collector = MetricsCollector()
        columnar = ColumnarFragmentExecutor(
            instance, store, 4, collector
        ).run_round(score_by_row, names_all)
        plan_result = PlanExecutor(planner(instance), 4).run_round(
            {int(i): float(s) for i, s in zip(store.ids, score_by_row)},
            names_all,
        )
        assert columnar.answers == plan_result.answers
        assert columnar.advertisers_scanned == 270
        assert columnar.advertisers_scanned == plan_result.advertisers_scanned
        internal = sum(len(f) - 1 for f in identify_fragments(instance))
        assert columnar.merges_performed == 2
        assert (
            columnar.merges_performed + internal
            == plan_result.merges_performed
        )
        assert collector.counter(names.PLAN_MERGES) == 2
        assert collector.counter(names.PLAN_LEAF_SCANS) == 270

    @pytest.mark.parametrize("cross_round", [False, True])
    def test_shoe_store_counters_equal_fold_reference(self, cross_round):
        from repro.plans.columnar_exec import ColumnarFragmentExecutor

        instance, store, score_by_row = self._setup()
        collector = MetricsCollector()
        executor = ColumnarFragmentExecutor(
            instance, store, 4, collector, cross_round=cross_round
        )
        reference = FoldReference(instance, store, 4, cross_round=cross_round)
        rng = random.Random(7)
        totals = {}
        for request in (
            ["high-heels", "hiking boots"],
            ["hiking boots"],
            ["high-heels", "hiking boots"],
            ["high-heels"],
        ):
            for row in rng.sample(range(store.size), 3):
                score_by_row[row] = rng.uniform(0.1, 9.0)
            result = executor.run_round(score_by_row, request)
            answers, counters = reference.run_round(score_by_row, request)
            assert result.answers == answers
            for field in (
                "merges_performed",
                "advertisers_scanned",
                "nodes_reused",
                "nodes_invalidated",
                "nodes_revalidated",
            ):
                assert getattr(result, field) == counters[field], field
                totals[field] = totals.get(field, 0) + counters[field]
        assert collector.counter(names.PLAN_MERGES) == (
            totals["merges_performed"]
        )
        assert collector.counter(names.PLAN_LEAF_SCANS) == (
            totals["advertisers_scanned"]
        )
        if cross_round:
            assert totals["nodes_reused"] > 0
            assert totals["nodes_invalidated"] > 0
            assert collector.counter(names.PLAN_NODES_REUSED) == (
                totals["nodes_reused"]
            )
            assert collector.counter(names.PLAN_NODES_INVALIDATED) == (
                totals["nodes_invalidated"]
            )
