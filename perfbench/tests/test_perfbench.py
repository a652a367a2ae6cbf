"""Tests of the benchmark itself: outcome checks, tracing, names, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, passes, run, tracing  # noqa: E402
from perfbench.checks import (  # noqa: E402
    failed_operations,
    invariant_violations,
    overspent,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((ROOT / "perfbench" / "predictions.json").read_text())


@pytest.fixture(scope="module")
def small_batch():
    """A few budgeted rounds, measured engine and oracle, one component."""
    workload = dataclasses.replace(
        inputs.WORKLOADS["batch-unbudgeted"], median_budget_cents=1500
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inputs, "COMPONENTS", 1)
        patch.setattr(passes, "WARMUP_ROUNDS", 2)
        market = inputs.build_market(workload)
        schedule = list(itertools.islice(inputs.round_schedule(market, 3), 6))
        measured = passes.batch_pass(
            inputs.build_engine(workload.engine, market, 3), schedule
        )
        oracle = passes.batch_pass(
            inputs.build_engine("oracle", market, 3), schedule
        )
    return market, measured, oracle


def _with_price(outcome, delta):
    """``outcome`` with its first allocated price moved by ``delta``."""
    allocations = list(outcome[0])
    for index, (phrase, allocation) in enumerate(allocations):
        if allocation:
            slot, advertiser, price = allocation[0]
            allocations[index] = (
                phrase, ((slot, advertiser, price + delta),) + allocation[1:]
            )
            return (tuple(allocations),) + outcome[1:]
    raise AssertionError("no allocation to perturb")


def test_measured_engine_matches_oracle(small_batch):
    market, measured, oracle = small_batch
    assert len(measured.outcomes) == 6
    assert failed_operations(measured.outcomes, oracle.outcomes, market, 3) == (
        [], []
    )


def test_one_cent_price_change_counts_as_failed(small_batch):
    market, measured, oracle = small_batch
    outcomes = list(measured.outcomes)
    outcomes[4] = _with_price(outcomes[4], -1)
    failed, messages = failed_operations(outcomes, oracle.outcomes, market, 3)
    assert failed == [4]
    assert "differs from the oracle" in messages[0]


def test_raised_operation_counts_as_failed(small_batch):
    market, measured, oracle = small_batch
    outcomes = list(measured.outcomes)
    outcomes[1] = None
    assert failed_operations(outcomes, oracle.outcomes, market, 3)[0] == [1]


def test_invariants_catch_bad_allocations(small_batch):
    market, measured, _ = small_batch
    outcome = next(o for o in measured.outcomes if any(a for _, a in o[0]))
    assert invariant_violations(outcome, market, 3) == []
    phrase, allocation = next((p, a) for p, a in outcome[0] if a)
    slot, advertiser, _ = allocation[0]
    outsider = next(
        a for a, phrases in market.phrases.items() if phrase not in phrases
    )
    bid = market.bid_cents[advertiser]
    cases = {
        "price above bid": ((slot, advertiser, bid + 1),),
        "zero price": ((slot, advertiser, 0),),
        "repeated winner": ((0, advertiser, 1), (1, advertiser, 1)),
        "non-bidder": ((slot, outsider, 1),),
        "too many slots": tuple((s, advertiser, 1) for s in range(4)),
    }
    for label, bad in cases.items():
        broken = (((phrase, bad),),) + outcome[1:]
        assert invariant_violations(broken, market, 3), label


def test_overspend_is_reported(small_batch):
    market, _, _ = small_batch
    advertiser, budget = next(iter(market.budget_cents.items()))
    assert overspent({advertiser: budget}, market) == []
    assert overspent({advertiser: budget + 1}, market)


def test_self_times_partition_the_operation():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    settle = tracer.wrap("budget.settle", lambda: None)
    publish = tracer.wrap("changefeed.publish", lambda: settle())
    settle()  # outside an operation: not recorded
    with tracer.operation("pipeline", 0):  # [0, 10]
        publish()  # [1, 5], holding a settle at [2, 4]
        settle()  # [6, 9]
    self_s, calls = tracing.self_times(tracer)
    assert calls == {"pipeline": 1, "changefeed.publish": 1, "budget.settle": 2}
    assert self_s["budget.settle"] == 2.0 + 3.0
    assert self_s["changefeed"] == 4.0 - 2.0
    assert self_s["pipeline"] == 10.0 - 4.0 - 3.0
    assert sum(self_s.values()) == 10.0


def test_reference_latency_replays_the_open_loop_queue():
    # The second query was due at 1.5 s and waited for the first until 2 s.
    measured = passes.PassResult(
        op_at=[0.0, 2.0], service_s=[2.0, 1.0], latency_s=[2.0, 1.5]
    )
    serve = inputs.WORKLOADS["serve-zipf"]
    batch = inputs.WORKLOADS["batch-unbudgeted"]
    assert run.reference_latency_s(serve, measured, [1.0, 1.0]) == [2.0, 1.5]
    # At twice the speed the first query ends before the second is due.
    assert run.reference_latency_s(serve, measured, [2.0, 2.0]) == [1.0, 0.5]
    # At half the speed the wait grows by more than the service times.
    assert run.reference_latency_s(serve, measured, [0.5, 0.5]) == [4.0, 4.5]
    assert run.reference_latency_s(batch, measured, [2.0, 2.0]) == [1.0, 0.5]


def test_patches_are_restored():
    originals = [vars(owner)[name] for owner, name, _, _ in tracing.PATCHES]
    with tracing.patched(tracing.Tracer()):
        assert all(
            vars(owner)[name] is not original
            for (owner, name, _, _), original in zip(tracing.PATCHES, originals)
        )
    assert [vars(owner)[name] for owner, name, _, _ in tracing.PATCHES] == (
        originals
    )


def test_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert names and all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        inputs.WORKLOADS
    )


def test_recorded_layer_shares_sum_to_one():
    for workload, shares in PREDICTIONS["baseline_shares"].items():
        assert workload in inputs.WORKLOADS
        assert sorted(shares) == sorted(tracing.LAYERS)
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01), workload


def _run_cli(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_traced_smoke_run(workload):
    result = _run_cli(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    shares = [
        m["value"] for n, m in result["metrics"].items() if n.endswith(".share")
    ]
    assert sum(shares) == pytest.approx(1.0)


def test_untraced_smoke_run_reports_end_to_end_metrics():
    result = _run_cli("serve-zipf", trace=0)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_expected_layers_name_real_spans():
    spans = {name for _, _, name, _ in tracing.PATCHES} | {"pipeline", "serving"}
    for expected in run.EXPECTED_LAYERS.values():
        assert set(expected["entered"]) | set(expected["bypassed"]) <= spans
