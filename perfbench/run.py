"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-zipf --seed 1 \\
        --seconds 15 --trace 0

One process runs one workload, single-threaded, with BLAS threads pinned
to 1.  A run builds its inputs from ``--seed``
(:mod:`perfbench.inputs`), constructs the engine several times to time
set-up, makes the measured pass (tracing off), then -- with
``--trace 1`` -- a traced pass over the same operations, and finally the
oracle pass that every operation's outcome is compared with
(:mod:`perfbench.checks`).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``metrics`` holds the end-to-end metrics with ``--trace
0`` and the per-layer metrics with ``--trace 1``.  Spans of a traced run
are written to ``.perfbench_out/trace-<workload>.json``.

End-to-end metrics (an operation is a batch round or a served query):

- ``op_p50_ms``: median operation latency -- for a query measured from
  its scheduled send time, so queueing counts
  (:func:`reference_latency_s`); for a batch round its wall time;
- ``setup_s``: median time of constructing the engine (15 times);
- ``peak_rss_mb``: the process's peak resident memory after the
  measured pass, before the traced and oracle passes.

Times are stated at the reference host speed.  Each is divided by
``median probe time / REFERENCE_PROBE_S`` over the ``PROBES_NEAR``
probes (:func:`perfbench.passes.probe`) nearest it, the host's speed at
that moment relative to the reference host: on a shared virtual machine
the same code runs up to 2x slower or faster from one minute to the
next.  Over two sets of ten seeds per workload on a 2-vCPU x86-64 KVM
guest, the wall-clock op_p50_ms spread (interquartile range over
median) 0.11-0.30 and setup_s 0.20-0.35; scaled, 0.057-0.089 and
0.032-0.099.  The wall-clock figures are printed as
well, with two that are not bounded metrics: the nearest-rank p99
latency (a batch run has too few rounds for it, and the serving p99
spread 0.2-0.5 between runs) and ``auctions_per_s``, phrase auctions
per second of engine busy time (scaled by the probes, the serving
capacity still moved 26% between two sets of runs as the host changed
state).  Failed operations are the ``failed`` key against
``attempted``.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS thread, as the engine runs on
# one core and the second core stays free for the rest of the machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serving.latency import nearest_rank_percentile  # noqa: E402

from perfbench import inputs, passes, tracing  # noqa: E402
from perfbench.checks import failed_operations, overspent  # noqa: E402

SETUP_REPEATS = 15
SETUP_PROBES = 5
TRACE_DIR = ROOT / ".perfbench_out"

REFERENCE_PROBE_S = 425e-6
"""Median :func:`perfbench.passes.probe` time on the reference host, a
2-vCPU x86-64 KVM guest with Python 3.11 and numpy 2.4."""

PROBES_NEAR = 32
"""Probes nearest an operation that measure the speed it ran at: host
speed drifts within a second, so the nearest probes -- about +-20 ms
around a query, +-4 rounds around a batch round -- track it better than
a window of seconds.  Scaled by the 32 nearest probes, op_p50_ms
spread (interquartile range over median) 0.034 over six seeds of
serve-zipf and 0.043 over four of batch-unbudgeted; scaled by the
probes within +-2.5 s, 0.25 and 0.059."""

EXPECTED_LAYERS = {
    "batch-unbudgeted": {
        "entered": (
            "throttle.exact", "budget.throttle_problem", "budget.expire",
            "budget.snapshots", "budget.settle", "budget.record_display",
            "columnar_exec.run_round", "click_model",
        ),
        "bypassed": (
            "sharedsort.begin_round", "sharedsort.rank_phrase",
            "changefeed.publish", "changefeed.drain", "serving",
        ),
    },
    "serve-zipf": {
        "entered": (
            "throttle.exact", "budget.throttle_problem", "budget.expire",
            "budget.snapshots", "budget.settle", "budget.record_display",
            "sharedsort.begin_round", "sharedsort.rank_phrase",
            "changefeed.publish", "changefeed.drain", "click_model",
            "pipeline",
        ),
        "bypassed": ("columnar_exec.run_round",),
    },
}
"""Span names each workload must record at least one call of, and span
names it must record none of.  A wrapper that silently misses its call
site fails the run instead of reporting a zero."""


def _setup(workload, market, seed):
    """Median construction time, at reference and at host speed, and the
    last engine constructed.

    Only one engine is alive at a time, so ``peak_rss_mb`` holds one
    construction, and each starts from a collected heap: a cyclic
    collection that the previous engine's garbage triggers inside the
    timing would add up to 80% to that construction.
    """
    scaled, wall = [], []
    engine = None
    for _ in range(SETUP_REPEATS):
        engine = None
        gc.collect()
        probes = [passes.probe() for _ in range(SETUP_PROBES)]
        started = time.perf_counter()
        engine = inputs.build_engine(workload.engine, market, seed)
        wall.append(time.perf_counter() - started)
        probes += [passes.probe() for _ in range(SETUP_PROBES)]
        scaled.append(wall[-1] * REFERENCE_PROBE_S / statistics.median(probes))
    return statistics.median(scaled), statistics.median(wall), engine


def _operations(workload, market, seed: int, seconds: float) -> list:
    """The run's operations, warm-up first: phrase lists or arrivals."""
    if workload.kind == "batch":
        timed = max(1, math.ceil(seconds / inputs.REFERENCE_ROUND_S))
        return list(
            itertools.islice(
                inputs.round_schedule(market, seed),
                passes.WARMUP_ROUNDS + timed,
            )
        )
    return passes.timed_arrivals(inputs.traffic(market, seed), seconds)


def _run_pass(
    workload, market, seed, engine, operations,
    paced=True, tracer=None, gauge=None,
):
    """One pass of ``workload`` over ``operations``."""
    if workload.kind == "batch":
        return passes.batch_pass(
            engine, operations, tracer=tracer, gauge=gauge
        )
    return passes.serve_pass(
        inputs.serving_loop(engine, market, seed),
        operations,
        paced=paced,
        tracer=tracer,
        gauge=gauge,
    )


def host_slowdown(result) -> float:
    """How much slower than the reference host this pass ran."""
    return statistics.median(result.probe_s) / REFERENCE_PROBE_S


def local_slowdowns(result) -> list:
    """Per timed operation, the slowdown by its ``PROBES_NEAR`` nearest
    probes, half before and half after its start."""
    slowdowns = []
    for started in result.op_at:
        nearest = bisect.bisect_left(result.probe_at, started)
        window = result.probe_s[
            max(0, nearest - PROBES_NEAR // 2): nearest + PROBES_NEAR // 2
        ]
        slowdowns.append(statistics.median(window) / REFERENCE_PROBE_S)
    return slowdowns


def reference_latency_s(workload, result, slowdowns) -> list:
    """The timed operations' latencies at the reference host speed.

    A batch round's latency is its service time divided by its slowdown.
    A query's is replayed through the open loop's queue at that speed:
    it starts at its scheduled send or when the query before it
    finishes, whichever is later.  Dividing the measured latency by the
    slowdown instead would leave most of the host's speed in it, as the
    queueing wait grows faster than the service times on a slower host:
    over six seeds the replay's spread (interquartile range over median)
    was 0.034 and the divided latency's 0.085.
    """
    scaled = [t / s for t, s in zip(result.service_s, slowdowns)]
    if workload.kind == "batch":
        return scaled
    latencies = []
    free = -math.inf
    for started, service, latency, reference in zip(
        result.op_at, result.service_s, result.latency_s, scaled
    ):
        due = started + service - latency
        free = max(due, free) + reference
        latencies.append(free - due)
    return latencies


def _busy_s(result, slowdowns) -> float:
    """Service time of the timed operations, each divided by its slowdown."""
    return sum(t / s for t, s in zip(result.service_s, slowdowns))


def per_layer_metrics(tracer, self_s, calls, traced, measured) -> dict:
    """Per-operation layer metrics of a traced pass."""
    ops = len(traced.service_s)
    total_s = sum(self_s.values())
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = (self_s[layer] * 1e3 / ops, "ms/op")
        metrics[f"{layer}.share"] = (self_s[layer] / total_s, "frac")
    for name in (
        "throttle.exact", "budget.throttle_problem", "budget.settle",
        "changefeed.publish",
    ):
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "calls/op")
    occurring = tracer.counts[tracing.OCCURRING_ROWS]
    metrics["sharedsort.repair_ratio"] = (
        tracer.counts[tracing.REPAIRED_ROWS] / occurring if occurring else 0.0,
        "frac",
    )
    metrics["budget.outstanding_ads"] = (statistics.fmean(traced.gauge), "ads")
    late = measured.late_s
    metrics["loadgen.late_ms"] = (
        statistics.fmean(late) * 1e3 if late else 0.0, "ms"
    )
    metrics["trace.overhead_frac"] = (
        _busy_s(traced, local_slowdowns(traced))
        / _busy_s(measured, local_slowdowns(measured))
        - 1.0,
        "frac",
    )
    return metrics


def layer_problems(workload_name: str, calls) -> list:
    """Expected-layer violations of a traced pass's span ``calls``."""
    expected = EXPECTED_LAYERS[workload_name]
    problems = [
        f"layer {name} recorded no call"
        for name in expected["entered"]
        if not calls.get(name)
    ]
    problems += [
        f"layer {name} recorded {calls[name]} calls, predicted none"
        for name in expected["bypassed"]
        if calls.get(name)
    ]
    return problems


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed last."""
    workload = inputs.WORKLOADS[workload_name]
    market = inputs.build_market(workload)
    operations = _operations(workload, market, seed, seconds)
    setup_s, setup_wall_s, engine = _setup(workload, market, seed)
    measured = _run_pass(workload, market, seed, engine, operations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = overspent(engine.budget_manager.spent_snapshot(), market)
    if threading.active_count() != 1:
        # Another thread would slow the probes as well as the engine,
        # and scaling by the probes would hide its cost.
        problems.append(
            f"{threading.active_count()} threads after the measured pass; "
            "the speed scaling assumes the engine runs on one"
        )

    if trace:
        tracer = tracing.Tracer()
        traced_engine = inputs.build_engine(workload.engine, market, seed)
        with tracing.patched(tracer):
            traced = _run_pass(
                workload, market, seed, traced_engine, operations,
                tracer=tracer,
                gauge=lambda: sum(
                    traced_engine.budget_manager.outstanding_counts().values()
                ),
            )
        tracer.write(TRACE_DIR / f"trace-{workload_name}.json")
        if traced.outcomes != measured.outcomes:
            problems.append("traced outcomes differ from untraced outcomes")
        self_s, calls = tracing.self_times(tracer)
        problems += layer_problems(workload_name, calls)
        metrics = per_layer_metrics(tracer, self_s, calls, traced, measured)
    else:
        slowdowns = local_slowdowns(measured)
        metrics = {
            "op_p50_ms": (
                statistics.median(
                    reference_latency_s(workload, measured, slowdowns)
                ) * 1e3,
                "ms",
            ),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        ones = [1.0] * len(slowdowns)
        p50 = statistics.median(measured.latency_s) * 1e3
        p99 = nearest_rank_percentile(sorted(measured.latency_s), 99.0) * 1e3
        print(
            f"reference speed: auctions_per_s="
            f"{measured.auctions / _busy_s(measured, slowdowns):.6g}\n"
            f"wall clock: op_p50_ms={p50:.6g} "
            f"op_p99_ms={p99:.6g} "
            f"auctions_per_s={measured.auctions / _busy_s(measured, ones):.6g} "
            f"setup_s={setup_wall_s:.6g} "
            f"host_slowdown={host_slowdown(measured):.4f}"
        )

    oracle = _run_pass(
        workload, market, seed,
        inputs.build_engine("oracle", market, seed), operations,
        paced=False,
    )
    failed, messages = failed_operations(
        measured.outcomes, oracle.outcomes, market, len(inputs.SLOT_FACTORS)
    )
    attempted = len(measured.outcomes)
    if problems and not failed:
        # The books or the trace are wrong as a whole; no single
        # operation can be blamed.
        failed = list(range(attempted))
    for message in (measured.errors + oracle.errors + messages + problems)[:20]:
        print(message, file=sys.stderr)
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"{'failed_frac':36s} {result['failed'] / result['attempted']:14.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
