"""One pass of a workload: warm-up, then the timed operations.

A run makes up to three passes over the same inputs: the measured pass
(tracing off; its timings are the end-to-end metrics), the traced pass
(``--trace 1`` only) and the oracle pass (untimed; its outcomes are the
reference).  All passes run exactly the same operations.

Timed passes also time a fixed host-speed :func:`probe` between
operations, never inside one: before and after the timed window, before
every batch round, and in the idle gaps of the serving loop.  On a
shared virtual machine the speed of the same code drifts by +-20% over
tens of seconds; the probes measure that drift so run.py can report
times at a fixed reference speed.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from perfbench.checks import Outcome, query_outcome, round_outcome

WARMUP_ROUNDS = 18
"""Batch rounds before timing: one past the 16-round click horizon, the
point from which the outstanding-ad count stops growing."""

WARMUP_QUERIES = 500
"""Queries served back to back before timing: far past the 16-tick
click horizon, and enough for the sort cache to hold most hot rows."""

SEND_LEAD_S = 0.01
"""Gap between the end of warm-up and the first timed send."""

PROBES_AROUND = 10
"""Probes before and after every timed window."""

PROBES_PER_ROUND = 4

PROBE_GAP_S = 0.001
"""The serving loop probes while at least this long remains before the
next send, so a probe (~0.45 ms) never delays one."""


clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass produced.

    Attributes:
        outcomes: One outcome per operation, warm-up included; ``None``
            where it raised.
        service_s: Successful timed operations' service time (call to
            return).
        latency_s: Their latency: the service time for a batch round,
            the time from the scheduled send to the return for a query.
        op_at: Their start times.
        late_s: Serving only: how late each send ran whose due time
            found the server idle.
        auctions: Phrase auctions resolved by the timed operations.
        probe_at: Start times of the host-speed probes taken in the pass.
        probe_s: Their durations.
        errors: Tracebacks of operations that raised.
        gauge: Per timed operation, the ``gauge`` callback's reading
            right after it (the traced pass samples the ledger size).
    """

    outcomes: List[Optional[Outcome]] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    op_at: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    auctions: int = 0
    probe_at: List[float] = field(default_factory=list)
    probe_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    gauge: List[float] = field(default_factory=list)


PROBE_PRICES = (37, 91, 55, 120, 64, 83, 42, 150, 77)


def probe() -> float:
    """Seconds that one fixed unit of host work takes right now.

    A dict-based distribution DP shaped like the Section IV throttle DP
    plus a small numpy sort -- the two kinds of work the engine does --
    written here and touching no engine code, so that a change to the
    program cannot change what the probe measures.
    """
    started = clock()
    dist = {0: 1.0}
    for price in PROBE_PRICES:
        step = {}
        for value, mass in dist.items():
            hit = min(1500, value + price)
            step[hit] = step.get(hit, 0.0) + mass * 0.2
            step[value] = step.get(value, 0.0) + mass * 0.8
        dist = step
    values = np.random.default_rng(0).random(1024)
    order = np.lexsort((np.arange(1024), -values))
    float(values[order[:16]].sum()) + float(np.flatnonzero(values > 0.5).size)
    return clock() - started


def _probe(result: PassResult, count: int = 1) -> None:
    for _ in range(count):
        result.probe_at.append(clock())
        result.probe_s.append(probe())


def _attempt(
    result: PassResult, call: Callable[[], object], outcome, span=None
) -> tuple:
    """Run one operation, inside ``span`` if given.

    Returns its report (``None`` if it raised) and the time it returned.
    The outcome is built and recorded after that time is taken, so the
    benchmark's own bookkeeping is never timed or traced.
    """
    try:
        with span or contextlib.nullcontext():
            report = call()
        finished = clock()
    except Exception:  # a failed operation: counted, not fatal
        result.errors.append(traceback.format_exc())
        result.outcomes.append(None)
        return None, clock()
    result.outcomes.append(outcome(report))
    return report, finished


def _span(tracer, name: str, op: int):
    """The tracer's operation span, or ``None`` when not tracing."""
    return None if tracer is None else tracer.operation(name, op)


def batch_pass(
    engine,
    rounds: Sequence[List[str]],
    tracer=None,
    gauge: Optional[Callable[[], float]] = None,
) -> PassResult:
    """Run ``rounds`` through ``engine.run_round``; all after
    :data:`WARMUP_ROUNDS` are timed.

    Args:
        tracer: Record each timed round as one operation.
        gauge: Sampled after each timed round, outside its timing.
    """
    result = PassResult()
    for phrases in rounds[:WARMUP_ROUNDS]:
        _attempt(result, lambda: engine.run_round(phrases), round_outcome)
    _probe(result, PROBES_AROUND)
    for op, phrases in enumerate(rounds[WARMUP_ROUNDS:]):
        _probe(result, PROBES_PER_ROUND)
        started = clock()
        report, finished = _attempt(
            result,
            lambda: engine.run_round(phrases),
            round_outcome,
            _span(tracer, "pipeline", op),
        )
        elapsed = finished - started
        if report is not None:
            result.op_at.append(started)
            result.service_s.append(elapsed)
            result.latency_s.append(elapsed)
            result.auctions += len(phrases)
        if gauge is not None:
            result.gauge.append(gauge())
    _probe(result, PROBES_AROUND)
    return result


def _wait_until(due: float, result: PassResult) -> None:
    """Probe, then spin, until ``due``.

    A sleep would let the core drop into an idle state and wake late
    and cold, which shows up as load-generator lateness and as slower,
    more variable service of the query after it.
    """
    while due - clock() > PROBE_GAP_S:
        _probe(result)
    while clock() < due:
        pass


def serve_pass(
    loop,
    arrivals: Sequence,
    paced: bool = True,
    tracer=None,
    gauge: Optional[Callable[[], float]] = None,
) -> PassResult:
    """Serve ``arrivals`` through ``loop.serve_one``.

    The first :data:`WARMUP_QUERIES` arrivals are served back to back,
    untimed.
    With ``paced`` the rest form an open loop: each query is sent at
    its trace arrival time (relative to the first timed arrival),
    waiting while the server is idle and never skipping a send that
    is already late, so queueing behind a slow query counts in the
    latencies of the queries after it.  Without, they run back to back.
    """
    result = PassResult()
    for arrival in arrivals[:WARMUP_QUERIES]:
        _attempt(result, lambda: loop.serve_one(arrival), query_outcome)
    timed = arrivals[WARMUP_QUERIES:]
    if not timed:
        return result
    _probe(result, PROBES_AROUND)
    base = timed[0].arrival_time
    origin = clock() + SEND_LEAD_S
    for op, arrival in enumerate(timed):
        due = origin + (arrival.arrival_time - base)
        started = clock()
        if not paced:
            due = started
        elif started < due:
            _wait_until(due, result)
            started = clock()
            result.late_s.append(started - due)
        query, finished = _attempt(
            result,
            lambda: loop.serve_one(arrival),
            query_outcome,
            _span(tracer, "serving", op),
        )
        if query is not None:
            result.op_at.append(started)
            result.service_s.append(finished - started)
            result.latency_s.append(finished - due)
            result.auctions += 1
        if gauge is not None:
            result.gauge.append(gauge())
    _probe(result, PROBES_AROUND)
    return result


def timed_arrivals(traffic, seconds: float) -> list:
    """Warm-up arrivals plus every arrival within ``seconds`` after them."""
    arrivals = traffic.take(WARMUP_QUERIES + 1)
    base = arrivals[WARMUP_QUERIES].arrival_time
    for arrival in traffic:
        if arrival.arrival_time - base >= seconds:
            break
        arrivals.append(arrival)
    return arrivals
