"""Span tracing of the engine's layers from outside the program.

The traced run patches each layer's public function where its caller
looks it up (a module global for ``exact_throttled_bid``, the class
attribute for methods) with a wrapper that records a span.  Spans are
kept in memory -- name, start, end, parent and the id of the operation
(round or query) they belong to -- and written out when the run ends.
Per-layer self time is a span's duration minus the time its child spans
cover; since every span nests inside one operation span, the layers'
self times partition the operations' wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.engine.pipeline as pipeline_module
from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import ChangeFeed, Subscription
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import SharedAuctionEngine
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.sharedsort.columnar import ColumnarThresholdKernel

LAYERS: Tuple[str, ...] = (
    "throttle.exact",
    "budget.throttle_problem",
    "budget.expire",
    "budget.snapshots",
    "budget.settle",
    "budget.record_display",
    "columnar_exec.run_round",
    "sharedsort.begin_round",
    "sharedsort.rank_phrase",
    "changefeed",
    "click_model",
    "pipeline",
    "serving",
)
"""Every layer whose self time the traced run attributes.  ``pipeline``
is the engine's own code (vectorized scoring and orchestration) and
``serving`` the serving loop's, both net of the layers they call."""

REPAIRED_ROWS = "sharedsort.repaired_rows"
OCCURRING_ROWS = "sharedsort.occurring_rows"


def _begin_round_counts(args, result) -> Dict[str, int]:
    """Rows ``begin_round`` re-sorted and rows that occurred."""
    return {REPAIRED_ROWS: int(result), OCCURRING_ROWS: len(args[2])}


PATCHES: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (pipeline_module, "exact_throttled_bid", "throttle.exact", None),
    (BudgetManager, "throttle_problem", "budget.throttle_problem", None),
    (BudgetManager, "expire_outstanding", "budget.expire", None),
    (BudgetManager, "spent_snapshot", "budget.snapshots", None),
    (BudgetManager, "outstanding_counts", "budget.snapshots", None),
    (BudgetManager, "settle_click", "budget.settle", None),
    (BudgetManager, "record_display", "budget.record_display", None),
    (ColumnarFragmentExecutor, "run_round", "columnar_exec.run_round", None),
    (
        ColumnarThresholdKernel, "begin_round", "sharedsort.begin_round",
        _begin_round_counts,
    ),
    (ColumnarThresholdKernel, "rank_phrase", "sharedsort.rank_phrase", None),
    (ChangeFeed, "publish", "changefeed.publish", None),
    (Subscription, "drain", "changefeed.drain", None),
    (DelayedClickModel, "arrivals", "click_model", None),
    (DelayedClickModel, "record_display", "click_model", None),
    (SharedAuctionEngine, "serve_query", "pipeline", None),
)
"""``(owner, attribute, span name, counter)``: what the traced run
patches.  ``counter(args, result)`` returns extra counts to record."""


def layer_of(span_name: str) -> str:
    """The layer a span's self time is attributed to."""
    return "changefeed" if span_name.startswith("changefeed.") else span_name


class Tracer:
    """In-memory span recorder.

    Spans are recorded only inside an operation opened with
    :meth:`operation`; a wrapped call outside one (warm-up) runs
    unrecorded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str, op_id: int) -> Iterator[None]:
        """Record one operation's root span around the block."""
        self._op = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None):
        """``fn`` recording a span named ``name`` inside an operation."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span and count as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": list(
                        zip(self.names, self.starts, self.ends,
                            self.parents, self.ops)
                    ),
                    "counts": dict(self.counts),
                },
                handle,
            )


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install :data:`PATCHES` for the block, restoring them after."""
    saved = []
    try:
        for owner, attribute, name, counter in PATCHES:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, counter))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def self_times(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Total self seconds per layer and calls per span name."""
    child_time = [0.0] * len(tracer.names)
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += tracer.ends[index] - tracer.starts[index]
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = defaultdict(int)
    for index, name in enumerate(tracer.names):
        duration = tracer.ends[index] - tracer.starts[index]
        self_s[layer_of(name)] += duration - child_time[index]
        calls[name] += 1
    return self_s, dict(calls)
