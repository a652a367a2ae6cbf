"""Merge every ``BENCH_*.json`` into one deterministic report.

The benchmark suite leaves one JSON artifact per subsystem at the repo
root (``BENCH_planner.json``, ``BENCH_sharedsort.json``, ...).  Each has
its own nested shape, which makes "did anything regress?" a manual
scavenger hunt.  This tool flattens all of them into a single sorted
``bench_tables.txt`` -- dotted paths, one metric per line, floats
formatted with ``%.6g`` so the file is byte-stable across runs on the
same inputs -- and evaluates a small table of *tracked* metrics with
explicit floors/ceilings.

Usage::

    python benchmarks/bench_report.py           # write bench_tables.txt
    python benchmarks/bench_report.py --check   # exit 1 on regression

``--check`` is the CI posture: a tracked metric that is missing or out
of bound fails the run.  The tracked bounds are deliberately the
*identity and work-ratio* metrics (plans identical, answers identical,
cache work ratios, kernel speedups measured against an in-run baseline)
rather than raw wall-clock numbers, which vary with the host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_NAME = "bench_tables.txt"

# (file stem, dotted path, op, bound) -- `op` is one of ">=", "<=",
# "is_true".  A tracked metric whose file exists but whose path is
# missing, or whose value is out of bound, is a regression.
TRACKED: Tuple[Tuple[str, str, str, float], ...] = (
    ("BENCH_planner", "fig4 default.plans_identical", "is_true", 0),
    ("BENCH_planner", "fig4 default.covers_computed.reduction", ">=", 1.5),
    ("BENCH_sharedsort", "scaled 24x96.builder.plans_identical",
     "is_true", 0),
    ("BENCH_sharedsort", "scaled 24x96.cross_round.answers_identical",
     "is_true", 0),
    ("BENCH_sharedsort", "scaled 24x96.builder.savings_evaluated.reduction",
     ">=", 5.0),
    ("BENCH_budgets", "policies.throttled.revenue_loss", "<=", 0.01),
    ("BENCH_budgets", "policies.naive.revenue_loss", ">=", 0.05),
    ("BENCH_budgets", "steady_books.identical", "is_true", 0),
    ("BENCH_budgets", "steady_books.speedup", ">=", 3.0),
    ("BENCH_changefeed", "per_event_seconds", "<=", 1e-4),
    ("BENCH_serving", "gates.exec_cache_work_ratio", "<=", 0.9),
    ("BENCH_serving", "gates.sort_cache_work_ratio", "<=", 0.9),
    ("BENCH_serving", "columnar_serving.outcomes_identical", "is_true", 0),
    ("BENCH_serving", "columnar_serving.speedup_per_query", ">=", 2.0),
    ("BENCH_columnar", "kernels.outcomes_identical", "is_true", 0),
    ("BENCH_columnar", "kernels.speedup", ">=", 3.0),
    ("BENCH_columnar", "matching.outcomes_identical", "is_true", 0),
    ("BENCH_columnar", "matching.kernel_speedup", ">=", 3.0),
    ("BENCH_columnar", "sharded.single_shard_identical", "is_true", 0),
    ("BENCH_columnar", "shared_round.outcomes_identical", "is_true", 0),
    ("BENCH_columnar", "shared_round.shared_over_unshared", "<=", 1.5),
)


def flatten(data, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Depth-first flatten of nested dicts into sorted dotted paths."""
    for key in sorted(data, key=str):
        value = data[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from flatten(value, f"{path}.")
        else:
            yield path, value


def format_value(value) -> str:
    """A byte-stable rendering: bools as true/false, floats as %.6g."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    return str(value)


def load_benchmarks(root: Path) -> Dict[str, dict]:
    """Every ``BENCH_*.json`` under ``root``, keyed by stem, sorted."""
    benchmarks: Dict[str, dict] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        with open(path) as handle:
            benchmarks[path.stem] = json.load(handle)
    return benchmarks


def lookup(data: dict, dotted: str):
    """Resolve a dotted path; raises KeyError when any segment misses."""
    node = data
    for segment in dotted.split("."):
        node = node[segment]
    return node


def evaluate_tracked(
    benchmarks: Dict[str, dict],
) -> List[Tuple[str, str, str, str]]:
    """One ``(metric, value, bound, status)`` row per tracked metric.

    Status is ``ok``, ``REGRESSED`` (out of bound), or ``MISSING`` (the
    file or the path is absent).  Files absent entirely are reported as
    MISSING rather than skipped: a benchmark that silently stopped
    producing its artifact is itself a regression.
    """
    rows: List[Tuple[str, str, str, str]] = []
    for stem, dotted, op, bound in TRACKED:
        metric = f"{stem}:{dotted}"
        if stem not in benchmarks:
            rows.append((metric, "-", _bound_text(op, bound), "MISSING"))
            continue
        try:
            value = lookup(benchmarks[stem], dotted)
        except (KeyError, TypeError):
            rows.append((metric, "-", _bound_text(op, bound), "MISSING"))
            continue
        if op == "is_true":
            healthy = value is True
        elif op == ">=":
            healthy = float(value) >= bound
        elif op == "<=":
            healthy = float(value) <= bound
        else:  # pragma: no cover - TRACKED is a literal
            raise ValueError(f"unknown op {op!r}")
        rows.append(
            (
                metric,
                format_value(value),
                _bound_text(op, bound),
                "ok" if healthy else "REGRESSED",
            )
        )
    return rows


def _bound_text(op: str, bound: float) -> str:
    if op == "is_true":
        return "== true"
    return f"{op} {format_value(float(bound))}"


def render(benchmarks: Dict[str, dict]) -> str:
    """The full report: tracked table first, then every flat metric."""
    lines: List[str] = []
    rows = evaluate_tracked(benchmarks)
    lines.append("# Tracked metrics")
    lines.append("#")
    width = max(len(metric) for metric, *_ in rows)
    for metric, value, bound, status in rows:
        lines.append(
            f"# {metric:<{width}}  {value:>10}  ({bound})  {status}"
        )
    lines.append("")
    for stem in sorted(benchmarks):
        lines.append(f"[{stem}]")
        for path, value in flatten(benchmarks[stem]):
            lines.append(f"{path} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="merge BENCH_*.json into bench_tables.txt"
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"report path (default <root>/{REPORT_NAME})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any tracked metric is missing or regressed",
    )
    args = parser.parse_args(argv)
    benchmarks = load_benchmarks(args.root)
    if not benchmarks:
        print(f"no BENCH_*.json under {args.root}", file=sys.stderr)
        return 1
    report = render(benchmarks)
    output = args.output or args.root / REPORT_NAME
    output.write_text(report + "\n")
    unhealthy = [
        row for row in evaluate_tracked(benchmarks) if row[3] != "ok"
    ]
    print(
        f"{len(benchmarks)} benchmark files -> {output} "
        f"({len(TRACKED) - len(unhealthy)}/{len(TRACKED)} tracked ok)"
    )
    for metric, value, bound, status in unhealthy:
        print(f"  {status}: {metric} = {value} (want {bound})")
    if args.check and unhealthy:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
