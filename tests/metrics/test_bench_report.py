"""The bench-report merger: flattening, determinism, and the check gate.

``benchmarks/bench_report.py`` is the single place where "did a tracked
benchmark metric regress?" is answered, so its behaviors are tier-1
concerns: byte-stable output (otherwise the committed ``bench_tables``
churns on every run), exact dotted-path flattening, and a ``--check``
that actually fails on a regressed or missing metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent.parent / "benchmarks")
)

import bench_report


class TestFlatten:
    def test_nested_dicts_become_sorted_dotted_paths(self):
        data = {"b": {"y": 2, "x": 1}, "a": 0}
        assert list(bench_report.flatten(data)) == [
            ("a", 0), ("b.x", 1), ("b.y", 2)
        ]

    def test_non_dict_leaves_pass_through(self):
        data = {"list": [1, 2], "flag": True, "text": "hi"}
        flat = dict(bench_report.flatten(data))
        assert flat == {"list": [1, 2], "flag": True, "text": "hi"}


class TestFormatValue:
    def test_floats_use_six_significant_digits(self):
        assert bench_report.format_value(0.30000000000004) == "0.3"
        assert bench_report.format_value(3.79e-07) == "3.79e-07"

    def test_bools_are_not_floats_or_ints(self):
        assert bench_report.format_value(True) == "true"
        assert bench_report.format_value(False) == "false"

    def test_lists_render_elementwise(self):
        assert bench_report.format_value([1, 2.5, True]) == "[1, 2.5, true]"


class TestEvaluateTracked:
    def _benchmarks(self, **overrides):
        base = {
            stem: {}
            for stem, *_ in bench_report.TRACKED
        }
        base.update(overrides)
        return base

    def test_shared_round_slower_than_ceiling_is_regressed(self):
        benchmarks = self._benchmarks(
            BENCH_columnar={
                "shared_round": {
                    "outcomes_identical": True,
                    "shared_over_unshared": 4.5,
                },
            }
        )
        rows = {
            metric: status
            for metric, _, _, status in bench_report.evaluate_tracked(
                benchmarks
            )
        }
        assert (
            rows["BENCH_columnar:shared_round.shared_over_unshared"]
            == "REGRESSED"
        )
        assert rows["BENCH_columnar:shared_round.outcomes_identical"] == "ok"

    def test_steady_books_below_speedup_floor_is_regressed(self):
        benchmarks = self._benchmarks(
            BENCH_budgets={
                "steady_books": {"identical": True, "speedup": 2.0},
            }
        )
        rows = {
            metric: status
            for metric, _, _, status in bench_report.evaluate_tracked(
                benchmarks
            )
        }
        assert rows["BENCH_budgets:steady_books.speedup"] == "REGRESSED"
        assert rows["BENCH_budgets:steady_books.identical"] == "ok"

    def test_missing_file_is_flagged(self):
        rows = bench_report.evaluate_tracked({})
        assert rows and all(status == "MISSING" for *_, status in rows)

    def test_out_of_bound_value_is_regressed(self):
        benchmarks = self._benchmarks(
            BENCH_columnar={
                "kernels": {"speedup": 1.2, "outcomes_identical": True},
                "sharded": {"single_shard_identical": True},
            }
        )
        rows = {
            metric: status
            for metric, _, _, status in bench_report.evaluate_tracked(
                benchmarks
            )
        }
        assert rows["BENCH_columnar:kernels.speedup"] == "REGRESSED"
        assert (
            rows["BENCH_columnar:kernels.outcomes_identical"] == "ok"
        )

    def test_in_bound_value_is_ok(self):
        benchmarks = self._benchmarks(
            BENCH_columnar={
                "kernels": {"speedup": 5.0, "outcomes_identical": True},
                "sharded": {"single_shard_identical": True},
            }
        )
        statuses = {
            metric: status
            for metric, _, _, status in bench_report.evaluate_tracked(
                benchmarks
            )
        }
        assert statuses["BENCH_columnar:kernels.speedup"] == "ok"
        assert (
            statuses["BENCH_columnar:sharded.single_shard_identical"]
            == "ok"
        )


class TestMain:
    def _write(self, root: Path, stem: str, data: dict) -> None:
        (root / f"{stem}.json").write_text(json.dumps(data))

    def _healthy_root(self, tmp_path: Path) -> Path:
        self._write(
            tmp_path,
            "BENCH_planner",
            {
                "fig4 default": {
                    "plans_identical": True,
                    "covers_computed": {"reduction": 3.0},
                }
            },
        )
        self._write(
            tmp_path,
            "BENCH_sharedsort",
            {
                "scaled 24x96": {
                    "builder": {
                        "plans_identical": True,
                        "savings_evaluated": {"reduction": 10.0},
                    },
                    "cross_round": {"answers_identical": True},
                }
            },
        )
        self._write(
            tmp_path,
            "BENCH_budgets",
            {
                "policies": {
                    "throttled": {"revenue_loss": 0.0},
                    "naive": {"revenue_loss": 0.3},
                },
                "steady_books": {"identical": True, "speedup": 4.0},
            },
        )
        self._write(
            tmp_path, "BENCH_changefeed", {"per_event_seconds": 1e-6}
        )
        self._write(
            tmp_path,
            "BENCH_serving",
            {
                "gates": {
                    "exec_cache_work_ratio": 0.3,
                    "sort_cache_work_ratio": 0.3,
                },
                "columnar_serving": {
                    "outcomes_identical": True,
                    "speedup_per_query": 5.0,
                },
            },
        )
        self._write(
            tmp_path,
            "BENCH_columnar",
            {
                "kernels": {"speedup": 4.0, "outcomes_identical": True},
                "matching": {
                    "kernel_speedup": 10.0,
                    "outcomes_identical": True,
                },
                "sharded": {"single_shard_identical": True},
                "shared_round": {
                    "outcomes_identical": True,
                    "shared_over_unshared": 1.0,
                },
            },
        )
        return tmp_path

    def test_healthy_root_passes_check(self, tmp_path, capsys):
        root = self._healthy_root(tmp_path)
        assert bench_report.main(["--root", str(root), "--check"]) == 0
        assert "21/21 tracked ok" in capsys.readouterr().out
        assert (root / "bench_tables.txt").exists()

    def test_output_is_byte_stable(self, tmp_path):
        root = self._healthy_root(tmp_path)
        bench_report.main(["--root", str(root)])
        first = (root / "bench_tables.txt").read_bytes()
        bench_report.main(["--root", str(root)])
        assert (root / "bench_tables.txt").read_bytes() == first

    def test_regression_fails_check_but_not_plain_run(
        self, tmp_path, capsys
    ):
        root = self._healthy_root(tmp_path)
        self._write(
            root,
            "BENCH_columnar",
            {
                "kernels": {"speedup": 1.0, "outcomes_identical": True},
                "matching": {
                    "kernel_speedup": 10.0,
                    "outcomes_identical": True,
                },
                "sharded": {"single_shard_identical": True},
                "shared_round": {
                    "outcomes_identical": True,
                    "shared_over_unshared": 1.0,
                },
            },
        )
        assert bench_report.main(["--root", str(root)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert bench_report.main(["--root", str(root), "--check"]) == 1

    def test_missing_artifact_fails_check(self, tmp_path):
        root = self._healthy_root(tmp_path)
        (root / "BENCH_columnar.json").unlink()
        assert bench_report.main(["--root", str(root), "--check"]) == 1

    def test_empty_root_errors(self, tmp_path, capsys):
        assert bench_report.main(["--root", str(tmp_path)]) == 1
        assert "no BENCH_" in capsys.readouterr().err

    def test_repo_root_artifacts_are_currently_healthy(self):
        """The committed BENCH_*.json must satisfy their own gates."""
        benchmarks = bench_report.load_benchmarks(bench_report.REPO_ROOT)
        rows = bench_report.evaluate_tracked(benchmarks)
        unhealthy = [row for row in rows if row[3] != "ok"]
        assert not unhealthy, f"tracked regressions: {unhealthy}"

    def test_committed_report_matches_artifacts(self):
        """bench_tables.txt is derived state; it must not drift."""
        benchmarks = bench_report.load_benchmarks(bench_report.REPO_ROOT)
        expected = bench_report.render(benchmarks) + "\n"
        committed = (
            bench_report.REPO_ROOT / bench_report.REPORT_NAME
        ).read_text()
        assert committed == expected
