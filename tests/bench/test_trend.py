"""The trend-gate median logic in :mod:`benchmarks.trend`.

The scheduled CI job feeds downloaded per-commit rows through
``trend.py --gate``; these tests pin the decision procedure — what
counts as a sustained regression, what a single noisy commit does, and
how new or sparse series are treated.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import trend


def rows_of(*suite_seconds: float) -> list[dict]:
    return [
        {"sha": f"c{i}", "logic_suite_seconds": s}
        for i, s in enumerate(suite_seconds)
    ]


class TestGateFailures:
    def test_flat_series_passes(self):
        assert trend.gate_failures(rows_of(1.0, 1.0, 1.0, 1.0, 1.0)) == []

    def test_sustained_regression_fails(self):
        rows = rows_of(1.0, 1.0, 1.0, 1.5, 1.5, 1.5)
        failures = trend.gate_failures(rows)
        assert failures == [("logic_suite_seconds", 1.5, 1.0)]

    def test_single_noisy_commit_is_invisible(self):
        # One 10x spike inside the window: the median of the newest 3
        # is still on-trend, so the gate stays green.
        rows = rows_of(1.0, 1.0, 1.0, 1.0, 10.0, 1.0)
        assert trend.gate_failures(rows) == []

    def test_below_threshold_drift_passes(self):
        rows = rows_of(1.0, 1.0, 1.0, 1.15, 1.15, 1.15)
        assert trend.gate_failures(rows, threshold=0.20) == []
        assert trend.gate_failures(rows, threshold=0.10)

    def test_improvement_never_fails(self):
        rows = rows_of(2.0, 2.0, 2.0, 1.0, 1.0, 1.0)
        assert trend.gate_failures(rows) == []

    def test_speedup_fields_are_not_gated(self):
        # Speedups go *down* when things regress; only *_seconds series
        # are time-like, so a collapsing speedup alone never trips the
        # median gate (the single-commit --check floors own that).
        rows = [
            {"sha": f"c{i}", "sim_ring_speedup": s}
            for i, s in enumerate((4.0, 4.0, 4.0, 1.0, 1.0, 1.0))
        ]
        assert trend.gate_failures(rows) == []

    def test_new_series_needs_history(self):
        # A benchmark tier that only exists in the newest rows has no
        # baseline — it must not fail (or crash) the gate.
        rows = rows_of(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        for row in rows[-3:]:
            row["sim_ring_seconds"] = 9.9
        assert trend.gate_failures(rows) == []

    def test_sparse_series_uses_available_points(self):
        # Rows that miss a point contribute nothing; the series still
        # gates once >= window recent points and any baseline exist.
        rows = rows_of(1.0, 1.0, 1.0, 1.5, 1.5, 1.5)
        del rows[1]["logic_suite_seconds"]
        failures = trend.gate_failures(rows)
        assert failures == [("logic_suite_seconds", 1.5, 1.0)]

    def test_per_width_and_per_pass_labels_gate_independently(self):
        rows = []
        for i in range(6):
            late = i >= 3
            rows.append(
                {
                    "sha": f"c{i}",
                    "logic_width_seconds": {
                        "12": 0.03,
                        "24": 0.4 if late else 0.1,
                    },
                    "batch_pass_seconds": {
                        "assign": 0.02,
                        "cover": 0.09 if late else 0.05,
                    },
                }
            )
        names = [name for name, _, _ in trend.gate_failures(rows)]
        assert names == [
            "batch_pass_seconds[cover]",
            "logic_width_seconds[24]",
        ]

    def test_zero_baseline_is_skipped(self):
        rows = rows_of(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert trend.gate_failures(rows) == []


class TestOrdering:
    def test_rows_sorted_by_order_stamp(self, tmp_path):
        paths = []
        for i, (order, s) in enumerate([(3, 9.0), (1, 1.0), (2, 2.0)]):
            p = tmp_path / f"row{i}.json"
            p.write_text(
                json.dumps(
                    {"sha": f"c{order}", "order": order, "x_seconds": s}
                )
            )
            paths.append(str(p))
        rows = trend.ordered_rows(paths)
        assert [row["sha"] for row in rows] == ["c1", "c2", "c3"]

    def test_argument_order_kept_without_stamps(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"row{i}.json"
            p.write_text(json.dumps({"sha": f"c{i}"}))
            paths.append(str(p))
        rows = trend.ordered_rows(list(reversed(paths)))
        assert [row["sha"] for row in rows] == ["c2", "c1", "c0"]


class TestCommandLine:
    """End-to-end through the CLI, exactly as the scheduled job runs it."""

    def _run(self, tmp_path, series, extra=()):
        paths = []
        for i, s in enumerate(series):
            p = tmp_path / f"row{i}.json"
            p.write_text(
                json.dumps(
                    {"sha": f"c{i}", "order": i, "logic_suite_seconds": s}
                )
            )
            paths.append(str(p))
        return subprocess.run(
            [
                sys.executable,
                str(BENCHMARKS / "trend.py"),
                "--gate",
                *paths,
                *extra,
            ],
            capture_output=True,
            text=True,
        )

    def test_gate_green(self, tmp_path):
        result = self._run(tmp_path, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ok: no sustained regression" in result.stdout

    def test_gate_red(self, tmp_path):
        result = self._run(tmp_path, (1.0, 1.0, 1.0, 1.6, 1.6, 1.6))
        assert result.returncode == 1
        assert "FAIL: logic_suite_seconds" in result.stdout

    def test_too_few_rows_pass(self, tmp_path):
        result = self._run(tmp_path, (1.0, 1.6))
        assert result.returncode == 0
        assert "nothing to compare yet" in result.stdout


class TestCollect:
    """``--collect`` folds the logic benchmark's rows into labelled series."""

    def _collect(self, tmp_path, logic_check):
        out = tmp_path / "row.json"
        result = subprocess.run(
            [
                sys.executable,
                str(BENCHMARKS / "trend.py"),
                "--collect",
                "--logic-check",
                str(logic_check),
                "--batch-telemetry",
                str(tmp_path / "absent.json"),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return json.loads(out.read_text())

    def test_runner_rows_are_preferred(self, tmp_path):
        check = tmp_path / "bench-logic-check.json"
        check.write_text(
            json.dumps(
                {
                    "widths": [{"width": 12, "engine_seconds": 0.5}],
                    "flow_tables": [
                        {"positions": 13, "synthesis_seconds": 0.25}
                    ],
                }
            )
        )
        row = self._collect(tmp_path, check)
        assert row["logic_width_seconds"] == {"12": 0.5}
        assert row["logic_chain_seconds"] == {"13": 0.25}

    def test_committed_baseline_is_the_fallback(self, tmp_path):
        committed = json.loads(
            (BENCHMARKS.parent / "BENCH_logic.json").read_text()
        )
        row = self._collect(tmp_path, tmp_path / "absent.json")
        assert row["logic_chain_seconds"] == {
            str(r["positions"]): r["synthesis_seconds"]
            for r in committed["flow_tables"]
        }

    def test_chain_rows_gate_per_position(self):
        rows = [
            {
                "sha": f"c{i}",
                "logic_chain_seconds": {
                    "9": 0.03,
                    "13": 0.6 if i >= 3 else 0.2,
                },
            }
            for i in range(6)
        ]
        names = [name for name, _, _ in trend.gate_failures(rows)]
        assert names == ["logic_chain_seconds[13]"]
