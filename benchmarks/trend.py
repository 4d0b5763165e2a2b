"""Collect, merge, and gate per-commit perf/telemetry rows for CI trending.

The perf gates (``bench_logic --check``, ``bench_sim --check``,
``bench_store --check``) are pass/fail; trending needs the measured
numbers preserved per commit.  This tool has three modes:

``--collect``
    Read the committed ``BENCH_*.json`` baselines plus the current
    run's ``batch-telemetry.json`` (``seance batch --json`` output) and
    ``bench-logic-check.json`` (the rows ``bench_logic --check``
    measured on this runner) and emit **one row** stamped with
    ``--sha``: headline scalars, per-width logic-engine seconds,
    per-position chain-table synthesis seconds, and per-pass batch
    seconds.  CI uploads the row as a per-commit
    artifact (``telemetry-trend-<sha>``).

``--merge ROW...``
    Merge any number of collected rows (downloaded artifacts) and print
    them as a chronology-ordered table, one line per commit — followed
    by per-width and per-pass sub-tables so "which pass/width
    regressed" is a lookup, not a bisect.

``--gate ROW...``
    The scheduled trend gate.  Order the rows chronologically, take the
    median of the newest ``--window`` (default 3) commits for every
    ``*_seconds`` series — including each width and each pass — and
    fail when any of them regressed more than ``--threshold`` (default
    20%) against the median of the older rows.  The median makes one
    noisy runner invisible: it takes a sustained drift, which is
    exactly what the single-commit 2x ``--check`` gates cannot see.

Artifact retention bounds how far back ``--merge``/``--gate`` can see,
so ``--collect --append TREND.jsonl`` additionally appends the row as
one compact JSON line to a rolling committed file; ``--merge`` and
``--gate`` accept ``.jsonl`` files (one row per line) anywhere a row
file is expected, so ``--gate TREND.jsonl`` gates against the full
committed history.

Keeping collection in-repo (rather than ad-hoc CI shell) pins the row
schema: a field rename in a BENCH file breaks this script in CI, not a
dashboard three weeks later.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: source file -> (row field, path into the JSON document)
HEADLINES = {
    "BENCH_pipeline.json": [
        ("pipeline_suite_seconds", ("serial_seconds",)),
        ("pipeline_cache_speedup", ("cache_speedup",)),
    ],
    "BENCH_logic.json": [
        ("logic_suite_seconds", ("suite_seconds",)),
        ("logic_wide_speedup_min", ("wide_speedup_min",)),
    ],
    "BENCH_sim.json": [
        ("sim_campaign_seconds", ("compiled_seconds",)),
        ("sim_campaign_speedup", ("campaign_speedup",)),
        ("sim_ring_seconds", ("ring", "ring_seconds")),
        ("sim_ring_speedup", ("ring", "ring_speedup")),
        # Campaign-tier ring seconds, one sub-series per delay model —
        # scalar ``*_seconds`` fields, so the trend gate guards each
        # model's fast path like every other series.
        ("campaign_loop-safe_seconds", ("campaign", "model_seconds", "loop-safe")),
        ("campaign_skewed_seconds", ("campaign", "model_seconds", "skewed")),
        ("campaign_hostile_seconds", ("campaign", "model_seconds", "hostile")),
        ("campaign_corner_seconds", ("campaign", "model_seconds", "corner")),
    ],
    "BENCH_store.json": [
        ("store_warm_seconds", ("warm_seconds",)),
        ("store_speedup", ("speedup",)),
    ],
}

#: Row fields holding {label: seconds} maps, rendered as sub-tables by
#: ``--merge`` and gated per-label by ``--gate``.
SERIES_FIELDS = (
    "logic_width_seconds",
    "logic_chain_seconds",
    "batch_pass_seconds",
    "corpus_family_seconds",
)


def _dig(document, path):
    value = document
    for part in path:
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _logic_rows(args, key: str, label: str, value: str) -> dict[str, float]:
    """``{label: value}`` over the ``key`` rows of a logic benchmark: prefer
    the rows ``bench_logic --check`` measured on *this* runner; fall back
    to the committed baseline."""
    for path in (Path(args.logic_check), ROOT / "BENCH_logic.json"):
        if not path.is_file():
            continue
        rows = json.loads(path.read_text()).get(key) or []
        out = {str(r[label]): r[value] for r in rows if value in r}
        if out:
            return out
    return {}


def collect(args) -> int:
    row = {"sha": args.sha}
    if args.order is not None:
        row["order"] = args.order
    for name, fields in HEADLINES.items():
        path = ROOT / name
        if not path.is_file():
            continue
        document = json.loads(path.read_text())
        for field, keys in fields:
            value = _dig(document, keys)
            if value is not None:
                row[field] = value
    for field, key, label, value in (
        ("logic_width_seconds", "widths", "width", "engine_seconds"),
        ("logic_chain_seconds", "flow_tables", "positions", "synthesis_seconds"),
    ):
        series = _logic_rows(args, key, label, value)
        if series:
            row[field] = series
    smoke = Path(args.service_smoke)
    if smoke.is_file():
        # The clean service-smoke leg's wall clock (the chaos leg's is
        # fault-budget noise, not a perf signal — CI only passes the
        # clean leg's timing file here).  As a ``*_seconds`` field it
        # is auto-gated like every other series.
        document = json.loads(smoke.read_text())
        seconds = document.get("service_smoke_seconds")
        if isinstance(seconds, (int, float)):
            row["service_smoke_seconds"] = seconds
    fuzz = Path(args.corpus_fuzz)
    if fuzz.is_file():
        # The CI corpus-smoke fuzz sweep (`seance fuzz --timing`):
        # total wall clock as a gated ``*_seconds`` scalar, the
        # per-family split as a gated labelled series, and the corpus
        # size as ungated context so a seconds drift can be read
        # against a corpus-size change.
        document = json.loads(fuzz.read_text())
        seconds = document.get("corpus_fuzz_seconds")
        if isinstance(seconds, (int, float)):
            row["corpus_fuzz_seconds"] = seconds
        machines = document.get("corpus_fuzz_machines")
        if isinstance(machines, int):
            row["corpus_fuzz_machines"] = machines
        family = document.get("family_seconds")
        if isinstance(family, dict) and family:
            row["corpus_family_seconds"] = {
                label: round(float(value), 6)
                for label, value in sorted(family.items())
            }
    telemetry = Path(args.batch_telemetry)
    if telemetry.is_file():
        items = json.loads(telemetry.read_text())
        per_pass: dict[str, float] = {}
        for item in items:
            for event in item.get("passes", []):
                per_pass[event["name"]] = (
                    per_pass.get(event["name"], 0.0) + event["seconds"]
                )
        row["batch_pass_seconds"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(per_pass.items())
        }
        row["batch_store_hits"] = sum(
            1 for item in items if item.get("store_hit")
        )
    Path(args.out).write_text(json.dumps(row, indent=2) + "\n")
    print(f"wrote {args.out} ({len(row) - 1} field(s))")
    if args.append:
        with Path(args.append).open("a") as stream:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended row to {args.append}")
    return 0


def _load_rows(path) -> list[dict]:
    """One row per ``.json`` file; one row per line of a ``.jsonl``."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
    return [json.loads(path.read_text())]


def ordered_rows(paths) -> list[dict]:
    """Load rows; sort by the ``order`` stamp when every row has one,
    otherwise trust the argument order (oldest first)."""
    rows = [row for path in paths for row in _load_rows(path)]
    if rows and all("order" in row for row in rows):
        rows.sort(key=lambda row: row["order"])
    return rows


def _print_table(header: list[str], lines: list[list[str]]) -> None:
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(header, *lines)
    ]
    for cells in [header, *lines]:
        print(
            "  ".join(
                f"{str(cell):>{width}s}"
                for cell, width in zip(cells, widths)
            )
        )


def _series_table(rows: list[dict], field: str, title: str) -> None:
    labels = sorted(
        {label for row in rows for label in row.get(field, {})},
        key=lambda s: (len(s), s),
    )
    if not labels:
        return
    print(f"\n{title}:")
    lines = []
    for row in rows:
        series = row.get(field, {})
        lines.append(
            [str(row.get("sha", "?"))[:12]]
            + [
                "-" if label not in series else f"{series[label]:.4f}"
                for label in labels
            ]
        )
    _print_table(["sha"] + labels, lines)


def merge(args) -> int:
    rows = ordered_rows(args.rows)
    fields = sorted(
        {
            field
            for row in rows
            for field in row
            if field not in ("sha", "order", *SERIES_FIELDS)
        }
    )
    lines = [
        [str(row.get("sha", "?"))[:12]]
        + [
            "-" if row.get(field) is None else f"{row[field]}"
            for field in fields
        ]
        for row in rows
    ]
    _print_table(["sha"] + fields, lines)
    _series_table(rows, "logic_width_seconds", "logic engine seconds by width")
    _series_table(
        rows, "logic_chain_seconds", "chain-table synthesis seconds by positions"
    )
    _series_table(rows, "batch_pass_seconds", "batch seconds by pass")
    _series_table(
        rows, "corpus_family_seconds", "corpus fuzz seconds by family"
    )
    return 0


def _gate_series(rows: list[dict]) -> dict[str, list[float]]:
    """Every gated time series in the rows: scalar ``*_seconds`` fields
    plus each labelled entry of the per-width/per-pass maps.  Rows that
    miss a point simply contribute nothing to that series."""
    series: dict[str, list[float]] = {}
    for row in rows:
        for field, value in row.items():
            if field in SERIES_FIELDS:
                for label, seconds in value.items():
                    series.setdefault(f"{field}[{label}]", []).append(
                        float(seconds)
                    )
            elif field.endswith("_seconds") and isinstance(
                value, (int, float)
            ):
                series.setdefault(field, []).append(float(value))
    return series


def gate_failures(
    rows: list[dict], window: int = 3, threshold: float = 0.20
) -> list[tuple[str, float, float]]:
    """``(series, recent_median, baseline_median)`` for every time
    series whose median over the newest ``window`` rows exceeds the
    median of the older rows by more than ``threshold``.

    Rows must be oldest-first.  Series without at least ``window``
    recent points *and* one older point are skipped — a brand-new
    benchmark tier cannot fail the gate until it has history.
    """
    failures = []
    recent_rows, older_rows = rows[-window:], rows[:-window]
    older = _gate_series(older_rows)
    recent = _gate_series(recent_rows)
    for name, points in sorted(recent.items()):
        baseline = older.get(name, [])
        if len(points) < window or not baseline:
            continue
        recent_median = statistics.median(points)
        baseline_median = statistics.median(baseline)
        if baseline_median > 0 and (
            recent_median > baseline_median * (1.0 + threshold)
        ):
            failures.append((name, recent_median, baseline_median))
    return failures


def gate(args) -> int:
    rows = ordered_rows(args.rows)
    if len(rows) <= args.window:
        print(
            f"trend gate: only {len(rows)} row(s) for a window of "
            f"{args.window} — nothing to compare yet, passing"
        )
        return 0
    failures = gate_failures(rows, args.window, args.threshold)
    print(
        f"trend gate: {len(rows)} rows, window {args.window}, "
        f"threshold {args.threshold:.0%}"
    )
    for name, recent_median, baseline_median in failures:
        print(
            f"FAIL: {name} median {recent_median:.4f}s over the last "
            f"{args.window} commits vs {baseline_median:.4f}s before "
            f"({recent_median / baseline_median - 1.0:+.0%})"
        )
    if failures:
        return 1
    print("ok: no sustained regression")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--collect", action="store_true",
        help="emit one per-commit telemetry row",
    )
    mode.add_argument(
        "--merge",
        dest="rows",
        nargs="+",
        metavar="ROW.json",
        help="merge collected rows into a cross-commit trend table",
    )
    mode.add_argument(
        "--gate",
        dest="gate_rows",
        nargs="+",
        metavar="ROW.json",
        help="fail on a sustained median regression across rows",
    )
    parser.add_argument("--sha", default="local", help="commit id stamp")
    parser.add_argument(
        "--order",
        type=int,
        default=None,
        help="monotonic ordering stamp (e.g. the CI run number)",
    )
    parser.add_argument(
        "--batch-telemetry",
        default="batch-telemetry.json",
        help="a `seance batch --json` capture to fold in",
    )
    parser.add_argument(
        "--logic-check",
        default="bench-logic-check.json",
        help="a `bench_logic --check` capture of per-width and "
        "chain-table rows",
    )
    parser.add_argument(
        "--service-smoke",
        default="service-smoke-timing.json",
        help="a `service_smoke.py --timing` capture (clean leg) whose "
        "wall clock is folded in as service_smoke_seconds",
    )
    parser.add_argument(
        "--corpus-fuzz",
        default="corpus-fuzz-timing.json",
        help="a `seance fuzz --timing` capture whose wall clock and "
        "per-family seconds are folded in as corpus_fuzz_seconds / "
        "corpus_family_seconds",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=3,
        help="--gate: number of newest commits to take the median over",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="--gate: fractional regression that fails the gate",
    )
    parser.add_argument("--out", default="telemetry-trend.json")
    parser.add_argument(
        "--append",
        metavar="TREND.jsonl",
        default=None,
        help="--collect: also append the row as one line to a rolling "
        "committed JSONL file",
    )
    args = parser.parse_args()
    if args.gate_rows:
        args.rows = args.gate_rows
        return gate(args)
    return collect(args) if args.collect else merge(args)


if __name__ == "__main__":
    raise SystemExit(main())
