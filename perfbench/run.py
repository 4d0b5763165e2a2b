"""End-to-end benchmark of the SEANCE/FANTOM reproduction.

    python3 perfbench/run.py --workload synth-cold --seed 0 --seconds 24 \
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each measurement runs in a fresh process (``worker.py``), so peak RSS is
the workload's own and nothing cached carries over between runs.

A workload runs rounds in whole cycles (see ``workloads.py``) and stops
at the cycle that ends nearest ``--seconds``.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; set-up time is the median of five
fresh processes, four that stop after set-up and the measuring one.
The throughputs and latencies of the CPU-bound workloads are in nominal
seconds, corrected for the host's speed (see ``hostspeed.py``); the
human-readable lines show the median correction factor.
``--trace 1`` prints the per-layer metrics as totals over one cycle: it
makes an untraced run and two traced runs of one cycle (the first
writes its spans to ``perfbench/out/``), checks that every count
repeats exactly between the traced runs and that traced synthesis gives
byte-identical results, and reports the tracing overhead as the traced
cycle's seconds minus the untraced run's mean seconds per cycle.  Layer
busy times are wall seconds with the host-speed samples taken out.

The last line of standard output is one JSON object; the exit code is 1
when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes whose set-up time the reported ``setup_s`` is the
#: median of.
SETUP_SAMPLES = 5
#: Every run must end within 180 s; child processes share this budget.
BUDGET_S = 170.0

PASSES = (
    "validate", "reduce", "assign", "outputs", "hazards", "fsv", "factor",
)
STORE_OPS = ("read", "write", "write_if_absent", "delete", "stat", "names")
KERNEL_PATHS = ("ring", "ticks", "calendar", "heap")
SELF_LAYERS = (
    "bench", "api", "pipeline", "netlist", "sim", "store", "service",
)
#: Counts that legitimately differ between runs: stored envelopes and
#: leases carry wall-clock fields (stage timings, lease expiry).
VARIABLE_COUNTS = {"store.bytes_read", "store.bytes_written"}


class BenchError(Exception):
    """A run could not be made; reported without a result line."""


def spawn(deadline: float, workload: str, seed: int, seconds: float,
          *extra: str) -> dict:
    """Run one worker process and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(probes: list[dict], run: dict) -> dict:
    values = {
        "setup_s": statistics.median(
            [p["setup_s"] for p in probes] + [run["setup_s"]]
        )
    }
    for name in ("machines_per_s", "cycles_per_s", "latency_p50_ms",
                 "latency_p90_ms", "peak_rss_mb"):
        values[name] = run[name]
    return values


def per_layer(traced: dict, untraced: dict) -> dict:
    """Layer metrics of a traced run of one cycle, as totals over it."""
    trace = traced["trace"]
    counts: dict[str, float] = {}
    busy: dict[str, float] = {}
    for r in trace["rounds"]:
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, seconds in r["busy"].items():
            busy[name] = busy.get(name, 0.0) + seconds
    setup = trace["setup"]

    def count(name):
        return counts.get(name, 0)

    v = {
        "api.load.calls": count("api.load.calls"),
        "api.load.busy_s": busy.get("api.load", 0.0),
        "setup.api.load.calls": setup["counts"].get("api.load.calls", 0),
        "setup.api.load.busy_s": setup["busy"].get("api.load", 0.0),
        "setup.store.busy_s": sum(
            setup["busy"].get(f"store.{op}", 0.0) for op in STORE_OPS
        ),
    }
    for p in PASSES:
        v[f"pipeline.{p}.busy_s"] = busy.get(f"pipeline.{p}", 0.0)
    for q in ("states", "state_vars", "cover_cubes", "literals"):
        v[f"pipeline.{q}"] = count(f"pipeline.{q}")
    v["netlist.build.busy_s"] = busy.get("netlist.build", 0.0)
    v["netlist.gates"] = count("netlist.gates")
    v["sim.walkgen.busy_s"] = busy.get("sim.walkgen", 0.0)
    v["sim.cell.busy_s"] = busy.get("sim.cell", 0.0)
    for q in ("cells", "cycles", "dirty_cells"):
        v[f"sim.{q}"] = count(f"sim.{q}")
    events = count("sim.kernel.events")
    replayed = count("sim.kernel.replayed_events")
    v["sim.kernel.events"] = events
    v["sim.kernel.replayed_events"] = replayed
    v["sim.kernel.replay_ratio"] = replayed / events if events else 0.0
    for path in KERNEL_PATHS:
        v[f"sim.kernel.path.{path}"] = count(f"sim.kernel.path.{path}")
    for q in ("migrations", "fronts", "front_events"):
        v[f"sim.kernel.{q}"] = count(f"sim.kernel.{q}")
    store_busy = 0.0
    store_calls = 0
    for op in STORE_OPS:
        v[f"store.{op}.calls"] = count(f"store.{op}.calls")
        v[f"store.{op}.busy_s"] = busy.get(f"store.{op}", 0.0)
        v[f"store.{op}.p50_ms"] = trace["p50_ms"].get(f"store.{op}", 0.0)
        store_busy += v[f"store.{op}.busy_s"]
        store_calls += v[f"store.{op}.calls"]
    v["store.bytes_read"] = count("store.bytes_read")
    v["store.bytes_written"] = count("store.bytes_written")
    served = count("service.source.store")
    requests = sum(
        value for name, value in counts.items()
        if name.startswith("service.source.")
    )
    v["store.ops_per_request"] = store_calls / requests if requests else 0.0
    v["store.hit_ratio"] = served / requests if requests else 0.0
    v["transport.retries"] = count("transport.retries")
    v["transport.faults"] = count("transport.faults")
    request_busy = busy.get("service.request", 0.0)
    v["service.request.busy_s"] = request_busy
    v["service.source.store"] = served
    v["service.source.local"] = count("service.source.local")
    v["service.self_s"] = (
        request_busy - store_busy - busy.get("service.pass", 0.0)
        if requests else 0.0
    )
    v["service.store_share"] = store_busy / request_busy if requests else 0.0
    for layer in SELF_LAYERS:
        v[f"selftime.{layer}_s"] = trace["self_s"].get(layer, 0.0)
    # Every cycle does the same work, and the traced run made one.
    traced_s = sum(traced["round_s"])
    untraced_s = (
        sum(untraced["round_s"])
        * len(traced["round_s"])
        / len(untraced["round_s"])
    )
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return v


def repeat_problems(traced: dict, again: dict) -> list[str]:
    """Counts that differ between two traced runs of the same rounds."""
    problems = []
    pairs = zip(traced["trace"]["rounds"], again["trace"]["rounds"])
    for index, (one, two) in enumerate(pairs):
        first, other = (
            {k: v for k, v in r["counts"].items() if k not in VARIABLE_COUNTS}
            for r in (one, two)
        )
        problems += [
            f"round {index}: count {name} differs between runs: "
            f"{first.get(name, 0)} and {other.get(name, 0)}"
            for name in sorted(set(first) | set(other))
            if first.get(name, 0) != other.get(name, 0)
        ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="how long to measure (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    job = (deadline, args.workload, args.seed, args.seconds)
    try:
        if args.trace == 0:
            probes = [
                spawn(*job, "--setup-only") for _ in range(SETUP_SAMPLES - 1)
            ]
            run = spawn(*job)
            runs = [run]
            values = end_to_end(probes, run)
            listed = spec["end_to_end"]
            problems = list(run["problems"])
        else:
            untraced = spawn(*job)
            spans = HERE / "out" / f"{args.workload}-{args.seed}.spans.json"
            # One cycle each: the per-layer figures of two versions of
            # the program then cover the same work however fast each is.
            traced = spawn(
                *job, "--trace", "--cycles", "1", "--spans", str(spans)
            )
            again = spawn(*job, "--trace", "--cycles", "1")
            runs = [untraced, traced, again]
            values = per_layer(traced, untraced)
            listed = spec["per_layer"]
            problems = [p for r in runs for p in r["problems"]]
            problems += repeat_problems(traced, again)
            if traced["digests"] != untraced["digests"]:
                problems.append(
                    "traced pass list gave results that differ from the "
                    "unwrapped pipeline"
                )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    if args.trace == 1:
        print(
            f"{'self time per cycle':32s} "
            + "  ".join(
                f"{layer}={values[f'selftime.{layer}_s']:.4f}s"
                for layer in SELF_LAYERS
            )
        )
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(
        f"{'host factor (median)':32s} "
        + "  ".join(f"{r['host_factor']:.3f}" for r in runs)
    )
    print(
        f"{'error_rate':32s} {failed / attempted:14.6g} fraction "
        f"({failed} of {attempted} items; rounds "
        f"{', '.join(str(r['rounds']) for r in runs)})"
    )
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
