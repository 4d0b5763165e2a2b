"""One workload run in a fresh process; prints one JSON line.

Started by ``run.py``.  Set-up time counts from the moment the parent
spawned this process (``--spawned-at``, a ``time.monotonic`` reading,
which is one clock for every process on the host) to the first timed
round, so it includes interpreter start and imports; like the rounds,
it is in nominal seconds (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def percentile(values, share: float) -> float:
    """The ``share`` quantile (inclusive method) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(share * 100) - 1
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--cycles", type=int, default=0,
        help="run exactly this many cycles of rounds instead of --seconds",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after set-up and report its time",
    )
    parser.add_argument("--spans", type=Path, help="write spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import HostClock
    from tracing import Tracer
    from workloads import WORKLOADS, Layers

    kind = WORKLOADS[args.workload]
    clock = HostClock(correct=kind.cpu_bound)
    tracer = Tracer(now=clock.now) if args.trace else None
    pins = json.loads((HERE / "expected.json").read_text())
    workload = kind(args.seed, Layers(tracer, clock), pins)
    setup_s = time.monotonic() - args.spawned_at
    rounds = []
    try:
        setup_s *= clock.start()
        if not args.setup_only:
            if tracer is not None:
                tracer.end_setup()
            start = cycle_start = time.perf_counter()
            while True:
                rounds.append(workload.round(len(rounds)))
                if tracer is not None:
                    tracer.end_round()
                if len(rounds) % workload.cycle:
                    continue
                if args.cycles:
                    if len(rounds) >= args.cycles * workload.cycle:
                        break
                    continue
                # Stop at the whole cycle that ends nearest --seconds.
                now = time.perf_counter()
                if now - start + (now - cycle_start) / 2 >= args.seconds:
                    break
                cycle_start = now
    finally:
        clock.stop()
        workload.close()

    report = {"setup_s": setup_s}
    if rounds:
        # Round seconds and latencies are nominal seconds (see
        # hostspeed.py).  What correction leaves of the host's noise
        # averages out over many seconds, so the throughputs are the
        # work of every round over their whole time, and the
        # percentiles are over each item's mean latency across the
        # cycles that repeated it.
        seconds = sum(r.seconds for r in rounds)
        repeats: dict = {}
        for r in rounds:
            for item, latency in r.latencies.items():
                repeats.setdefault(item, []).append(latency * 1000)
        latencies = [statistics.fmean(v) for v in repeats.values()]
        digests = {}
        for r in rounds:
            digests.update(r.digests)
        report.update(
            rounds=len(rounds),
            round_s=[r.seconds for r in rounds],
            host_factor=clock.median_factor(),
            machines_per_s=sum(r.machines for r in rounds) / seconds,
            cycles_per_s=sum(r.cycles for r in rounds) / seconds,
            latency_p50_ms=percentile(latencies, 0.5),
            latency_p90_ms=percentile(latencies, 0.9),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            attempted=sum(r.attempted for r in rounds),
            failed=sum(r.failed for r in rounds),
            problems=[p for r in rounds for p in r.problems][:20],
            digests=digests,
        )
    if tracer is not None and rounds:
        report["trace"] = {
            "setup": tracer.setup,
            "rounds": tracer.rounds,
            "self_s": tracer.self_times(),
            "p50_ms": {
                name: tracer.p50_ms(name) for name in tracer.durations
            },
        }
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
