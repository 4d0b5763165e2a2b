"""Regenerate ``expected.json``: the pinned outputs of every input a
benchmark seed can pick.

    python3 perfbench/pins.py

Synthesis pins hold each result's canonical digest and the outcome of
its unit-delay check walk.  Campaign pins hold each cell's cycle count
and whether it ran clean; every cell is run on the default kernel and
on the compiled heap kernel, and the two must agree before anything is
written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import api
    from repro.assign.verify import is_valid_ustt
    from repro.bench.suite import benchmark_names
    from repro.netlist.fantom import build_fantom
    from repro.sim import (
        DELAY_MODELS,
        ENGINES,
        ValidationCampaign,
        default_engine,
        random_legal_walk,
        validate_walk,
    )
    from repro.sim.harness import expected_walk

    import workloads as w

    plain = api.SynthesisOptions(minimize=False)
    sources = (
        [(name, name, None) for name in benchmark_names()]
        + [(t.name, t, plain) for t in map(w.chain_table, w.CHAIN_POSITIONS)]
        + [(key, key, None) for key in w.synth_pool_keys()]
    )
    synth = {}
    for name, source, options in sources:
        result = api.synthesize(source, options)
        if not is_valid_ustt(result.table, result.assignment.encoding):
            raise SystemExit(f"{name}: assignment is not a valid USTT")
        synth[name] = {
            "digest": w.result_digest(result),
            "walk": w.check_walk(w.Layers(), result)[1],
        }

    def machines():
        return [
            build_fantom(api.synthesize(name)) for name in w.CAMPAIGN_MACHINES
        ]

    engines = (default_engine(), "compiled")
    grid = {}
    for base in range(0, w.GRID_POOL, w.GRID_SWEEP):
        outcomes = []
        for engine in engines:
            result = ValidationCampaign(
                sweep=w.GRID_SWEEP,
                steps=w.GRID_STEPS,
                delay_models=tuple(DELAY_MODELS),
                base_seed=base,
                engine=engine,
            ).run_machines(machines())
            outcomes.append(
                {
                    f"{c.table}/{c.model}/{c.seed}": [c.summary.total, c.clean]
                    for c in result.cells
                }
            )
        if outcomes[0] != outcomes[1]:
            raise SystemExit(f"grid seeds from {base}: kernels disagree")
        grid.update(outcomes[0])

    offgrid = {}
    for machine in machines():
        table = machine.result.table
        for seed in range(w.OFFGRID_POOL):
            walk = random_legal_walk(table, w.OFFGRID_STEPS, seed=seed)
            expected = expected_walk(table, walk)
            cells = [
                validate_walk(
                    machine,
                    walk,
                    delays=w.offgrid_delays(seed),
                    simulator_factory=ENGINES[engine],
                    expected=expected,
                )
                for engine in engines
            ]
            pins = [[s.total, s.all_clean] for s in cells]
            if pins[0] != pins[1]:
                raise SystemExit(f"{table.name}/{seed}: kernels disagree")
            offgrid[f"{table.name}/{seed}"] = pins[0]

    payload = {"synth": synth, "grid": grid, "offgrid": offgrid}
    (HERE / "expected.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    dirty = sorted(k for k, v in {**grid, **offgrid}.items() if not v[1])
    unbuilt = sorted(k for k, v in synth.items() if len(v["walk"]) == 1)
    print(
        f"pinned {len(synth)} results, {len(grid)} grid and {len(offgrid)} "
        f"off-grid cells\ndirty cells: {', '.join(dirty)}\n"
        f"no FANTOM machine: {', '.join(unbuilt)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
