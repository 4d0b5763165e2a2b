"""The four benchmark workloads, each built from the benchmark seed.

A workload does its set-up in ``__init__`` (input generation, store
start and seeding) and then runs *rounds* in whole cycles of ``cycle``
rounds; every cycle does the same work.  Every round starts from cold
machines, so no stage cache, netlist plan cache or segment memo carries
from one round to the next.  Outputs are checked outside
the timed part of a round against pins committed in ``expected.json``
(see ``pins.py``) or, for the service, against an in-process batch of
the same tables.

Every call into the program goes through :class:`Layers`, which hands
out the public entry points either directly or wrapped for tracing, and
every timed interval goes through a :class:`~hostspeed.HostClock`,
which for the CPU-bound workloads reports it in nominal seconds.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import api
from repro.api import PassManager, PipelineSpec, ResultStore, SynthesisOptions
from repro.assign.verify import is_valid_ustt
from repro.bench.suite import _chain_machine, benchmark_names
from repro.corpus import FAMILIES, make_key
from repro.core.result import SynthesisResult
from repro.core.serialize import canonical_result_dict
from repro.errors import NetlistError
from repro.netlist.fantom import build_fantom
from repro.pipeline.passes import default_passes
from repro.service import FakeObjectStoreServer, ServiceClient, SynthesisServer
from repro.sim import (
    DELAY_MODELS,
    ENGINES,
    RandomDelay,
    UnitDelay,
    ValidationCampaign,
    default_engine,
    random_legal_walk,
    validate_walk,
)
import repro.sim.campaign as sim_campaign
from repro.sim.harness import expected_walk
from repro.store.canonical import canonical_batch_payload, canonical_json
from repro.store.keys import synthesis_key
from repro.store.net import ObjectStoreBackend

from hostspeed import HostClock
from tracing import TimedBackend, TimedPass, traced, traced_validate_walk

# ----------------------------------------------------------------------
# Workload composition (expected.json pins every input a seed can pick)
# ----------------------------------------------------------------------
#: synth-cold: enlarged corpus families, as (family, parameters, pool
#: size, rows per round).  At default parameters corpus keys reduce to
#: one state; at these sizes their rows are dominated by ``reduce``.
#: The shares place the percentiles inside a class of rows: the median
#: among the random-flow rows, the 90th percentile among the slower
#: protocol-ring rows, below the chain rows, train11 and the random-stg
#: tail.
SYNTH_FAMILIES = (
    ("random-flow", {"states": 16, "inputs": 5}, 128, 64),
    ("protocol-ring", {"stations": 16}, 64, 24),
    ("random-stg", {"phases": 12, "inputs": 4}, 64, 11),
)
#: The state-assignment cliff rows of BENCH_logic.json (minimize=False).
CHAIN_POSITIONS = (13, 14, 15)
CHAIN_SEED = 20260729
#: Steps of the unit-delay FANTOM walk that validates a result.
CHECK_WALK_STEPS = 16

CAMPAIGN_MACHINES = ("lion9", "train11")
#: Walk seeds come in groups of ``sweep``; a round walks one group and a
#: run walks ``groups`` of the pool's groups, chosen by the seed, in
#: whole cycles, so every run of a workload does the same amount of
#: walking whatever the seed.
GRID_SWEEP, GRID_STEPS, GRID_POOL, GRID_GROUPS = 3, 800, 48, 4
OFFGRID_SWEEP, OFFGRID_STEPS, OFFGRID_POOL, OFFGRID_GROUPS = 27, 150, 135, 2
#: The fuzz loop's ``loop-safe-offgrid`` draw: no dyadic grid, so the
#: ring kernel cannot negotiate a tick quantum.
OFFGRID_GATES, OFFGRID_FFS = (1.5, 2.5), (0.2, 1.0)

SERVICE_PER_FAMILY = 12
SERVICE_CLIENTS = 2


def chain_table(positions: int):
    """The ``rand<positions>`` chain table of ``benchmarks/bench_logic.py``."""
    rng = random.Random(CHAIN_SEED * 1000 + 499 + positions)
    zones = [rng.randint(0, 1) for _ in range(positions + 1)]
    jumps = [rng.random() < 0.5 for _ in range(positions + 1)]
    return _chain_machine(
        f"rand{positions}",
        num_positions=positions,
        z_of=lambda k: zones[k],
        jump_from=lambda k: jumps[k],
        resync=None,
    )


def synth_pool_keys() -> list[str]:
    return [
        str(make_key(family, seed, params))
        for family, params, pool, _rows in SYNTH_FAMILIES
        for seed in range(pool)
    ]


def result_digest(result) -> str:
    """sha256 of a result's canonical (timing-free) JSON form."""
    text = canonical_json(canonical_result_dict(result.to_dict()))
    return hashlib.sha256(text.encode()).hexdigest()


def offgrid_delays(seed: int) -> RandomDelay:
    return RandomDelay(
        seed, gate_range=OFFGRID_GATES, ff_range=OFFGRID_FFS, grid_bits=None
    )


def check_walk(layers, result) -> tuple[int, list]:
    """Build the FANTOM machine and score a short unit-delay walk.

    Returns the walk's cycles and its outcome as pinned: ``[cycles,
    clean]``, or ``[error type]`` when the machine cannot be built (a
    pinned, known outcome for a few corpus tables, not a benchmark
    failure).
    """
    try:
        machine = layers.build_fantom(result)
    except NetlistError as error:
        return 0, [type(error).__name__]
    walk = layers.random_legal_walk(result.table, CHECK_WALK_STEPS, seed=0)
    summary = layers.validate_walk(
        machine,
        walk,
        delays=UnitDelay(),
        simulator_factory=ENGINES[default_engine()],
    )
    return summary.total, [summary.total, summary.all_clean]


# ----------------------------------------------------------------------
# Entry points, direct or traced
# ----------------------------------------------------------------------
class Layers:
    """The program's public entry points as the workloads call them.

    With a tracer, each is wrapped to record spans and counts at its
    layer boundary, and synthesis runs a :class:`PassManager` over the
    default passes wrapped in :class:`TimedPass`.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = HostClock(correct=False) if clock is None else clock
        self.load_table = api.load_table
        self.validate_walk = validate_walk
        self.random_legal_walk = random_legal_walk
        self.expected_walk = expected_walk
        self._manager = None
        if tracer is None:
            return
        self.load_table = traced(api.load_table, tracer, "api.load")
        self.validate_walk = traced_validate_walk(validate_walk, tracer)
        self.random_legal_walk = traced(
            random_legal_walk, tracer, "sim.walkgen"
        )
        self.expected_walk = traced(expected_walk, tracer, "sim.walkgen")
        self._manager = PassManager(
            passes=[TimedPass(p, tracer) for p in default_passes()]
        )

    @contextmanager
    def span(self, name: str, item=None):
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name, item):
                yield

    def synthesize(self, source, options=None):
        if self._manager is None:
            return api.synthesize(source, options)
        result = self._manager.run(self.load_table(source), options)
        self.observe(result)
        return result

    def build_fantom(self, result):
        if self.tracer is None:
            return build_fantom(result)
        with self.tracer.span("netlist.build"):
            machine = build_fantom(result)
        self.tracer.count("netlist.gates", machine.netlist.gate_count())
        return machine

    def observe(self, result) -> None:
        """Count a result's quality: states, state variables, cubes and
        literals of every synthesised cover."""
        if self.tracer is None:
            return
        covers = result.covers().values()
        count = self.tracer.count
        count("pipeline.states", result.table.num_states)
        count("pipeline.state_vars", result.assignment.encoding.num_variables)
        count("pipeline.cover_cubes", sum(len(cover) for cover in covers))
        count(
            "pipeline.literals",
            sum(cube.num_literals for cover in covers for cube in cover),
        )

    @contextmanager
    def campaign_hooks(self, validate_walk):
        """Route the campaign's own walk generation through these entry
        points and its cell runs through ``validate_walk`` for the
        duration of the block."""
        hooks = {
            "random_legal_walk": self.random_legal_walk,
            "expected_walk": self.expected_walk,
            "validate_walk": validate_walk,
        }
        saved = {name: getattr(sim_campaign, name) for name in hooks}
        for name, function in hooks.items():
            setattr(sim_campaign, name, function)
        try:
            yield
        finally:
            for name, function in saved.items():
                setattr(sim_campaign, name, function)


@dataclass
class Round:
    """What one round did: timed seconds, work counts and check results.

    ``latencies`` holds one latency per item (a synthesis, a validation
    cell, a walk, a submit), keyed by the item.
    """

    seconds: float = 0.0
    machines: int = 0
    cycles: int = 0
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# ----------------------------------------------------------------------
class SynthCold:
    """Serial synthesis, no stage cache and no store, of the paper suite,
    the chain rows and a seeded draw of enlarged corpus keys."""

    cycle = 1
    cpu_bound = True

    def __init__(self, seed: int, layers: Layers, pins: dict):
        self.layers = layers
        self.pins = pins["synth"]
        rng = random.Random(f"synth-cold:{seed}")
        corpus = [
            str(make_key(family, pool_seed, params))
            for family, params, pool, rows in SYNTH_FAMILIES
            for pool_seed in sorted(rng.sample(range(pool), rows))
        ]
        plain = SynthesisOptions(minimize=False)
        self.items = (
            [(name, name, None) for name in benchmark_names()]
            + [
                (table.name, table, plain)
                for table in map(chain_table, CHAIN_POSITIONS)
            ]
            + [(key, key, None) for key in corpus]
        )
        rng.shuffle(self.items)

    def round(self, index: int) -> Round:
        out = Round()
        layers = self.layers
        for name, source, options in self.items:
            with layers.clock.timed() as item, layers.span("bench.item", name):
                with layers.clock.timed() as synthesis:
                    result = layers.synthesize(source, options)
                cycles, walk = check_walk(layers, result)
            out.seconds += item.seconds
            out.latencies[name] = synthesis.seconds
            out.machines += 1
            out.cycles += cycles
            out.attempted += 1
            self._check(out, name, result, walk)
        return out

    def _check(self, out: Round, name: str, result, walk) -> None:
        pin = self.pins.get(name)
        digest = result_digest(result)
        out.digests[name] = digest
        if pin is None:
            out.fail(f"{name}: no pin")
        elif digest != pin["digest"]:
            out.fail(f"{name}: result digest {digest[:12]} != pinned")
        elif not is_valid_ustt(result.table, result.assignment.encoding):
            out.fail(f"{name}: assignment is not a valid USTT")
        elif walk != pin["walk"]:
            out.fail(f"{name}: check walk {walk}, pinned {pin['walk']}")

    def close(self) -> None:
        pass


class _Campaign:
    """Shared shape of the two campaign workloads: synthesise lion9 and
    train11, build their FANTOM machines, then validate walks."""

    sweep: int
    pool: int
    cycle: int
    cpu_bound = True

    def __init__(self, seed: int, layers: Layers, pins: dict):
        self.layers = layers
        self.pins = pins[self.pin_key]
        self.synth_pins = pins["synth"]
        self.groups = random.Random(f"{self.pin_key}:{seed}").sample(
            range(self.pool // self.sweep), self.cycle
        )

    def seeds(self, index: int) -> range:
        group = self.groups[index % self.cycle]
        return range(group * self.sweep, (group + 1) * self.sweep)

    def round(self, index: int) -> Round:
        out = Round()
        layers = self.layers
        span = layers.span("bench.round", f"round{index}")
        with layers.clock.timed() as timed, span:
            results = [layers.synthesize(name) for name in CAMPAIGN_MACHINES]
            machines = [layers.build_fantom(result) for result in results]
            cells = self.validate(machines, self.seeds(index))
        out.seconds = timed.seconds
        out.machines = len(machines)
        for name, result in zip(CAMPAIGN_MACHINES, results):
            out.attempted += 1
            digest = out.digests[name] = result_digest(result)
            if digest != self.synth_pins[name]["digest"]:
                out.fail(f"{name}: result digest {digest[:12]} != pinned")
        for cell, cycles, clean, seconds in cells:
            out.attempted += 1
            out.cycles += cycles
            out.latencies[cell] = seconds
            if [cycles, clean] != self.pins.get(cell):
                out.fail(
                    f"{cell}: {cycles} cycles clean={clean}, pinned "
                    f"{self.pins.get(cell)}"
                )
        return out

    def close(self) -> None:
        pass


class CampaignGrid(_Campaign):
    """``ValidationCampaign`` over every built-in delay model: the
    ``seance validate`` path, replay-hot on the tick grid."""

    pin_key, sweep, pool, cycle = "grid", GRID_SWEEP, GRID_POOL, GRID_GROUPS

    def validate(self, machines, seeds):
        layers = self.layers
        campaign = ValidationCampaign(
            sweep=len(seeds),
            steps=GRID_STEPS,
            delay_models=tuple(DELAY_MODELS),
            base_seed=seeds[0],
        )
        # Without a store every cell runs, in the order of result.cells.
        latencies = []

        def timed_walk(*args, **kwargs):
            with layers.clock.timed() as cell:
                summary = layers.validate_walk(*args, **kwargs)
            latencies.append(cell.seconds)
            return summary

        with layers.campaign_hooks(timed_walk):
            result = campaign.run_machines(machines)
        return [
            (
                f"{cell.table}/{cell.model}/{cell.seed}",
                cell.summary.total,
                cell.clean,
                latency,
            )
            for cell, latency in zip(result.cells, latencies, strict=True)
        ]


class CampaignOffgrid(_Campaign):
    """The same machines walked under off-grid random delays through
    ``validate_walk``: no tick quantum, so segment replay never runs."""

    pin_key = "offgrid"
    sweep, pool, cycle = OFFGRID_SWEEP, OFFGRID_POOL, OFFGRID_GROUPS

    def validate(self, machines, seeds):
        layers = self.layers
        factory = ENGINES[default_engine()]
        cells = []
        for machine in machines:
            table = machine.result.table
            for seed in seeds:
                walk = layers.random_legal_walk(
                    table, OFFGRID_STEPS, seed=seed
                )
                expected = layers.expected_walk(table, walk)
                with layers.clock.timed() as cell:
                    summary = layers.validate_walk(
                        machine,
                        walk,
                        delays=offgrid_delays(seed),
                        simulator_factory=factory,
                        expected=expected,
                    )
                cells.append(
                    (
                        f"{table.name}/{seed}",
                        summary.total,
                        summary.all_clean,
                        cell.seconds,
                    )
                )
        return cells


class ServiceMixed:
    """A closed loop of clients against the front door over a fake
    object store, two thirds of the tables already stored.  Its time is
    mostly the store's network round trips, which do not scale with the
    host's CPU speed, so it is timed in plain wall seconds."""

    cycle = 1
    cpu_bound = False

    def __init__(self, seed: int, layers: Layers, pins: dict):
        self.layers = layers
        tracer = layers.tracer
        rng = random.Random(f"service-mixed:{seed}")
        keys = [
            str(make_key(family, rng.randrange(1 << 30)))
            for family in sorted(FAMILIES)
            for _ in range(SERVICE_PER_FAMILY)
        ]
        rng.shuffle(keys)
        self.tables = [layers.load_table(key) for key in keys]
        self.seeded = [i % 3 != 2 for i in range(len(self.tables))]
        self.spec = PipelineSpec()
        self.fake = FakeObjectStoreServer().start()
        self.server = None
        try:
            #: Resets the store between rounds, outside the traced backend.
            self.raw = ObjectStoreBackend(self.fake.url)
            self.transport = ObjectStoreBackend(self.fake.url)
            front = (
                self.transport
                if tracer is None
                else TimedBackend(self.transport, tracer)
            )
            store = ResultStore(front)
            for table, seeded in zip(self.tables, self.seeded):
                if seeded:
                    result = api.synthesize(table)
                    store.put_synthesis(table, self.spec, result)
            self.server = SynthesisServer(store, jobs=SERVICE_CLIENTS).start()
        except BaseException:
            self.close()
            raise
        self.expected = None

    def _item(self, client, index: int):
        layers = self.layers
        table = self.tables[index]
        with layers.span("bench.item", table.name):
            start = time.perf_counter()
            with layers.span("service.request"):
                outcome = client.submit(table)
            latency = time.perf_counter() - start
            cycles = 0
            if outcome["ok"]:
                result = SynthesisResult.from_dict(outcome["result"])
                layers.observe(result)
                cycles, _walk = check_walk(layers, result)
        if layers.tracer is not None:
            count = layers.tracer.count
            count(f"service.source.{outcome['source']}")
            layers.tracer.add_time(
                "service.pass",
                sum(seconds for _name, seconds, _hit in outcome["events"]),
            )
        return outcome, latency, cycles

    def round(self, index: int) -> Round:
        out = Round()
        pending = iter(range(len(self.tables)))
        lock = threading.Lock()
        outcomes: dict[int, tuple] = {}

        def client_loop(client_id: int) -> None:
            client = ServiceClient(
                self.server.url, client_id=f"bench-{client_id}"
            )
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                outcomes[index] = self._item(client, index)

        before = self._transport_totals()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=SERVICE_CLIENTS) as pool:
            futures = [
                pool.submit(client_loop, i) for i in range(SERVICE_CLIENTS)
            ]
            for future in futures:
                future.result()
        out.seconds = time.perf_counter() - start
        if self.layers.tracer is not None:
            for name, total in self._transport_totals().items():
                self.layers.tracer.count(name, total - before[name])

        if self.expected is None:
            self.expected = [
                canonical_json(item)
                for item in canonical_batch_payload(api.batch(self.tables))
            ]
        served = ServiceClient.canonical_items(
            [outcomes[i][0] for i in range(len(self.tables))]
        )
        for i, (_outcome, latency, cycles) in sorted(outcomes.items()):
            out.attempted += 1
            out.machines += 1
            out.latencies[self.tables[i].name] = latency
            out.cycles += cycles
            if canonical_json(served[i]) != self.expected[i]:
                out.fail(
                    f"{self.tables[i].name}: served result differs from batch"
                )
        self._reset()
        return out

    def _transport_totals(self) -> dict:
        telemetry = self.transport.telemetry
        return {
            "transport.retries": telemetry.total("retries"),
            "transport.faults": telemetry.total("faults"),
        }

    def _reset(self) -> None:
        """Forget what the round's misses stored, so every round starts
        from the same store contents."""
        for table, seeded in zip(self.tables, self.seeded):
            if not seeded:
                self.raw.delete(synthesis_key(table, self.spec).blob_name)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.fake.stop()


WORKLOADS = {
    "synth-cold": SynthCold,
    "campaign-grid": CampaignGrid,
    "campaign-offgrid": CampaignOffgrid,
    "service-mixed": ServiceMixed,
}
