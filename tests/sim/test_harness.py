"""Integration tests: gate-level FANTOM machines against the oracle."""

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.bench import benchmark
from repro.errors import SimulationError
from repro.flowtable.builder import FlowTableBuilder
from repro.netlist.fantom import build_fantom
from repro.sim.delays import loop_safe_random, skewed_random
from repro.sim.harness import (
    FantomHarness,
    random_legal_walk,
    validate_against_reference,
)
from repro.sim.reference import FlowTableInterpreter


class TestReferenceInterpreter:
    def test_follows_table(self):
        table = benchmark("hazard_demo")
        ref = FlowTableInterpreter(table)
        assert ref.state == "off"
        step = ref.apply(table.column_of("11"))
        assert step.state == "on"
        assert step.outputs == (1,)

    def test_illegal_input_raises(self):
        table = benchmark("lion")  # out@01 unspecified
        ref = FlowTableInterpreter(table)
        with pytest.raises(SimulationError):
            ref.apply(table.column_of("01"))

    def test_legal_columns(self):
        table = benchmark("hazard_demo")
        ref = FlowTableInterpreter(table)
        assert set(ref.legal_columns()) == set(range(4))

    def test_oscillation_detected(self):
        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b")
        b.add("b", "1", "a")  # a <-> b oscillation under x=1
        b.stable("b", "0", "1")
        table = b.build(check=False)
        ref = FlowTableInterpreter(table, state="a")
        with pytest.raises(SimulationError):
            ref.apply(1)


class TestRandomWalk:
    def test_walk_is_legal(self):
        table = benchmark("lion")
        walk = random_legal_walk(table, steps=40, seed=3)
        ref = FlowTableInterpreter(table)
        for column in walk:  # must not raise
            ref.apply(column)

    def test_walk_contains_multi_input_changes(self):
        table = benchmark("lion")
        walk = random_legal_walk(table, steps=60, seed=1)
        ref = FlowTableInterpreter(table)
        current = ref.stable_column()
        mic = 0
        for column in walk:
            if (column ^ current).bit_count() >= 2:
                mic += 1
            ref.apply(column)
            current = column
        assert mic > 5

    def test_walk_deterministic_per_seed(self):
        table = benchmark("lion")
        assert random_legal_walk(table, 20, seed=5) == random_legal_walk(
            table, 20, seed=5
        )


class TestSingleHandshake:
    def test_one_cycle_hazard_demo(self):
        machine = build_fantom(synthesize(benchmark("hazard_demo")))
        harness = FantomHarness(machine, delays=loop_safe_random(0))
        state, outputs = harness.apply(
            machine.result.table.column_of("11")
        )
        assert state == "on"
        assert outputs == (1,)

    def test_like_successive_inputs_complete_handshake(self):
        # Re-applying the resting vector must still hand-shake (the
        # paper's extension of the SI model, Section 3).
        machine = build_fantom(synthesize(benchmark("hazard_demo")))
        harness = FantomHarness(machine, delays=loop_safe_random(1))
        column = machine.reset_column()
        state1, _ = harness.apply(column)
        state2, _ = harness.apply(column)
        assert state1 == state2 == machine.reset_state()
        assert harness.cycle_count == 2

    def test_hazard_detected_cycle_still_correct(self):
        # drive the machine onto its hazard-marked point: off resting at
        # 01, inputs settle at 11 -> fsv must fire and the machine must
        # still land in 'on'.
        machine = build_fantom(synthesize(benchmark("hazard_demo")))
        table = machine.result.table
        harness = FantomHarness(machine, delays=loop_safe_random(2))
        harness.apply(table.column_of("01"))
        state, outputs = harness.apply(table.column_of("11"))
        assert state == "on"
        assert outputs == (1,)


class TestValidation:
    @pytest.mark.parametrize(
        "name",
        ["hazard_demo", "lion", "test_example", "traffic", "dme",
         "parity", "train4"],
    )
    def test_fantom_clean_under_loop_safe_delays(self, name):
        machine = build_fantom(synthesize(benchmark(name)))
        summary = validate_against_reference(
            machine, steps=20, seeds=(0, 1)
        )
        assert summary.all_clean, summary.describe()

    @pytest.mark.parametrize("name", ["hazard_demo", "lion"])
    def test_fantom_clean_under_skewed_delays(self, name):
        machine = build_fantom(synthesize(benchmark(name)))
        summary = validate_against_reference(
            machine, steps=20, seeds=(0, 1, 2), delays_factory=skewed_random
        )
        assert summary.all_clean, summary.describe()

    def test_naive_machine_fails_under_skew(self):
        """The ablation: without the fsv correction the machine breaks."""
        table = benchmark("hazard_demo")
        naive = build_fantom(
            synthesize(table, SynthesisOptions(hazard_correction=False))
        )
        summary = validate_against_reference(
            naive, steps=25, seeds=(0, 1, 2), delays_factory=skewed_random
        )
        assert not summary.all_clean

    def test_summary_accounting(self):
        machine = build_fantom(synthesize(benchmark("hazard_demo")))
        summary = validate_against_reference(machine, steps=5, seeds=(0,))
        assert summary.total == 5
        assert summary.state_errors == 0
        assert "5 cycles" in summary.describe()
