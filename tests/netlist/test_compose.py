"""Tests for FANTOM stage composition (self-timed pipelines)."""

import pytest

from repro.api import synthesize
from repro.bench import benchmark
from repro.errors import NetlistError
from repro.flowtable.builder import FlowTableBuilder
from repro.netlist.compose import chain
from repro.netlist.fantom import build_fantom
from repro.sim.delays import loop_safe_random
from repro.sim.simulator import Simulator


def follower_table():
    b = FlowTableBuilder(inputs=["d"], outputs=["q"])
    b.stable("low", "0", "0").add("low", "1", "high")
    b.stable("high", "1", "1").add("high", "0", "low")
    return b.build(reset="low", name="follower")


def build_pipeline():
    stage1 = build_fantom(synthesize(benchmark("hazard_demo")))
    stage2 = build_fantom(synthesize(follower_table()))
    return chain(stage1, stage2)


class TestConstruction:
    def test_port_count_mismatch_rejected(self):
        stage1 = build_fantom(synthesize(benchmark("traffic")))  # 2 outputs
        stage2 = build_fantom(synthesize(follower_table()))  # 1 input
        with pytest.raises(NetlistError) as err:
            chain(stage1, stage2)
        assert "outputs" in str(err.value)

    def test_reset_mismatch_rejected(self):
        # a follower resetting in column 1 cannot sit behind a stage
        # resting with output 0.  (Minimisation is disabled so the
        # follower keeps its reset state; fully reduced it becomes a
        # single state stable in both columns.)
        from repro.api import SynthesisOptions

        b = FlowTableBuilder(inputs=["d"], outputs=["q"])
        b.stable("high", "1", "1").add("high", "0", "low")
        b.stable("low", "0", "0").add("low", "1", "high")
        bad_stage2 = build_fantom(
            synthesize(
                b.build(reset="high", name="bad_follower"),
                SynthesisOptions(minimize=False),
            )
        )
        stage1 = build_fantom(synthesize(benchmark("hazard_demo")))
        with pytest.raises(NetlistError) as err:
            chain(stage1, bad_stage2)
        assert "rests" in str(err.value)

    def test_composite_structure(self):
        pipeline = build_pipeline()
        netlist = pipeline.netlist
        netlist.validate()
        # external pins belong to stage 1
        assert set(pipeline.external_inputs) == {"X1", "X2"}
        assert pipeline.vi == "VI"
        # stage 2's input flip-flop is fed by stage 1's latched output
        ffx2 = next(
            f for f in netlist.dffs if f.name == "s2_FFX1"
        )
        assert ffx2.d == "s1_z1"
        # stage 2's G latch sees stage 1's VOM as its VI
        g_and = next(g for g in netlist.gates if g.name == "s2_G_and")
        assert "s1_VOM" in g_and.inputs

    def test_initial_values_consistent(self):
        pipeline = build_pipeline()
        values = pipeline.initial_values()
        # stage 1 rests complete (VOM high); stage 2 therefore sits with
        # G high and VOM low — the remembering latch at work.
        assert values[pipeline.stage1_vom] == 1
        assert values["s2_G"] == 1
        assert values[pipeline.stage2_vom] == 0


class TestDynamics:
    def run_transaction(self, sim, pipeline, column):
        def wait_for(net, value):
            sim.run(
                until=sim.now + 600.0,
                stop_when=lambda s: s.value(net) == value,
            )
            assert sim.value(net) == value

        wait_for(pipeline.stage1_vom, 1)
        sim.run_until_quiet(600.0)
        start = sim.now
        for i, pin in enumerate(pipeline.external_inputs):
            sim.schedule(pin, column >> i & 1, at=start + 2.0)
        sim.schedule(pipeline.vi, 1, at=start + 4.0)
        wait_for(pipeline.stage1_vom, 0)
        sim.schedule(pipeline.vi, 0, at=sim.now + 2.0)
        wait_for(pipeline.stage1_vom, 1)
        sim.run_until_quiet(600.0)
        return (
            sim.value("s1_z1"),
            sim.value(pipeline.stage2_outputs[0]),
        )

    def test_stage2_follows_with_one_transaction_lag(self):
        pipeline = build_pipeline()
        sim = Simulator(
            pipeline.netlist,
            delays=loop_safe_random(9),
            initial_values=pipeline.initial_values(),
        )
        table = pipeline.first.result.table
        col = table.column_of
        # z1 sequence produced by hazard_demo on this walk: 1, 1, 0
        walk = [col("11"), col("01"), col("00")]
        observed = [self.run_transaction(sim, pipeline, c) for c in walk]
        z1_values = [z1 for z1, _ in observed]
        q_values = [q for _, q in observed]
        assert z1_values == [1, 1, 0]
        # q lags one transaction behind z1 (starts from the reset value)
        assert q_values == [0] + z1_values[:-1]
