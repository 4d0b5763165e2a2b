"""Tests for the VCD waveform exporter."""

from repro.sim.simulator import NetChange
from repro.sim.vcd import _identifier, trace_to_vcd, write_vcd


def sample_trace():
    return [
        NetChange(0.5, "G", 1),
        NetChange(1.25, "fsv", 1),
        NetChange(1.25, "SSD", 0),
        NetChange(3.0, "fsv", 0),
    ]


class TestIdentifiers:
    def test_unique_and_printable(self):
        seen = set()
        for i in range(200):
            ident = _identifier(i)
            assert ident not in seen
            assert all(33 <= ord(ch) < 127 for ch in ident)
            seen.add(ident)


class TestTraceToVcd:
    def test_header(self):
        text = trace_to_vcd(sample_trace(), ["G", "fsv", "SSD"])
        assert "$timescale 1ns $end" in text
        assert "$scope module fantom $end" in text
        assert text.count("$var wire 1 ") == 3
        assert "$enddefinitions $end" in text

    def test_initial_values_dumped(self):
        text = trace_to_vcd(
            sample_trace(), ["G", "SSD"], initial_values={"SSD": 1}
        )
        dump = text.split("$dumpvars")[1].split("$end")[0]
        assert "1" in dump  # SSD starts high

    def test_time_quantisation(self):
        text = trace_to_vcd(sample_trace(), ["G", "fsv", "SSD"])
        assert "#50" in text    # 0.5 * 100
        assert "#125" in text   # 1.25 * 100
        assert "#300" in text

    def test_simultaneous_changes_share_timestamp(self):
        text = trace_to_vcd(sample_trace(), ["G", "fsv", "SSD"])
        assert text.count("#125") == 1

    def test_unwatched_nets_filtered(self):
        text = trace_to_vcd(sample_trace(), ["G"])
        assert "#125" not in text

    def test_write_vcd_roundtrip(self, tmp_path):
        path = tmp_path / "wave.vcd"
        write_vcd(path, sample_trace(), ["G", "fsv"])
        assert path.read_text().startswith("$date")


class TestGolden:
    def test_full_document_pinned(self):
        """The exact VCD text — header, declarations, dump, change
        records — for a small trace; any formatting drift is a consumer
        (GTKWave) compatibility change and must be deliberate."""
        text = trace_to_vcd(
            sample_trace(),
            ["G", "fsv"],
            initial_values={"fsv": 1},
            module="machine",
            timescale="10ps",
            resolution=4,
        )
        assert text == (
            "$date repro simulation $end\n"
            "$version repro FANTOM simulator $end\n"
            "$timescale 10ps $end\n"
            "$scope module machine $end\n"
            "$var wire 1 ! G $end\n"
            '$var wire 1 " fsv $end\n'
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "$dumpvars\n"
            "0!\n"
            '1"\n'
            "$end\n"
            "#2\n"
            "1!\n"
            "#5\n"
            '1"\n'
            "#12\n"
            '0"\n'
        )

    def test_simulator_trace_to_golden_vcd(self, tmp_path):
        """End to end: compiled-simulator trace through the exporter."""
        from repro.netlist.gates import GateType
        from repro.netlist.netlist import Netlist
        from repro.sim.delays import UnitDelay
        from repro.sim.simulator import Simulator

        nl = Netlist("pair")
        nl.add_input("a")
        nl.add_gate("inv", GateType.NOR, ("a",), "b")
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "b": 1})
        sim.watch("a", "b")
        sim.schedule("a", 1, at=1.0)
        sim.run(until=5.0)
        text = trace_to_vcd(sim.trace, ["a", "b"], initial_values={"b": 1})
        assert "#100\n1!" in text  # a rises at t=1.0 (resolution 100)
        assert '#200\n0"' in text  # b falls one unit later


class TestEndToEnd:
    def test_machine_waveform_exports(self, tmp_path):
        from repro.bench import benchmark
        from repro.api import synthesize
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import loop_safe_random
        from repro.sim.harness import FantomHarness

        machine = build_fantom(synthesize(benchmark("hazard_demo")))
        harness = FantomHarness(machine, delays=loop_safe_random(0))
        harness.simulator.watch("fsv", "SSD", *machine.state_nets)
        table = machine.result.table
        harness.apply(table.column_of("01"))
        harness.apply(table.column_of("11"))
        path = tmp_path / "fantom.vcd"
        write_vcd(
            path,
            harness.simulator.trace,
            ["G", "VOM", "fsv", "SSD", *machine.state_nets],
            initial_values=machine.initial_values(),
        )
        text = path.read_text()
        assert "$var wire 1" in text
        assert "#" in text
