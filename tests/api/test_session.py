"""The `repro.api` front door: loading, sessions, one-shots, batch."""

import json

import pytest

from repro import api
from repro.bench import benchmark, kiss_source
from repro.core.serialize import table_to_dict
from repro.errors import ReproError
from repro.flowtable.builder import FlowTableBuilder
from repro.flowtable.burst import BurstSpec
from repro.pipeline import StageCache


class TestLoadTable:
    def test_flow_table_passes_through(self):
        table = benchmark("lion")
        assert api.load_table(table) is table

    def test_rename(self):
        assert api.load_table(benchmark("lion"), name="cat").name == "cat"

    def test_benchmark_name(self):
        assert api.load_table("lion").name == "lion"

    def test_kiss_file(self, tmp_path):
        path = tmp_path / "machine.kiss2"
        path.write_text(kiss_source("hazard_demo"))
        table = api.load_table(str(path))
        assert table.name == "machine"
        assert table.num_states == benchmark("hazard_demo").num_states

    def test_flow_table_json_file(self, tmp_path):
        source = benchmark("lion")
        path = tmp_path / "lion.json"
        path.write_text(json.dumps(table_to_dict(source)))
        table = api.load_table(path)
        assert table.name == "lion"
        assert table.entry_map() == source.entry_map()

    def test_json_sniffing_without_extension(self, tmp_path):
        path = tmp_path / "table.data"
        path.write_text(json.dumps(table_to_dict(benchmark("lion"))))
        assert api.load_table(str(path)).num_states == 4

    def test_burst_spec_expands(self):
        spec = BurstSpec(
            inputs=["req"], outputs=["grant"],
            initial_state="idle", initial_inputs={"req": 0},
        )
        spec.state("idle", "0").state("busy", "1")
        spec.burst("idle", "busy", ["req+"])
        spec.burst("busy", "idle", ["req-"])
        table = api.load_table(spec, name="arb")
        assert table.name == "arb"
        assert set(table.states) == {"idle", "busy"}

    def test_builder_is_rejected_with_guidance(self):
        with pytest.raises(ReproError, match="build"):
            api.load_table(FlowTableBuilder(inputs=["a"], outputs=["z"]))

    def test_unknown_source_type(self):
        with pytest.raises(ReproError, match="cannot load"):
            api.load_table(42)

    def test_missing_path_lists_benchmarks(self):
        with pytest.raises(ReproError, match="benchmark name"):
            api.load_table("definitely_missing.kiss2")


class TestSession:
    def test_run_matches_one_shot(self):
        assert (
            api.load("lion").run().table1_row()
            == api.synthesize("lion").table1_row()
        )

    def test_builders_are_immutable_derivations(self):
        base = api.load("lion")
        derived = base.with_options(minimize=False).with_pass("hazards:off")
        assert base.spec.passes[4] == "hazards"
        assert derived.spec.passes[4] == "hazards:off"
        assert derived.spec.options.minimize is False
        assert base.spec.options.minimize is True

    def test_derived_sessions_share_the_cache(self):
        base = api.load("lion")
        assert base.cache is not None
        assert base.with_pass("hazards:off").cache is base.cache

    def test_substitution_reuses_upstream_stages(self):
        base = api.load("lion")
        base.run()  # warm
        _, report = base.with_pass("hazards:off").run_with_report()
        assert report.cache_hits == (
            "validate", "reduce", "assign", "outputs",
        )

    def test_with_cache_none_disables(self):
        session = api.load("lion").with_cache(None)
        assert session.cache is None
        _, report = session.run_with_report()
        assert report.cache_hits == ()

    def test_with_cache_path_builds_disk_tier(self, tmp_path):
        session = api.load("lion").with_cache(str(tmp_path / "stages"))
        session.run()
        assert any((tmp_path / "stages").iterdir())

    def test_with_spec_keeps_cache_when_config_unchanged(self):
        base = api.load("lion")
        assert base.with_spec(
            base.spec.substitute("hazards:off")
        ).cache is base.cache
        rebuilt = base.with_spec(base.spec.with_cache(None))
        assert rebuilt.cache is None

    def test_with_table_retargets(self):
        session = api.load("lion").with_options(minimize=False)
        other = session.with_table("traffic")
        assert other.table.name == "traffic"
        assert other.spec == session.spec

    def test_repr_mentions_table_and_passes(self):
        text = repr(api.load("lion").with_pass("hazards:off"))
        assert "lion" in text and "hazards:off" in text

    def test_unprotected_substitution_drops_fsv(self):
        result = (
            api.load("hazard_demo").with_options(hazard_correction=False).run()
        )
        assert result.fsv.expr.to_string() == "0"
        # the hazard search still ran and reported
        assert result.analysis.hazard_count() > 0

    def test_hazards_off_substitution_skips_the_search(self):
        result = api.load("hazard_demo").with_pass("hazards:off").run()
        assert result.analysis.transitions_examined == 0
        assert result.fsv.expr.to_string() == "0"


class TestOneShots:
    def test_synthesize_accepts_options(self):
        from repro.api import SynthesisOptions

        result = api.synthesize("lion", SynthesisOptions(minimize=False))
        assert result.table1_row()[0] == "lion"

    def test_synthesize_accepts_spec(self):
        spec = api.PipelineSpec().with_options(reduce_mode="joint")
        result = api.synthesize("lion", spec=spec)
        assert result.table1_row()[0] == "lion"

    def test_synthesize_shares_an_explicit_cache(self):
        cache = StageCache()
        api.synthesize("lion", cache=cache)
        before = cache.hits
        api.synthesize("lion", cache=cache)
        assert cache.hits > before

    def test_batch_mixed_sources(self, tmp_path):
        path = tmp_path / "machine.kiss2"
        path.write_text(kiss_source("hazard_demo"))
        items = api.batch(["lion", benchmark("traffic"), str(path)])
        assert [item.name for item in items] == [
            "lion", "traffic", "machine",
        ]
        assert all(item.ok for item in items)
        assert all(len(item.events) == 7 for item in items)

    def test_batch_with_spec_substitution(self):
        spec = api.PipelineSpec().substitute("hazards:off")
        items = api.batch(["hazard_demo"], spec=spec)
        assert items[0].result.fsv.expr.to_string() == "0"
