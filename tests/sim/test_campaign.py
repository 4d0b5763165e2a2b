"""Monte-Carlo validation campaigns: determinism, gating, surfaces."""

import pytest

from repro import api
from repro.bench import benchmark
from repro.errors import SimulationError, ValidationError
from repro.sim.campaign import (
    DELAY_MODELS,
    CampaignResult,
    ValidationCampaign,
    delay_model,
)


class TestConfiguration:
    def test_unknown_delay_model_rejected_eagerly(self):
        with pytest.raises(SimulationError) as err:
            ValidationCampaign(delay_models=("warp",))
        assert "warp" in str(err.value)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            ValidationCampaign(engine="fpga")

    def test_bad_shape_rejected(self):
        with pytest.raises(SimulationError):
            ValidationCampaign(sweep=0)
        with pytest.raises(SimulationError):
            ValidationCampaign(steps=0)
        with pytest.raises(SimulationError):
            ValidationCampaign(delay_models=())

    def test_registry_names(self):
        assert set(DELAY_MODELS) == {
            "unit",
            "loop-safe",
            "skewed",
            "hostile",
            "corner",
        }
        with pytest.raises(SimulationError):
            delay_model("nope", 0, None)


class TestCampaignRuns:
    def campaign(self, **kwargs):
        defaults = dict(
            sweep=2, steps=8, delay_models=("unit", "loop-safe")
        )
        defaults.update(kwargs)
        return ValidationCampaign(**defaults)

    def test_cell_grid_order_is_table_model_seed(self):
        report = self.campaign().run_names(["hazard_demo", "traffic"])
        grid = [(c.table, c.model, c.seed) for c in report.cells]
        assert grid == [
            ("hazard_demo", "unit", 0),
            ("hazard_demo", "unit", 1),
            ("hazard_demo", "loop-safe", 0),
            ("hazard_demo", "loop-safe", 1),
            ("traffic", "unit", 0),
            ("traffic", "unit", 1),
            ("traffic", "loop-safe", 0),
            ("traffic", "loop-safe", 1),
        ]
        assert report.all_clean
        assert report.total_cycles == 8 * 8

    def test_deterministic_across_runs_and_base_seed(self):
        first = self.campaign(base_seed=3).run_names(["hazard_demo"])
        second = self.campaign(base_seed=3).run_names(["hazard_demo"])
        assert [c.summary.cycles for c in first.cells] == [
            c.summary.cycles for c in second.cells
        ]
        shifted = self.campaign(base_seed=4).run_names(["hazard_demo"])
        assert {c.seed for c in shifted.cells} == {4, 5}

    def test_merged_and_by_model_aggregation(self):
        report = self.campaign().run_names(["hazard_demo"])
        merged = report.merged()
        assert merged.total == report.total_cycles
        per_model = report.by_model()
        assert set(per_model) == {"unit", "loop-safe"}
        assert sum(s.total for s in per_model.values()) == merged.total

    def test_ablated_machine_fails_under_skew(self):
        report = self.campaign(
            delay_models=("skewed",), sweep=3, steps=15, use_fsv=False
        ).run_names(["hazard_demo"])
        assert not report.all_clean
        assert report.failures
        assert "FAILED" in report.describe()

    def test_synthesis_error_recorded_not_raised(self):
        from repro.flowtable.builder import FlowTableBuilder

        bad = (
            FlowTableBuilder(inputs=["x"], outputs=["z"])
            .stable("a", "0", "0")
            .add("a", "1", "b")
            .stable("b", "1", "1")
            .build(check=False)  # b unreachable back: not strongly conn.
        )
        report = self.campaign().run(
            [benchmark("hazard_demo"), bad]
        )
        assert len(report.errors) == 1
        assert not report.all_clean
        clean_cells = [c for c in report.cells if c.table == "hazard_demo"]
        assert clean_cells  # the good table still ran

    def test_parallel_jobs_identical_stream(self):
        serial = self.campaign(jobs=1).run_names(["hazard_demo", "lion"])
        parallel = self.campaign(jobs=3).run_names(["hazard_demo", "lion"])
        assert [
            (c.table, c.model, c.seed, c.summary.cycles)
            for c in serial.cells
        ] == [
            (c.table, c.model, c.seed, c.summary.cycles)
            for c in parallel.cells
        ]

    def test_corner_model_is_seed_deterministic(self):
        once = self.campaign(delay_models=("corner",)).run_names(["lion"])
        again = self.campaign(delay_models=("corner",)).run_names(["lion"])
        assert [c.summary.cycles for c in once.cells] == [
            c.summary.cycles for c in again.cells
        ]


class TestVerifyPass:
    def spec_with_verify(self):
        from repro.pipeline.registry import DEFAULT_PIPELINE

        return api.PipelineSpec().with_passes(*DEFAULT_PIPELINE, "verify")

    def test_clean_machine_passes_and_records_stage(self):
        result = api.synthesize("hazard_demo", spec=self.spec_with_verify())
        assert "verify" in result.stage_seconds

    def test_gate_is_usable_on_the_whole_paper_table(self):
        # lion9 has a pre-existing loop-safe anomaly (ROADMAP); the
        # inline gate's model mix must still pass every paper machine.
        spec = self.spec_with_verify()
        for name in ("lion9", "train11"):
            result = api.synthesize(name, spec=spec)
            assert "verify" in result.stage_seconds

    def test_unprotected_machine_fails_the_pipeline(self):
        spec = self.spec_with_verify().with_options(hazard_correction=False)
        with pytest.raises(ValidationError) as err:
            api.synthesize("hazard_demo", spec=spec)
        assert "failed dynamic validation" in str(err.value)

    def test_verify_round_trips_in_a_spec_file(self):
        spec = self.spec_with_verify()
        assert api.PipelineSpec.from_dict(spec.to_dict()) == spec


class TestSessionValidate:
    def test_session_validate_returns_campaign_result(self):
        report = api.load("traffic").validate(
            sweep=2, steps=8, delay_models=("unit",), seed=11
        )
        assert isinstance(report, CampaignResult)
        assert report.all_clean
        assert {c.seed for c in report.cells} == {11, 12}

    def test_session_validate_respects_spec(self):
        report = (
            api.load("hazard_demo")
            .with_options(hazard_correction=False)
            .validate(sweep=2, steps=15, delay_models=("skewed",))
        )
        assert not report.all_clean


class TestCli:
    def test_validate_sweep_flags(self, capsys):
        from repro.cli import main

        code = main([
            "validate", "hazard_demo", "--sweep", "2", "--steps", "6",
            "--delay-model", "unit", "--delay-model", "corner",
            "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "unit" in out and "corner" in out
        assert "clean" in out

    def test_validate_multiple_specs(self, capsys):
        from repro.cli import main

        assert main([
            "validate", "hazard_demo", "traffic",
            "--sweep", "1", "--steps", "5",
        ]) == 0

    def test_validate_reference_engine(self, capsys):
        from repro.cli import main

        assert main([
            "validate", "hazard_demo", "--sweep", "1", "--steps", "5",
            "--engine", "reference",
        ]) == 0

    def test_validate_bad_model_reports_cleanly(self, capsys):
        from repro.cli import main

        assert main(["validate", "hazard_demo", "--delay-model", "x"]) == 2
        assert "unknown delay model" in capsys.readouterr().err
