"""Warm-store short-circuits: zero synthesis passes, zero simulation.

Acceptance pin (ISSUE 5): a repeat run against a warm store performs
**zero synthesis passes**, asserted through the
:class:`~repro.pipeline.manager.PassEvent` telemetry — not through
timing, which could hide a fast re-run.
"""

import json

import pytest

from repro import api
from repro.bench import benchmark
from repro.errors import SynthesisError
from repro.pipeline.batch import BatchRunner
from repro.sim.campaign import ValidationCampaign
from repro.store import ResultStore


NAMES = ("lion", "traffic", "hazard_demo")


class TestBatchShortCircuit:
    def test_warm_batch_runs_zero_passes(self):
        store = ResultStore()
        tables = [benchmark(name) for name in NAMES]
        cold = BatchRunner(store=store).run(tables)
        assert all(not item.store_hit for item in cold)
        assert all(item.events for item in cold)  # passes really ran
        warm = BatchRunner(store=store).run(tables)
        assert all(item.store_hit for item in warm)
        # The telemetry contract: not one PassEvent on the warm run.
        assert all(item.events == () for item in warm)
        assert all(item.cache_hits == () for item in warm)

    def test_warm_batch_parallel_jobs_short_circuits(self, tmp_path):
        store_dir = tmp_path / "store"
        tables = [benchmark(name) for name in NAMES]
        BatchRunner(store=ResultStore(store_dir)).run(tables)
        warm = BatchRunner(store=ResultStore(store_dir), jobs=2).run(
            tables
        )
        assert all(item.store_hit for item in warm)
        assert all(item.events == () for item in warm)

    def test_stored_failure_short_circuits_too(self):
        from tests.store.test_sharding import broken_table

        store = ResultStore()
        cold = BatchRunner(store=store).run([broken_table()])
        assert not cold[0].ok and not cold[0].store_hit
        warm = BatchRunner(store=store).run([broken_table()])
        assert not warm[0].ok and warm[0].store_hit
        assert warm[0].error == cold[0].error

    def test_cold_and_warm_results_byte_identical(self):
        store = ResultStore()
        table = benchmark("train11")
        cold = BatchRunner(store=store).run([table])[0]
        warm = BatchRunner(store=store).run([table])[0]
        assert json.dumps(
            warm.result.to_dict(), sort_keys=True
        ) == json.dumps(cold.result.to_dict(), sort_keys=True)


class TestSessionShortCircuit:
    def test_warm_session_report_has_no_events(self):
        store = ResultStore()
        session = api.load("lion", store=store)
        _, cold_report = session.run_with_report()
        assert not cold_report.store_hit and cold_report.events
        result, warm_report = session.run_with_report()
        assert warm_report.store_hit
        assert warm_report.events == []
        assert result.table1_row() == ("lion", 3, 5, 9)

    def test_store_respects_spec_changes(self):
        store = ResultStore()
        session = api.load("lion", store=store)
        session.run()
        ablated, report = session.with_options(
            hazard_correction=False
        ).run_with_report()
        # Different spec fingerprint: a genuine run, not a stale hit.
        assert not report.store_hit
        assert ablated.fsv.expr.to_string() == "0"

    def test_stored_failure_reraises_original_domain_type(self):
        """Warm and cold runs of the same bad input raise the *same*
        exception type — the stored envelope records the class name."""
        from tests.store.test_sharding import broken_table

        store = ResultStore()
        session = api.Session(broken_table(), store=store)
        with pytest.raises(Exception) as cold:
            session.run()  # cold run: store is empty, pipeline raises
        BatchRunner(store=store).run([broken_table()])
        with pytest.raises(Exception) as warm:
            session.run()  # warm run: replayed from the stored failure
        assert type(warm.value) is type(cold.value)
        assert str(warm.value) == str(cold.value)

    def test_unknown_stored_error_type_falls_back_safely(self):
        """A poisoned/legacy error_type must not name arbitrary
        classes; it degrades to SynthesisError."""
        from repro.pipeline.spec import PipelineSpec
        from repro.store import synthesis_key

        store = ResultStore()
        table = benchmark("lion")
        store.put(
            synthesis_key(table, PipelineSpec()),
            {"ok": False, "error": "boom", "error_type": "SystemExit"},
        )
        with pytest.raises(SynthesisError):
            api.Session(table, store=store).run()

    def test_with_store_builder_attaches_directory(self, tmp_path):
        session = api.load("lion").with_store(tmp_path / "s")
        session.run()
        _, report = session.run_with_report()
        assert report.store_hit


class TestCampaignShortCircuit:
    def campaign(self, store):
        return ValidationCampaign(
            sweep=2,
            steps=6,
            delay_models=("unit", "loop-safe"),
            store=store,
        )

    def test_warm_campaign_replays_every_cell(self):
        store = ResultStore()
        tables = [benchmark("lion"), benchmark("hazard_demo")]
        cold = self.campaign(store).run(tables)
        assert cold.store_hits == 0
        warm = self.campaign(store).run(tables)
        assert warm.store_hits == len(warm.cells) == 8
        assert [c.summary.cycles for c in warm.cells] == [
            c.summary.cycles for c in cold.cells
        ]

    def test_session_validate_uses_the_store(self):
        store = ResultStore()
        session = api.load("traffic", store=store)
        first = session.validate(
            sweep=2, steps=6, delay_models=("unit",)
        )
        assert first.store_hits == 0
        again = session.validate(
            sweep=2, steps=6, delay_models=("unit",)
        )
        assert again.store_hits == len(again.cells)
        # A different workload shape is a different key set.
        wider = session.validate(
            sweep=2, steps=7, delay_models=("unit",)
        )
        assert wider.store_hits == 0

    def test_unprotected_machines_keyed_separately(self):
        store = ResultStore()
        session = api.load("hazard_demo", store=store)
        protected = session.validate(
            sweep=1, steps=6, delay_models=("unit",)
        )
        unprotected = session.validate(
            sweep=1, steps=6, delay_models=("unit",), use_fsv=False
        )
        assert protected.store_hits == 0
        assert unprotected.store_hits == 0  # no cross-key pollution
