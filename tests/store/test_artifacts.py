"""Failure artifacts: dirty campaign cells archive their VCD.

Satellite pin: when a validation cell fails, the campaign replays the
walk deterministically with the full debug watch-set and archives the
VCD next to the summary envelope (``validation/<digest>.vcd``), so a
failure found by a fleet at 3am is inspectable without re-running
anything.  Clean cells archive nothing.
"""

import pytest

from repro.bench import benchmark
from repro.service import QueueWorker, WorkQueue
from repro.sim.campaign import ValidationCampaign
from repro.store import ResultStore, ShardedCampaign
from repro.store.backend import MemoryBackend


@pytest.fixture
def store():
    return ResultStore(MemoryBackend())


def dirty_campaign(**overrides):
    """hazard_demo without fsv under skewed delays fails validation
    deterministically (the demonstration the benchmark exists for)."""
    options = dict(
        sweep=2, steps=15, delay_models=("skewed",), use_fsv=False
    )
    options.update(overrides)
    return ValidationCampaign(**options)


def vcd_names(store):
    return [
        name
        for name in store.backend.names("validation/")
        if name.endswith(".vcd")
    ]


class TestFailureArchiving:
    def test_dirty_cells_archive_a_vcd(self, store):
        report = dirty_campaign(store=store).run(
            [benchmark("hazard_demo")]
        )
        assert not report.all_clean
        dirty = [
            cell for cell in report.cells if not cell.summary.all_clean
        ]
        names = vcd_names(store)
        assert names, "dirty campaign archived no VCD"
        assert len(names) == len(dirty)
        # Every artifact sits next to its summary envelope.
        for name in names:
            stem = name.rsplit(".", 1)[0]
            assert store.backend.read(f"{stem}.json") is not None

    def test_archived_vcd_is_a_real_trace(self, store):
        dirty_campaign(store=store).run([benchmark("hazard_demo")])
        blob = store.backend.read(vcd_names(store)[0])
        text = blob.decode()
        assert "$timescale" in text or "$var" in text
        assert "$enddefinitions" in text
        assert "#" in text  # at least one timestamped change

    def test_clean_cells_archive_nothing(self, store):
        report = ValidationCampaign(
            sweep=1, steps=5, delay_models=("unit",), store=store
        ).run([benchmark("lion")])
        assert report.all_clean
        assert vcd_names(store) == []

    @pytest.mark.parametrize("route", ["campaign", "shard", "queue"])
    def test_sharded_campaign_archives_too(self, store, route):
        """Every route that executes campaign cells — the serial
        campaign, a shard run and a queue drain — archives the same
        artifacts, byte for byte."""
        tables = [benchmark("hazard_demo")]
        if route == "campaign":
            dirty_campaign(store=store).run(tables)
        elif route == "shard":
            ShardedCampaign(tables, dirty_campaign()).run_shard(0, 1, store)
        else:
            WorkQueue(store, "q").publish_campaign(tables, dirty_campaign())
            QueueWorker(store, "q", worker_id="w1").run()
        archived = {
            name: store.backend.read(name) for name in vcd_names(store)
        }
        assert archived
        reference = ResultStore(MemoryBackend())
        dirty_campaign(store=reference).run(tables)
        assert archived == {
            name: reference.backend.read(name)
            for name in vcd_names(reference)
        }

    def test_archiving_is_deterministic_across_reruns(self, store):
        tables = [benchmark("hazard_demo")]
        dirty_campaign(store=store).run(tables)
        first = {
            name: store.backend.read(name) for name in vcd_names(store)
        }
        other = ResultStore(MemoryBackend())
        dirty_campaign(store=other).run(tables)
        second = {
            name: other.backend.read(name) for name in vcd_names(other)
        }
        assert first == second
