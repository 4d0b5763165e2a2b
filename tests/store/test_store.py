"""ResultStore: verified envelopes, golden round-trips, fail-safety.

The fail-safe contract under test: **no state of the store may ever
change a result** — a truncated blob, a blob whose content belongs to a
different key, an incompatible format version, or two writers racing on
one key can cost a recomputation but must never return a poisoned
result.
"""

import json
import threading

import pytest

from repro import api
from repro.bench import benchmark, benchmark_names
from repro.pipeline.spec import PipelineSpec
from repro.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    synthesis_key,
    validation_key,
)
from tests.strategies import cached_synthesize


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def blob_path(store, key):
    return store.backend.path / key.blob_name


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestGoldenRoundTrip:
    """Satellite pin: a store round-trip of every golden-suite result
    is byte-identical to ``to_dict()`` — including ``stage_seconds``,
    because the store archives the *full* wire form."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_roundtrip_byte_identical_to_to_dict(self, name, store):
        table = benchmark(name)
        result = cached_synthesize(table)
        spec = PipelineSpec()
        store.put_synthesis(table, spec, result)
        stored = store.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert json.dumps(
            stored.result.to_dict(), sort_keys=True
        ) == json.dumps(result.to_dict(), sort_keys=True)

    def test_synthesis_error_roundtrip(self, store):
        table = benchmark("lion")
        spec = PipelineSpec()
        store.put_synthesis_error(table, spec, "no USTT assignment")
        stored = store.get_synthesis(table, spec)
        assert stored is not None and not stored.ok
        assert stored.error == "no USTT assignment"

    def test_validation_roundtrip(self, store):
        report = api.load("hazard_demo").validate(
            sweep=1, steps=5, delay_models=("unit",)
        )
        summary = report.cells[0].summary
        key = validation_key(
            benchmark("hazard_demo"),
            PipelineSpec(),
            model="unit",
            seed=0,
            steps=5,
            engine="compiled",
            use_fsv=True,
        )
        store.put_validation(key, summary)
        replayed = store.get_validation(key)
        assert replayed is not None
        assert replayed.cycles == summary.cycles


# ----------------------------------------------------------------------
# Key discrimination
# ----------------------------------------------------------------------
class TestKeys:
    def test_different_tables_different_keys(self):
        spec = PipelineSpec()
        keys = {
            synthesis_key(benchmark(name), spec).digest
            for name in benchmark_names()
        }
        assert len(keys) == len(benchmark_names())

    def test_spec_options_and_passes_change_the_key(self):
        table = benchmark("lion")
        base = synthesis_key(table, PipelineSpec())
        ablated = synthesis_key(
            table, PipelineSpec().with_options(hazard_correction=False)
        )
        substituted = synthesis_key(
            table, PipelineSpec().substitute("hazards:off")
        )
        assert len({base.digest, ablated.digest, substituted.digest}) == 3

    def test_cache_config_does_not_change_the_key(self, tmp_path):
        table = benchmark("lion")
        assert (
            synthesis_key(table, PipelineSpec()).digest
            == synthesis_key(
                table, PipelineSpec().with_cache(tmp_path)
            ).digest
        )

    def test_validation_workload_parameters_discriminate(self):
        table = benchmark("lion")
        spec = PipelineSpec()

        def key(**overrides):
            params = dict(
                model="unit", seed=0, steps=10,
                engine="compiled", use_fsv=True,
            )
            params.update(overrides)
            return validation_key(table, spec, **params).digest

        digests = [
            key(),
            key(model="loop-safe"),
            key(seed=1),
            key(steps=11),
            key(engine="reference"),
            key(use_fsv=False),
        ]
        assert len(set(digests)) == len(digests)


# ----------------------------------------------------------------------
# Corruption and poisoning (satellite: fail safe, never poisoned)
# ----------------------------------------------------------------------
class TestFailSafety:
    def seeded(self, store):
        table = benchmark("lion")
        spec = PipelineSpec()
        result = cached_synthesize(table)
        store.put_synthesis(table, spec, result)
        return table, spec, result

    def test_truncated_blob_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_empty_blob_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        blob_path(store, synthesis_key(table, spec)).write_bytes(b"")
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_wrong_fingerprint_blob_is_a_miss(self, store):
        """A blob whose *content* belongs to another key — a mis-filed
        upload, a colliding copy — must be rejected, not returned."""
        table, spec, _ = self.seeded(store)
        other = benchmark("traffic")
        store.put_synthesis(other, spec, cached_synthesize(other))
        lion_key = synthesis_key(table, spec)
        traffic_key = synthesis_key(other, spec)
        # File traffic's (valid, complete) blob under lion's digest.
        blob_path(store, lion_key).write_bytes(
            blob_path(store, traffic_key).read_bytes()
        )
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1
        # The mis-filed copy did not damage the original.
        stored = store.get_synthesis(other, spec)
        assert stored is not None and stored.ok

    def test_wrong_format_version_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        envelope = json.loads(path.read_bytes())
        envelope["format"] = STORE_FORMAT_VERSION + 1
        path.write_bytes(json.dumps(envelope).encode())
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_valid_envelope_garbage_payload_is_a_miss(self, store):
        table, spec, _ = self.seeded(store)
        key = synthesis_key(table, spec)
        store.put(key, {"ok": True, "result": {"artifacts": "nonsense"}})
        assert store.get_synthesis(table, spec) is None
        assert store.rejected == 1

    def test_corrupt_store_recomputes_through_batch(self, store):
        """End to end: a poisoned store costs a recompute, silently."""
        from repro.pipeline.batch import BatchRunner

        table, spec, result = self.seeded(store)
        path = blob_path(store, synthesis_key(table, spec))
        path.write_bytes(b'{"not": "an envelope"}')
        items = BatchRunner(store=store).run([table])
        assert items[0].ok and not items[0].store_hit
        assert json.dumps(
            items[0].result.to_dict()["artifacts"], sort_keys=True
        ) == json.dumps(result.to_dict()["artifacts"], sort_keys=True)
        # ... and the recompute healed the blob.
        items = BatchRunner(store=store).run([table])
        assert items[0].store_hit


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_two_writers_racing_on_one_key(self, tmp_path):
        """N threads × M puts on the same key over one directory: every
        interleaving must leave a complete, verifiable blob."""
        table = benchmark("lion")
        spec = PipelineSpec()
        result = cached_synthesize(table)
        stores = [ResultStore(tmp_path / "race") for _ in range(4)]
        barrier = threading.Barrier(len(stores))
        errors = []

        def writer(store):
            try:
                barrier.wait()
                for _ in range(10):
                    store.put_synthesis(table, spec, result)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in stores
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reader = ResultStore(tmp_path / "race")
        stored = reader.get_synthesis(table, spec)
        assert stored is not None and stored.ok
        assert reader.rejected == 0
        assert json.dumps(
            stored.result.to_dict(), sort_keys=True
        ) == json.dumps(result.to_dict(), sort_keys=True)

    def test_concurrent_readers_and_writers(self, tmp_path):
        table = benchmark("traffic")
        spec = PipelineSpec()
        result = cached_synthesize(table)
        writer_store = ResultStore(tmp_path / "rw")
        reader_store = ResultStore(tmp_path / "rw")
        stop = threading.Event()
        poisoned = []

        def reader():
            while not stop.is_set():
                stored = reader_store.get_synthesis(table, spec)
                # Misses are legal mid-race; a poisoned hit is not.
                if stored is not None and stored.ok:
                    if stored.result.table1_row() != result.table1_row():
                        poisoned.append(stored)

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(20):
            writer_store.put_synthesis(table, spec, result)
        stop.set()
        thread.join()
        assert not poisoned
