"""BatchRunner: ordered deterministic streams, serial/parallel parity."""

import pytest

from repro.bench import benchmark, benchmark_names, synthesize_suite
from repro.errors import SynthesisError
from repro.flowtable.table import Entry, FlowTable
from repro.pipeline import BatchRunner, StageCache, SynthesisOptions

NAMES = ("lion", "traffic", "hazard_demo", "test_example")


def stripped(result):
    d = result.to_dict()
    d.pop("stage_seconds")
    return d


def invalid_table():
    """A table that fails pipeline validation (not strongly connected).

    Built through the raw constructor — the builder front end would
    reject it eagerly, but the pipeline's validate pass must also catch
    tables arriving from other front ends.
    """
    return FlowTable(
        inputs=["x"],
        outputs=["z"],
        states=["a", "b"],
        entries={
            ("a", 0): Entry("a", (0,)),
            ("b", 1): Entry("b", (1,)),  # unreachable from a
        },
        reset_state="a",
        name="broken",
    )


class TestSerial:
    def test_results_in_input_order(self):
        tables = [benchmark(name) for name in NAMES]
        items = BatchRunner(jobs=1).run(tables)
        assert [item.name for item in items] == list(NAMES)
        assert [item.index for item in items] == list(range(len(NAMES)))
        assert all(item.ok for item in items)

    def test_failure_does_not_abort_the_batch(self):
        tables = [benchmark("lion"), invalid_table(), benchmark("traffic")]
        items = BatchRunner(jobs=1).run(tables)
        assert [item.ok for item in items] == [True, False, True]
        assert items[1].result is None
        assert items[1].error

    def test_shared_cache_across_batch_runs(self):
        cache = StageCache()
        runner = BatchRunner(jobs=1, cache=cache)
        runner.run_names(NAMES)
        items = runner.run_names(NAMES)
        assert all(len(item.cache_hits) == 7 for item in items)


class TestParallel:
    def test_parallel_matches_serial_byte_for_byte(self):
        tables = [benchmark(name) for name in NAMES]
        serial = BatchRunner(jobs=1).run(tables)
        parallel = BatchRunner(jobs=2).run(tables)
        assert [i.name for i in parallel] == [i.name for i in serial]
        for a, b in zip(serial, parallel):
            assert stripped(a.result) == stripped(b.result)

    def test_parallel_carries_failures_in_place(self):
        tables = [benchmark("lion"), invalid_table(), benchmark("traffic")]
        items = BatchRunner(jobs=2).run(tables)
        assert [item.ok for item in items] == [True, False, True]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)

    def test_abandoned_stream_cancels_pending_work(self):
        tables = [benchmark(name) for name in NAMES]
        stream = BatchRunner(jobs=2).iter_results(tables)
        first = next(stream)
        assert first.name == NAMES[0]
        stream.close()  # must cancel queued futures, not block on them

    def test_parallel_workers_share_a_disk_cache(self, tmp_path):
        tables = [benchmark(name) for name in NAMES]
        cache = StageCache(path=tmp_path)
        BatchRunner(jobs=2, cache=cache).run(tables)
        items = BatchRunner(jobs=2, cache=cache).run(tables)
        assert all(len(item.cache_hits) == 7 for item in items)

    def test_parallel_workers_keep_a_memory_cache_for_repeats(self):
        # the same table twice with a memory-only cache: at least one
        # worker sees the repeat and serves it from its in-memory tier
        tables = [benchmark("lion")] * 4
        items = BatchRunner(jobs=2, cache=StageCache()).run(tables)
        assert any(len(item.cache_hits) == 7 for item in items)


class TestMatrix:
    def test_matrix_is_option_major_and_complete(self):
        tables = [benchmark("lion"), benchmark("traffic")]
        options = [
            SynthesisOptions(),
            SynthesisOptions(hazard_correction=False),
        ]
        items = BatchRunner(jobs=1).run_matrix(tables, options)
        assert [i.name for i in items] == ["lion", "traffic"] * 2
        assert all(item.ok for item in items)
        # the ablated half really used its options: fsv is constant 0
        assert items[2].result.fsv.expr.to_string() == "0"
        assert items[0].result.fsv.expr.to_string() != "0"


class TestConveniences:
    def test_synthesize_suite_defaults_to_every_benchmark(self):
        results = synthesize_suite(cache=StageCache())
        assert tuple(results) == benchmark_names()

    def test_synthesize_suite_raises_on_failure(self):
        # monkey-free: feed a bogus name through the names parameter
        with pytest.raises(KeyError):
            synthesize_suite(names=("no_such_machine",))

    def test_synthesize_suite_matches_direct_synthesis(self):
        from repro.api import synthesize

        results = synthesize_suite(names=("lion",))
        assert stripped(results["lion"]) == stripped(
            synthesize(benchmark("lion"))
        )
