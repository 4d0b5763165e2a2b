"""Stage-cache behaviour: hits, misses, keys, disk persistence."""

import pytest

from repro.bench import benchmark
from repro.pipeline import (
    PassManager,
    StageCache,
    SynthesisOptions,
    run_fingerprint,
    stage_key,
    table_fingerprint,
)

ALL_STAGES = (
    "validate", "reduce", "assign", "outputs", "hazards", "fsv", "factor",
)


def stripped(result):
    d = result.to_dict()
    d.pop("stage_seconds")
    return d


class TestHitMiss:
    def test_first_run_misses_second_run_hits_everything(self):
        cache = StageCache()
        manager = PassManager(cache=cache)
        table = benchmark("lion")

        _, cold = manager.run_with_report(table)
        assert cold.cache_hits == ()
        assert cache.stores == len(ALL_STAGES)

        _, warm = manager.run_with_report(table)
        assert warm.cache_hits == ALL_STAGES
        assert cache.hits == len(ALL_STAGES)

    def test_cached_result_equals_uncached(self):
        cache = StageCache()
        manager = PassManager(cache=cache)
        table = benchmark("traffic")
        first = manager.run(table)
        second = manager.run(table)
        assert stripped(first) == stripped(second)

    def test_different_options_share_nothing(self):
        cache = StageCache()
        manager = PassManager(cache=cache)
        table = benchmark("lion")
        manager.run(table)
        _, report = manager.run_with_report(
            table, SynthesisOptions(reduce_mode="joint")
        )
        assert report.cache_hits == ()

    def test_different_tables_share_nothing(self):
        cache = StageCache()
        manager = PassManager(cache=cache)
        manager.run(benchmark("lion"))
        _, report = manager.run_with_report(benchmark("traffic"))
        assert report.cache_hits == ()

    def test_no_cache_means_no_hits_ever(self):
        manager = PassManager()  # cache=None
        table = benchmark("lion")
        manager.run(table)
        _, report = manager.run_with_report(table)
        assert report.cache_hits == ()


class TestKeys:
    def test_fingerprint_distinguishes_signal_names(self):
        table = benchmark("lion")
        renamed = table.with_name("other")
        assert table_fingerprint(table) != table_fingerprint(renamed)

    def test_fingerprint_stable_across_calls(self):
        table = benchmark("lion9")
        assert table_fingerprint(table) == table_fingerprint(table)

    def test_fingerprint_sees_outputs_of_unspecified_successor_cells(self):
        from repro.flowtable.table import Entry, FlowTable

        def cage(dont_care_bit):
            return FlowTable(
                inputs=["x"],
                outputs=["z"],
                states=["a", "b"],
                entries={
                    ("a", 0): Entry("a", (0,)),
                    ("a", 1): Entry("b", (None,)),
                    ("b", 1): Entry("b", (1,)),
                    ("b", 0): Entry(None, (dont_care_bit,)),
                },
                reset_state="a",
                name="cage",
            )

        # The cells differ only in the output bit of an
        # unspecified-successor entry — which still feeds output
        # compatibility during reduction, so the keys must differ.
        assert table_fingerprint(cage(0)) != table_fingerprint(cage(1))

    def test_run_fingerprint_covers_options(self):
        table = benchmark("lion")
        a = run_fingerprint(table, SynthesisOptions())
        b = run_fingerprint(table, SynthesisOptions(minimize=False))
        assert a != b

    def test_stage_key_depends_on_pass_prefix(self):
        prefix = run_fingerprint(benchmark("lion"), SynthesisOptions())
        assert stage_key(prefix, ("validate",)) != stage_key(
            prefix, ("validate", "reduce")
        )
        # reordering the prefix is a different lineage
        assert stage_key(prefix, ("reduce", "validate")) != stage_key(
            prefix, ("validate", "reduce")
        )
        # delimiter ambiguity: a pass literally named "a/b" must not
        # collide with the two-pass lineage ("a", "b")
        assert stage_key(prefix, ("a/b",)) != stage_key(prefix, ("a", "b"))

    def test_custom_pass_reusing_a_default_name_gets_no_hits(self):
        from repro.pipeline import PassManager, default_passes
        from repro.pipeline.passes import ReducePass

        class MyReducePass(ReducePass):
            """Same name, different implementation class."""

        cache = StageCache()
        table = benchmark("lion")
        PassManager(cache=cache).run(table)  # warm with the defaults

        swapped = [
            MyReducePass() if p.name == "reduce" else p
            for p in default_passes()
        ]
        _, report = PassManager(
            passes=swapped, cache=cache
        ).run_with_report(table)
        # keys carry the implementing class, so the substituted pass and
        # everything downstream of it must miss
        assert "validate" in report.cache_hits
        assert "reduce" not in report.cache_hits
        assert "assign" not in report.cache_hits


class TestDiskTier:
    def test_warm_disk_cache_survives_a_new_cache_object(self, tmp_path):
        table = benchmark("lion")
        first = PassManager(cache=StageCache(path=tmp_path)).run(table)

        fresh = StageCache(path=tmp_path)
        manager = PassManager(cache=fresh)
        second, report = manager.run_with_report(table)
        assert report.cache_hits == ALL_STAGES
        assert stripped(first) == stripped(second)

    def test_corrupt_disk_entries_are_misses(self, tmp_path):
        table = benchmark("lion")
        PassManager(cache=StageCache(path=tmp_path)).run(table)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        _, report = PassManager(
            cache=StageCache(path=tmp_path)
        ).run_with_report(table)
        assert report.cache_hits == ()

    def test_memory_tier_is_bounded(self):
        cache = StageCache(max_entries=2)
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        cache.put("c", {"x": 3})
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted (FIFO)
        assert cache.get("c") == {"x": 3}


class TestFacadeCache:
    def test_seance_threads_a_cache_through(self):
        from repro import api

        session = api.load(benchmark("lion")).with_cache(StageCache())
        session.run()
        result = session.run()
        # warm run: every stage restored, so the total is tiny but the
        # stage keys are all still present
        assert tuple(result.stage_seconds) == ALL_STAGES
