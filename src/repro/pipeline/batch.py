"""Batch synthesis: many tables through the pass pipeline at once.

`BatchRunner` synthesises a sequence of flow tables and yields one
:class:`BatchItem` per table **in input order**, regardless of which
worker finishes first — the stream is deterministic, so downstream
consumers (the Table-1 printer, the JSON emitter, regression diffs) see
identical output for identical input no matter the parallelism.

``jobs > 1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
(synthesis is pure CPU — covering searches and minimisation — so
processes, not threads).  Tables and results cross the process boundary
by pickle; both are plain data.  ``jobs=1`` (or ``jobs=None`` on a
single-CPU box) runs serially in-process, where a shared
:class:`~repro.pipeline.cache.StageCache` makes repeated tables nearly
free.  A failing table never aborts the batch: its item carries the
error message and ``result=None``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..errors import ReproError
from ..flowtable.table import FlowTable
from .cache import StageCache
from .manager import PassEvent, PassManager
from .options import SynthesisOptions
from .spec import CacheSpec, PipelineSpec


@dataclass
class BatchItem:
    """Outcome of one table in a batch run.

    ``events`` is the per-pass telemetry of the run (name, wall-clock
    seconds, cache hit) — the :class:`~repro.pipeline.manager.PipelineReport`
    stream, flattened so it crosses process boundaries; ``seance batch
    --json`` emits it verbatim.  ``store_hit`` marks an item served
    whole from a content-addressed :class:`~repro.store.ResultStore`
    (no pass executed at all — ``events`` is empty).
    """

    index: int
    name: str
    result: object | None  # SynthesisResult on success
    error: str | None
    seconds: float
    cache_hits: tuple[str, ...] = ()
    events: tuple[PassEvent, ...] = ()
    store_hit: bool = False
    #: Domain exception class name of a failure (``"FlowTableError"``),
    #: so a stored failure can re-raise as its original type.
    error_type: str | None = None

    @classmethod
    def from_stored(cls, index: int, name: str, stored) -> BatchItem:
        """An item served whole from a result-store envelope."""
        return cls(
            index=index,
            name=name,
            result=stored.result,
            error=stored.error,
            seconds=0.0,
            store_hit=True,
            error_type=stored.error_type,
        )

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_message(error: ReproError) -> str:
    return str(error.args[0]) if error.args else repr(error)


#: Per-worker-process manager, built once by `_init_worker` so the
#: in-memory cache tier survives across the tables one worker handles.
_WORKER_MANAGER: PassManager | None = None


def _init_worker(
    spec_payload: dict, use_cache: bool, cache_path: str | None
) -> None:
    global _WORKER_MANAGER
    # Even without a disk tier, a memory-only per-worker cache is free
    # and serves repeated (table, options) pairs within one worker.  The
    # pipeline crosses the process boundary as its serialised spec (not
    # as pickled pass objects) — the same wire form `--spec` files use.
    cache = StageCache(path=cache_path) if use_cache else None
    spec = PipelineSpec.from_dict(spec_payload)
    _WORKER_MANAGER = spec.build_manager(cache=cache)


def _synthesize_one(
    index: int,
    table: FlowTable,
    options: SynthesisOptions,
) -> tuple[int, object | None, str | None, float, tuple, str | None]:
    """Worker body; module-level so ProcessPoolExecutor can pickle it."""
    start = time.perf_counter()
    manager = _WORKER_MANAGER or PassManager()
    try:
        result, report = manager.run_with_report(table, options)
        return (
            index,
            result,
            None,
            time.perf_counter() - start,
            tuple(report.events),
            None,
        )
    except ReproError as error:
        return (
            index,
            None,
            _error_message(error),
            time.perf_counter() - start,
            (),
            type(error).__name__,
        )


class BatchRunner:
    """Synthesises many tables with an ordered, deterministic result stream.

    Parameters
    ----------
    options:
        Applied to every table in the batch.  Mutually exclusive with
        ``spec`` (whose options then apply).
    jobs:
        Worker processes.  ``None`` → ``os.cpu_count()``; ``1`` → serial
        in-process (shares ``cache`` across tables and runs).
    cache:
        Stage cache for the serial path; overrides ``spec.cache``.
        Worker *processes* do not see the in-memory tier, but a
        disk-backed cache (``StageCache(path=...)``) is shared through
        the filesystem in every mode.
    spec:
        A :class:`~repro.pipeline.spec.PipelineSpec` selecting the pass
        list (and options, and — unless ``cache`` is given — the cache
        config).  Defaults to the paper pipeline.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or a
        directory path / backend to open one over).  Tables whose
        ``(table, spec)`` key is already stored are served whole —
        zero synthesis passes, ``item.store_hit`` set — and every
        freshly computed result (including deterministic synthesis
        failures) is written back, so repeat batches short-circuit
        entirely and shard workers publish through the same object.
    """

    def __init__(
        self,
        options: SynthesisOptions | None = None,
        jobs: int | None = None,
        cache: StageCache | None = None,
        spec: PipelineSpec | None = None,
        store=None,
    ):
        if spec is not None and options is not None:
            raise ValueError(
                "pass either options or a spec (whose options apply), "
                "not both"
            )
        self.spec = spec if spec is not None else PipelineSpec(
            options=options or SynthesisOptions(),
            # No implicit cache on the legacy path: a cache only exists
            # when the caller hands one over (or configures it in a
            # spec).
            cache=CacheSpec(enabled=False),
        )
        self.options = self.spec.options
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.cache = cache if cache is not None else self.spec.cache.build()
        from ..store.store import open_store

        self.store = open_store(store)

    # ------------------------------------------------------------------
    def iter_results(
        self, tables: Sequence[FlowTable]
    ) -> Iterator[BatchItem]:
        """Yield one item per table, in input order."""
        yield from self._iter_pairs(
            [(table, self.options) for table in tables]
        )

    def run(self, tables: Sequence[FlowTable]) -> list[BatchItem]:
        return list(self.iter_results(tables))

    def run_names(self, names: Iterable[str]) -> list[BatchItem]:
        """Synthesise built-in benchmarks by name."""
        from ..bench.suite import benchmark

        return self.run([benchmark(name) for name in names])

    def run_matrix(
        self,
        tables: Sequence[FlowTable],
        options_list: Sequence[SynthesisOptions],
    ) -> list[BatchItem]:
        """Cross tables × option sets through one worker pool.

        The shape of an ablation sweep: every table synthesised under
        every option set, ordered option-major (all tables under
        ``options_list[0]`` first).  One pool amortises process start-up
        over the whole sweep instead of paying it per option set.
        """
        return list(
            self._iter_pairs(
                [(t, o) for o in options_list for t in tables]
            )
        )

    def run_pairs(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> list[BatchItem]:
        """Run explicit ``(table, options)`` pairs, in order.

        The shard worker's entry point: a
        :class:`~repro.store.ShardedBatch` hands each shard its own
        slice of the matrix and the shared store does the rest.
        """
        return list(self._iter_pairs(pairs))

    # ------------------------------------------------------------------
    def _unit_spec(self, options: SynthesisOptions) -> PipelineSpec:
        """The spec whose fingerprint names one pair's computation."""
        if options == self.spec.options:
            return self.spec
        return self.spec.with_options(options)

    def _iter_pairs(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> Iterator[BatchItem]:
        if self.store is None:
            yield from self._iter_computed(pairs)
            return
        # Resolve the whole stream against the store first: hits are
        # served without touching a worker, misses keep their relative
        # order and run through the normal serial/parallel machinery,
        # and every computed outcome is written back as it streams out.
        hits: dict[int, BatchItem] = {}
        miss_pairs: list[tuple[FlowTable, SynthesisOptions]] = []
        for index, (table, options) in enumerate(pairs):
            stored = self.store.get_synthesis(
                table, self._unit_spec(options)
            )
            if stored is None:
                miss_pairs.append((table, options))
            else:
                hits[index] = BatchItem.from_stored(index, table.name, stored)
        computed = self._iter_computed(miss_pairs)
        for index, (table, options) in enumerate(pairs):
            if index in hits:
                yield hits[index]
                continue
            item = dataclasses.replace(next(computed), index=index)
            if item.ok:
                self.store.put_synthesis(
                    table, self._unit_spec(options), item.result
                )
            elif not item.error.startswith("worker failed:"):
                # Domain failures are deterministic outcomes worth
                # remembering; a dead worker (OOM kill) is not.
                self.store.put_synthesis_error(
                    table,
                    self._unit_spec(options),
                    item.error,
                    error_type=item.error_type,
                )
            yield item

    def _iter_computed(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> Iterator[BatchItem]:
        if self.jobs == 1 or len(pairs) <= 1:
            yield from self._iter_serial(pairs)
        else:
            yield from self._iter_parallel(pairs)

    def _iter_serial(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> Iterator[BatchItem]:
        manager = self.spec.build_manager(cache=self.cache)
        for index, (table, options) in enumerate(pairs):
            start = time.perf_counter()
            try:
                result, report = manager.run_with_report(table, options)
                yield BatchItem(
                    index=index,
                    name=table.name,
                    result=result,
                    error=None,
                    seconds=time.perf_counter() - start,
                    cache_hits=report.cache_hits,
                    events=tuple(report.events),
                )
            except ReproError as error:
                yield BatchItem(
                    index=index,
                    name=table.name,
                    result=None,
                    error=_error_message(error),
                    seconds=time.perf_counter() - start,
                    error_type=type(error).__name__,
                )

    def _iter_parallel(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> Iterator[BatchItem]:
        workers = min(self.jobs, len(pairs))
        # Worker processes cannot share the in-memory tier; a persistent
        # cache (disk directory or networked backend) is re-opened once
        # per worker (`_init_worker`) from its location string so warm
        # stages survive the pool and repeats within a worker stay
        # in-memory.
        cache_path = (
            self.cache.location if self.cache is not None else None
        )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.spec.to_dict(), self.cache is not None, cache_path),
        )
        try:
            futures = [
                pool.submit(_synthesize_one, index, table, options)
                for index, (table, options) in enumerate(pairs)
            ]
            # Input order, not completion order: determinism beats a
            # marginal head-of-line latency win for this stream size.
            for job_index, ((table, _), future) in enumerate(
                zip(pairs, futures)
            ):
                try:
                    (
                        index,
                        result,
                        error,
                        seconds,
                        events,
                        error_type,
                    ) = future.result()
                except Exception as error:  # noqa: BLE001
                    # A dead worker (OOM kill, unpicklable artifact)
                    # must not take the rest of the batch with it.
                    yield BatchItem(
                        index=job_index,
                        name=table.name,
                        result=None,
                        error=f"worker failed: "
                        f"{type(error).__name__}: {error}",
                        seconds=0.0,
                    )
                    continue
                yield BatchItem(
                    index=index,
                    name=table.name,
                    result=result,
                    error=error,
                    seconds=seconds,
                    cache_hits=tuple(
                        e.name for e in events if e.cache_hit
                    ),
                    events=tuple(events),
                    error_type=error_type,
                )
        finally:
            # Normal exhaustion: every future is done, this returns at
            # once.  An abandoned generator: cancel queued work instead
            # of blocking the consumer until the whole batch finishes.
            pool.shutdown(wait=False, cancel_futures=True)
