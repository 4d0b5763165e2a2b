"""The pass manager: runs a declarative pass list over a flow table.

`PassManager.run` is the engine behind :func:`repro.api.synthesize`
(and everything built on it — the CLI, the bench suite, the batch
runner).  For every pass it

* enforces the artifact contract (``requires`` present before, every
  ``provides`` present after);
* consults the content-hash :class:`~repro.pipeline.cache.StageCache`
  and, on a hit, restores the stage's artifacts instead of executing;
* times the stage (``stage_seconds``, keyed by stage name);
* wraps unexpected exceptions in :class:`PassError` naming the failing
  pass (domain :class:`~repro.errors.ReproError`\\ s — validation
  failures, USTT violations — propagate untouched, preserving the
  pre-pipeline contract).

A :class:`PipelineReport` of per-pass events (duration, cache hit) is
returned alongside the result by :meth:`PassManager.run_with_report`
and kept on :attr:`PassManager.last_report` for instrumentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ReproError, SynthesisError
from ..flowtable.table import FlowTable
from .cache import StageCache, run_fingerprint, stage_key
from .context import PipelineContext
from .options import SynthesisOptions
from .passes import Pass, default_passes


class PassError(SynthesisError):
    """A pass raised an unexpected (non-domain) exception.

    ``pass_name`` identifies the stage; the original exception is
    chained as ``__cause__``.
    """

    def __init__(self, pass_name: str, original: BaseException):
        super().__init__(
            f"pipeline pass {pass_name!r} failed: "
            f"{type(original).__name__}: {original}"
        )
        self.pass_name = pass_name


@dataclass(frozen=True)
class PassEvent:
    """One pass execution (or cache restore) inside a run."""

    name: str
    seconds: float
    cache_hit: bool


@dataclass
class PipelineReport:
    """Per-pass instrumentation of one `PassManager.run`.

    ``store_hit`` marks a run served whole from a content-addressed
    :class:`~repro.store.ResultStore`: no pass executed, so ``events``
    is empty — the telemetry contract warm-store acceptance tests pin.
    """

    table_name: str
    events: list[PassEvent] = field(default_factory=list)
    store_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return sum(event.seconds for event in self.events)

    @property
    def cache_hits(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events if e.cache_hit)

    def describe(self) -> str:
        lines = [f"pipeline run of {self.table_name!r}:"]
        if self.store_hit:
            lines.append("  (served whole from the result store)")
        for event in self.events:
            marker = "cached" if event.cache_hit else "ran"
            lines.append(
                f"  {event.name:10s} {marker:6s} {event.seconds * 1000:8.2f}ms"
            )
        lines.append(f"  {'total':10s} {'':6s} {self.total_seconds * 1000:8.2f}ms")
        return "\n".join(lines)


class PassManager:
    """Runs a pass list; reusable across tables and thread-compatible
    apart from ``last_report`` (instrumentation only).

    Parameters
    ----------
    passes:
        The pipeline, in execution order.  Defaults to the paper's
        seven Figure-3 stages (:func:`~repro.pipeline.passes.default_passes`).
    cache:
        A :class:`StageCache` shared across runs, or None to disable
        caching entirely.
    """

    def __init__(
        self,
        passes: tuple[Pass, ...] | list[Pass] | None = None,
        cache: StageCache | None = None,
    ):
        self.passes = tuple(passes) if passes is not None else default_passes()
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise SynthesisError(f"duplicate pass names in pipeline: {names}")
        self.cache = cache
        self.last_report: PipelineReport | None = None

    # ------------------------------------------------------------------
    def run(self, table: FlowTable, options: SynthesisOptions | None = None):
        """Synthesise ``table``; returns a
        :class:`~repro.core.result.SynthesisResult`."""
        result, _ = self.run_with_report(table, options)
        return result

    def run_with_report(
        self, table: FlowTable, options: SynthesisOptions | None = None
    ):
        """Like :meth:`run` but also returns the :class:`PipelineReport`."""
        options = options or SynthesisOptions()
        ctx = PipelineContext(table, options)
        report = PipelineReport(table_name=table.name)
        stage_seconds: dict[str, float] = {}

        prefix = (
            run_fingerprint(table, options) if self.cache is not None else ""
        )
        # Lineage entries carry the implementing class, not just the pass
        # name: a custom pass reusing a default name ("reduce") must not
        # be served the default implementation's cached artifacts.  For
        # registry-built passes the registry key rides along too, so a
        # PipelineSpec's pass list is fingerprinted into every stage key
        # prefix by prefix (substituted stages diverge, shared upstream
        # stages keep their keys).
        lineage: list[str] = []

        for p in self.passes:
            lineage.append(
                f"{p.name}={getattr(p, 'registry_key', '')}"
                f"@{type(p).__module__}.{type(p).__qualname__}"
            )
            start = time.perf_counter()
            cached = None
            key = ""
            if self.cache is not None and p.cacheable:
                key = stage_key(prefix, tuple(lineage))
                cached = self.cache.get(key)

            if cached is not None:
                ctx.restore(cached)
                hit = True
            else:
                missing = [req for req in p.requires if not ctx.has(req)]
                if missing:
                    raise SynthesisError(
                        f"pipeline pass {p.name!r} requires artifacts "
                        f"{missing} that no earlier pass provided "
                        f"(pipeline: {[q.name for q in self.passes]})"
                    )
                try:
                    p.run(ctx)
                except ReproError:
                    raise
                except Exception as error:
                    raise PassError(p.name, error) from error
                unprovided = [
                    out for out in p.provides if not ctx.has(out)
                ]
                if unprovided:
                    raise SynthesisError(
                        f"pipeline pass {p.name!r} did not provide "
                        f"declared artifacts {unprovided}"
                    )
                if self.cache is not None and p.cacheable:
                    self.cache.put(key, ctx.snapshot(p.provides))
                hit = False

            seconds = time.perf_counter() - start
            stage_seconds[p.name] = seconds
            report.events.append(PassEvent(p.name, seconds, hit))

        result = self._assemble(ctx, stage_seconds)
        self.last_report = report
        return result, report

    # ------------------------------------------------------------------
    def _assemble(self, ctx: PipelineContext, stage_seconds: dict[str, float]):
        """Bundle the context's artifacts into a SynthesisResult."""
        from ..core.result import SynthesisResult

        return SynthesisResult(
            source=ctx.table,
            reduction=ctx.get("reduction"),
            assignment=ctx.get("assignment"),
            spec=ctx.get("spec"),
            analysis=ctx.get("analysis"),
            fsv=ctx.get("fsv"),
            next_state=ctx.get("next_state"),
            outputs=ctx.get("outputs"),
            ssd=ctx.get("ssd"),
            stage_seconds=stage_seconds,
        )
