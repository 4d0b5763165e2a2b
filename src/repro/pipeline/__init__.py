"""The synthesis pass pipeline: manager, passes, stage cache, batch runner.

This package is the engine under :func:`repro.api.synthesize`.
The paper's seven Figure-3 steps are :class:`Pass` objects
(:mod:`repro.pipeline.passes`); :class:`PassManager` runs a declarative
pass list over a :class:`PipelineContext` artifact store with per-pass
timing, error wrapping and a content-hash :class:`StageCache`
(:mod:`repro.pipeline.cache`); :class:`BatchRunner`
(:mod:`repro.pipeline.batch`) fans a table list out over worker
processes with an ordered, deterministic result stream.

Typical use::

    from repro.pipeline import PassManager, StageCache

    manager = PassManager(cache=StageCache())
    result = manager.run(table)            # SynthesisResult
    result, report = manager.run_with_report(table)
    print(report.describe())               # per-pass ms + cache hits
"""

from .batch import BatchItem, BatchRunner
from .cache import (
    CACHE_FORMAT_VERSION,
    StageCache,
    run_fingerprint,
    stage_key,
    table_fingerprint,
)
from .context import PipelineContext
from .manager import PassError, PassEvent, PassManager, PipelineReport
from .options import SynthesisOptions
from .passes import (
    AssignPass,
    FactorPass,
    FsvPass,
    HazardsPass,
    OutputsPass,
    Pass,
    ReducePass,
    ValidatePass,
    default_passes,
)
from .registry import (
    DEFAULT_PIPELINE,
    base_name,
    create_pass,
    register_pass,
    registered_passes,
    resolve_passes,
    substitute,
)
from .spec import SPEC_FORMAT_VERSION, CacheSpec, PipelineSpec

__all__ = [
    "AssignPass",
    "BatchItem",
    "BatchRunner",
    "CACHE_FORMAT_VERSION",
    "CacheSpec",
    "DEFAULT_PIPELINE",
    "FactorPass",
    "FsvPass",
    "HazardsPass",
    "OutputsPass",
    "Pass",
    "PassError",
    "PassEvent",
    "PassManager",
    "PipelineContext",
    "PipelineReport",
    "PipelineSpec",
    "ReducePass",
    "SPEC_FORMAT_VERSION",
    "StageCache",
    "SynthesisOptions",
    "ValidatePass",
    "base_name",
    "create_pass",
    "default_passes",
    "register_pass",
    "registered_passes",
    "resolve_passes",
    "run_fingerprint",
    "stage_key",
    "substitute",
    "table_fingerprint",
]
