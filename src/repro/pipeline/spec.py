"""Declarative pipeline configuration: the :class:`PipelineSpec`.

A spec is everything a synthesis run is configured by, as plain data:

* the **pass list** — registry keys (:mod:`repro.pipeline.registry`),
* the **options** — a :class:`~repro.pipeline.options.SynthesisOptions`,
* the **cache config** — a :class:`CacheSpec`.

Because all three are names and scalars, a spec round-trips through JSON
(``to_dict``/``from_dict``, strictly: unknown keys are errors, and
re-serialising a deserialised spec is byte-identical), which is what the
sharded-batch and remote-store roadmap items need: an ablation run is
reproducible from a spec file alone (``seance synth --spec SPEC.json``),
and :meth:`fingerprint` names a configuration content-addressably for
cross-machine work-splitting.

Cache interaction: the spec's pass keys are embedded in the stage-cache
lineage by the :class:`~repro.pipeline.manager.PassManager` (see
:data:`~repro.pipeline.cache.stage_key`), and the options are hashed
into the run prefix — so two specs share exactly the stage keys of
their common (options, pass-prefix) history and nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SynthesisError
from .cache import StageCache
from .manager import PassManager
from .options import SynthesisOptions
from .registry import DEFAULT_PIPELINE, registered_passes, resolve_passes
from .registry import substitute as _substitute

#: Bump when the spec dictionary layout changes incompatibly.
SPEC_FORMAT_VERSION = 1


def _require_keys(payload: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SynthesisError(
            f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class CacheSpec:
    """Stage-cache configuration, as data.

    ``enabled=False`` disables caching entirely; ``path`` adds the disk
    tier (shared across processes/invocations); ``max_entries`` bounds
    the in-memory tier.
    """

    enabled: bool = True
    path: str | None = None
    max_entries: int = 4096

    def build(self) -> StageCache | None:
        """Materialise the configured cache (None when disabled).

        An unusable ``path`` raises a domain error (so CLI consumers
        report it cleanly) rather than a raw OSError.
        """
        if not self.enabled:
            return None
        try:
            return StageCache(path=self.path, max_entries=self.max_entries)
        except OSError as error:
            raise SynthesisError(
                f"cannot use stage-cache directory {self.path!r}: {error}"
            ) from error

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "path": self.path,
            "max_entries": self.max_entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheSpec":
        if not isinstance(payload, dict):
            raise SynthesisError(
                f"cache spec must be an object, got {type(payload).__name__}"
            )
        _require_keys(payload, {"enabled", "path", "max_entries"}, "cache spec")
        spec = cls(
            enabled=payload.get("enabled", True),
            path=payload.get("path"),
            max_entries=payload.get("max_entries", 4096),
        )
        if not isinstance(spec.enabled, bool):
            raise SynthesisError("cache spec 'enabled' must be a boolean")
        if spec.path is not None and not isinstance(spec.path, str):
            raise SynthesisError("cache spec 'path' must be a string or null")
        if not isinstance(spec.max_entries, int) or spec.max_entries < 1:
            raise SynthesisError(
                "cache spec 'max_entries' must be a positive integer"
            )
        return spec


def _options_to_dict(options: SynthesisOptions) -> dict:
    return {f.name: getattr(options, f.name)
            for f in dataclasses.fields(SynthesisOptions)}


def _options_from_dict(payload: dict) -> SynthesisOptions:
    if not isinstance(payload, dict):
        raise SynthesisError(
            f"options must be an object, got {type(payload).__name__}"
        )
    fields = {f.name for f in dataclasses.fields(SynthesisOptions)}
    _require_keys(payload, fields, "options")
    try:
        return SynthesisOptions(**payload)
    except TypeError as error:
        raise SynthesisError(f"bad options: {error}") from error


@dataclass(frozen=True)
class PipelineSpec:
    """A named, serialisable pipeline configuration.

    Immutable; the ``with_*``/:meth:`substitute` builders derive new
    specs.  Pass names are validated against the registry on
    construction, so a typo fails at spec-build time, not mid-run.
    """

    passes: tuple[str, ...] = DEFAULT_PIPELINE
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    cache: CacheSpec = field(default_factory=CacheSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise SynthesisError("a pipeline spec needs at least one pass")
        known = set(registered_passes())
        unknown = [key for key in self.passes if key not in known]
        if unknown:
            raise SynthesisError(
                f"unknown pass name(s) {unknown}; registered passes: "
                f"{', '.join(sorted(known))}"
            )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def with_passes(self, *passes: str) -> "PipelineSpec":
        """A spec running exactly ``passes`` (registry keys, in order)."""
        return dataclasses.replace(self, passes=tuple(passes))

    def substitute(self, *overrides: str) -> "PipelineSpec":
        """Swap stages by base name (``spec.substitute("hazards:off")``)."""
        return dataclasses.replace(
            self, passes=_substitute(self.passes, *overrides)
        )

    def with_options(
        self, options: SynthesisOptions | None = None, **overrides
    ) -> "PipelineSpec":
        """Replace the options (or update fields of the current ones)."""
        base = options if options is not None else self.options
        if overrides:
            try:
                base = dataclasses.replace(base, **overrides)
            except TypeError as error:
                raise SynthesisError(f"bad options: {error}") from error
        return dataclasses.replace(self, options=base)

    def with_cache(
        self, cache: CacheSpec | str | os.PathLike | None
    ) -> "PipelineSpec":
        """Set the cache config (a path means a disk-tier cache there)."""
        if cache is None:
            spec = CacheSpec(enabled=False)
        elif isinstance(cache, CacheSpec):
            spec = cache
        else:
            spec = CacheSpec(path=os.fspath(cache))
        return dataclasses.replace(self, cache=spec)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self) -> tuple:
        """Instantiate the pass list from the registry."""
        return resolve_passes(self.passes)

    def build_manager(self, cache: StageCache | None | object = ...) -> PassManager:
        """A :class:`PassManager` running this spec's pipeline.

        ``cache`` overrides the spec's cache config with an existing
        :class:`StageCache` instance (or explicit None); by default the
        configured cache is built fresh.
        """
        built = self.cache.build() if cache is ... else cache
        return PassManager(passes=self.resolve(), cache=built)

    def fingerprint(self) -> str:
        """Content hash naming this configuration (cache config excluded).

        Two specs with equal fingerprints synthesise identically; the
        cache config only decides where artifacts are stored, so it does
        not participate.  This is the key sharded batch runs partition
        work by.
        """
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    SPEC_FORMAT_VERSION,
                    self.passes,
                    self.options.fingerprint_items(),
                )
            ).encode()
        )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable form; ``from_dict`` round-trips it."""
        return {
            "format": SPEC_FORMAT_VERSION,
            "passes": list(self.passes),
            "options": _options_to_dict(self.options),
            "cache": self.cache.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys are errors)."""
        if not isinstance(payload, dict):
            raise SynthesisError(
                f"pipeline spec must be an object, got "
                f"{type(payload).__name__}"
            )
        _require_keys(
            payload, {"format", "passes", "options", "cache"}, "pipeline spec"
        )
        version = payload.get("format", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise SynthesisError(
                f"unsupported pipeline spec format {version!r} "
                f"(this build reads format {SPEC_FORMAT_VERSION})"
            )
        passes = payload.get("passes", list(DEFAULT_PIPELINE))
        if not isinstance(passes, (list, tuple)) or not all(
            isinstance(key, str) for key in passes
        ):
            raise SynthesisError("pipeline spec 'passes' must be a "
                                 "list of pass names")
        return cls(
            passes=tuple(passes),
            options=_options_from_dict(payload.get("options", {})),
            cache=CacheSpec.from_dict(payload.get("cache", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SynthesisError(
                f"pipeline spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PipelineSpec":
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise SynthesisError(
                f"cannot read pipeline spec {os.fspath(path)!r}: {error}"
            ) from error
        return cls.from_json(text)
