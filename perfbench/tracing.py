"""Outside-in tracing: spans and counts recorded around public entry points.

Nothing here reaches inside the program.  A traced run swaps the
functions a workload calls (and the few module globals the campaign
looks up at call time) for timed wrappers; an untraced run calls the
same functions directly.  Spans stay in memory and are written once,
when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.store.backend import StoreBackend


class Tracer:
    """Spans (name, start, end, parent, item) plus per-round counts.

    Busy time and counts accumulate into the current round and are kept
    per round, so two runs of the same rounds can be checked for doing
    identical work.  Safe to use from several threads: each thread
    keeps its own span stack, so a span's parent is the innermost open
    span of the thread that opened it.  ``now`` is the clock spans are
    timed with.
    """

    def __init__(self, now=time.perf_counter) -> None:
        self.now = now
        self.spans: list[list] = []
        self.setup: dict = {}
        self.rounds: list[dict] = []
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = now()
        self._first_timed_span = 0

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, item=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            if item is None and parent is not None:
                item = self.spans[parent][4]
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, item])
        stack.append(index)
        start = self.now()
        try:
            yield
        finally:
            end = self.now()
            stack.pop()
            with self._lock:
                record = self.spans[index]
                record[1] = start - self._origin
                record[2] = end - self._origin
                self.busy[name] += end - start
                self.durations[name].append(end - start)

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Busy time measured elsewhere (by the program), per round."""
        with self._lock:
            self.busy[name] += seconds

    def end_round(self) -> None:
        """Close the current round: keep its counts, start a fresh one."""
        with self._lock:
            self.rounds.append(
                {"counts": dict(self.counts), "busy": dict(self.busy)}
            )
            self.counts = Counter()
            self.busy = defaultdict(float)

    def end_setup(self) -> None:
        """Set aside what set-up did, so rounds start from zero."""
        with self._lock:
            self.setup = {"counts": dict(self.counts), "busy": dict(self.busy)}
            self.counts = Counter()
            self.busy = defaultdict(float)
            self.durations = defaultdict(list)
            self._first_timed_span = len(self.spans)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded,
        over the rounds (set-up spans are left out).

        A layer is the first dotted component of a span name.  Children
        of a span run in its thread and nest inside it, so the part of
        its interval they cover is the sum of their durations.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _item in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: defaultdict = defaultdict(float)
        for index in range(self._first_timed_span, len(self.spans)):
            name, start, end, _parent, _item = self.spans[index]
            layers[name.split(".")[0]] += end - start - child_time[index]
        return dict(layers)

    def write(self, path) -> None:
        """All spans as JSON, one object per span, in opening order."""
        payload = [
            {
                "name": name,
                "start_s": round(start, 9),
                "end_s": round(end, 9),
                "parent": parent,
                "item": item,
            }
            for name, start, end, parent, item in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")

    def p50_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1000 if values else 0.0


# ----------------------------------------------------------------------
# Wrappers around the program's public entry points
# ----------------------------------------------------------------------
class TimedPass:
    """A pipeline pass that records a ``pipeline.<name>`` span per run.

    Carries the wrapped pass's contract unchanged, so a
    :class:`~repro.pipeline.manager.PassManager` runs it exactly as it
    would the pass itself.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.requires = inner.requires
        self.provides = inner.provides
        self.cacheable = inner.cacheable
        self.registry_key = getattr(inner, "registry_key", "")

    def run(self, ctx) -> None:
        with self._tracer.span(f"pipeline.{self.name}"):
            self._inner.run(ctx)


class TimedBackend(StoreBackend):
    """A :class:`StoreBackend` that times and counts every operation.

    Busy time is what the caller sees, so it includes waiting for the
    wrapped backend's connection lock.
    """

    def __init__(self, inner: StoreBackend, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer

    def _op(self, op: str, call, *args):
        self._tracer.count(f"store.{op}.calls")
        with self._tracer.span(f"store.{op}"):
            return call(*args)

    def read(self, name):
        data = self._op("read", self.inner.read, name)
        if data is not None:
            self._tracer.count("store.bytes_read", len(data))
        return data

    def write(self, name, data):
        self._tracer.count("store.bytes_written", len(data))
        return self._op("write", self.inner.write, name, data)

    def write_if_absent(self, name, data):
        written = self._op(
            "write_if_absent", self.inner.write_if_absent, name, data
        )
        if written:
            self._tracer.count("store.bytes_written", len(data))
        return written

    def delete(self, name):
        return self._op("delete", self.inner.delete, name)

    def stat(self, name):
        return self._op("stat", self.inner.stat, name)

    def names(self, prefix=""):
        return iter(self._op("names", lambda: list(self.inner.names(prefix))))

    def describe(self):
        return f"timed {self.inner.describe()}"


class RecordingFactory:
    """A ``simulator_factory`` that keeps every simulator it builds."""

    def __init__(self, factory):
        self._factory = factory
        self.built: list = []

    def __call__(self, *args, **kwargs):
        sim = self._factory(*args, **kwargs)
        self.built.append(sim)
        return sim


def record_kernel(tracer: Tracer, sims) -> None:
    """Fold the kernel telemetry of finished simulators into counts."""
    for sim in sims:
        tracer.count("sim.kernel.events", sim.events_processed)
        stats = getattr(sim, "kernel_stats", None)
        if stats is None:
            continue
        tracer.count(f"sim.kernel.path.{stats['path']}")
        tracer.count("sim.kernel.replayed_events", stats["replayed_events"])
        tracer.count("sim.kernel.fronts", stats["fronts"])
        tracer.count("sim.kernel.front_events", stats["front_events"])
        tracer.count(
            "sim.kernel.migrations", sum(stats["migrations"].values())
        )


def traced_validate_walk(validate_walk, tracer: Tracer):
    """``validate_walk`` recording a ``sim.cell`` span, cycle and dirty
    counts, and the kernel telemetry of the simulator it built."""
    default_factory = (
        inspect.signature(validate_walk)
        .parameters["simulator_factory"]
        .default
    )

    def wrapper(machine, walk, *args, simulator_factory=None, **kwargs):
        factory = RecordingFactory(simulator_factory or default_factory)
        with tracer.span("sim.cell"):
            summary = validate_walk(
                machine, walk, *args, simulator_factory=factory, **kwargs
            )
        tracer.count("sim.cells")
        tracer.count("sim.cycles", summary.total)
        tracer.count("sim.dirty_cells", int(not summary.all_clean))
        record_kernel(tracer, factory.built)
        return summary

    return wrapper


def traced(function, tracer: Tracer, span: str):
    """``function`` inside a span of the given name, counted per call."""

    def wrapper(*args, **kwargs):
        tracer.count(f"{span}.calls")
        with tracer.span(span):
            return function(*args, **kwargs)

    return wrapper
