"""Spans around nvrp's layer functions, recorded from outside the program.

The tracer replaces a function at the place where the calling module
binds it (``nvrp.signal.make_propagator``, ``nvrp.cli.write_csv``, ...)
with a wrapper that records one span per call: name, start, end, parent
span, thread, and the matrix dimension or bytes written where the call
has one.  Spans stay in memory until the run ends.

A span's parent is the innermost open span of its own thread.  A span
opened by a worker thread with no open span of its own takes the
innermost open span of the thread that installed the tracer: nvrp starts
its worker threads only inside a layer call, so that span is the one
that handed the worker its job.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable


def _dim_of_result(args, kwargs, result):
    return int(result.shape[0])


def _dim_of_propagator(args, kwargs, result):
    return int(result.dim)


def _dim_of_pair(args, kwargs, result):
    return int(args[0].layout().total_dimension)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(result)


#: (layer name, binding modules, attribute, extractor of the span's size)
LAYERS = (
    ("hamiltonian.build_rp_hamiltonian", ("signal", "cli", "strongcoupling"),
     "build_rp_hamiltonian", _dim_of_result),
    ("dynamics.make_propagator", ("signal", "cli", "strongcoupling"),
     "make_propagator", _dim_of_propagator),
    ("signal.integrated_observables", ("signal", "ensemble"),
     "integrated_observables", _dim_of_pair),
    ("signal.observable_series", ("cli",), "observable_series", None),
    ("signal.spectrum", ("cli",), "spectrum", None),
    ("dynamics.singlet_yield_mean", ("cli",), "singlet_yield_mean", None),
    ("ensemble.ensemble_sweep", ("cli",), "ensemble_sweep", None),
    ("ensemble.sample_realization", ("ensemble",), "sample_realization", None),
    ("strongcoupling.level_structure", ("cli", "strongcoupling"), "level_structure", None),
    ("strongcoupling.peak_contrast", ("cli",), "peak_contrast", None),
    ("strongcoupling.count_resolved_peaks", ("cli",), "count_resolved_peaks", None),
    ("cli.write_csv", ("cli",), "write_csv", _bytes_written),
)


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers on nvrp's module bindings and removes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, Callable]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn: Callable, size_of) -> Callable:
        def traced(*args, **kwargs):
            me = threading.get_ident()
            stack = self._stacks.setdefault(me, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home) or [None]
                parent = home[-1] if me != self._home else None
            ident = next(self._ids)
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = size_of(args, kwargs, result) if size_of else None
            self.spans.append(Span(ident, name, start, end, parent, me, size))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, modules, attr, size_of in LAYERS:
            for mod_name in modules:
                module = importlib.import_module(f"nvrp.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"nvrp.{mod_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, size_of))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it that child spans cover, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.ident: s.duration - _covered(children.get(s.ident, []), s.start, s.end)
        for s in spans
    }


#: layers that every workload calls, so that their self times are never 0
SHARED_LAYERS = (
    "hamiltonian.build_rp_hamiltonian",
    "dynamics.make_propagator",
    "signal.integrated_observables",
    "cli.write_csv",
)


def in_result_line(name: str) -> bool:
    """Whether a per-layer metric goes into the result line or is only printed.

    A time of a layer that some workload never calls, or at a dimension it
    never runs, would read 0 on every run of that workload; those times
    are printed with the stage table instead.  Counts, bytes and ratios
    all go into the result line.
    """
    if name.endswith(".call_ms"):
        return False
    if name.endswith(".self_s"):
        return name.startswith(SHARED_LAYERS)
    return True


#: dimensions of the stage table
STAGE_DIMS = (12, 36, 64, 216, 864)
STAGE_LAYERS = (
    "hamiltonian.build_rp_hamiltonian",
    "dynamics.make_propagator",
    "signal.integrated_observables",
)


def repetition_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer calls, self time and bytes for one traced repetition."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for name, *_ in LAYERS:
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.self_s"] = sum(own[s.ident] for s in mine)
    out["cli.write_csv.bytes"] = sum(s.size or 0 for s in spans if s.name == "cli.write_csv")
    out["layers.self_sum_s"] = sum(own.values())
    busy = wall = 0.0
    for sweep in (s for s in spans if s.name == "ensemble.ensemble_sweep"):
        per_thread: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent == sweep.ident:
                per_thread.setdefault(s.thread, []).append((s.start, s.end))
        busy += sum(_covered(iv, sweep.start, sweep.end) for iv in per_thread.values())
        wall += threads * sweep.duration
    out["ensemble.worker_busy_ratio"] = busy / wall if wall else 0.0
    return out


def stage_call_ms(spans: list[Span]) -> dict[str, float]:
    """Median self time per call, ms, of each stage layer at each stage dimension.

    A dimension at which a layer made no call reads 0.
    """
    own = self_times(spans)
    out = {}
    for name in STAGE_LAYERS:
        for dim in STAGE_DIMS:
            times = [own[s.ident] for s in spans if s.name == name and s.size == dim]
            out[f"{name}.d{dim}.call_ms"] = 1e3 * statistics.median(times) if times else 0.0
    return out


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
