"""Span tracing of the lpc layers, installed from outside the library.

:meth:`Tracer.install` rebinds, in every ``lpc`` module, each name that
refers to a function of *another* ``lpc`` module, to a wrapper that records
a span.  It does the same for the dense factor, inverse and solve entry
points of ``numpy.linalg`` and ``scipy.linalg`` that ``lpc`` reaches, and
for the harness's ``ThreadPoolExecutor``, so pool tasks and the time the
submitting thread waits for them are visible.  :meth:`Tracer.uninstall`
restores every binding.  Nothing in ``lpc`` is edited.

A span records name, layer, start, end, parent span, run id and thread.
Spans stay in memory; :func:`layer_metrics` reduces them after the run.
A layer is the top-level ``lpc`` module a function belongs to
(``lpc.experiments.runner`` -> ``experiments``); the linalg entry points
are layer ``linalg`` and are reported under ``core``.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy.linalg
import scipy.linalg

LINALG = "linalg"
WAIT = "wait"  # the submitting thread blocked on a pool; in no layer

# Dense factor / inverse / solve entry points, by kind: those lpc reaches
# today and those a ridge or theory refactor would reach instead.  An
# inverse or an eigendecomposition counts as a factorization.
_LINALG_KINDS = {
    "cho_factor": "factor",
    "cholesky": "factor",
    "lu_factor": "factor",
    "eigh": "factor",
    "inv": "factor",
    "cho_solve": "solve",
    "lu_solve": "solve",
    "solve": "solve",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rhs_columns(args, kwargs) -> int:
    b = args[1] if len(args) > 1 else kwargs.get("b")
    ndim = getattr(b, "ndim", 1)
    return 1 if ndim < 2 else int(b.shape[-1])


# Counters read from a call's arguments or its return value, by span name.
_COUNTERS = {
    "datasets.generate_gmm": lambda a, k, r: {"floats": r.X.size},
    "datasets.flip_labels": lambda a, k, r: {"floats": r.n},
    "noise.estimate_noise_rates": lambda a, k, r: {
        "newton_iters": r.iterations,
        "unconverged": int(not r.newton_converged),
        "high_residual": int(r.high_residual),
    },
    "multiclass.search_alpha_beta": lambda a, k, r: {
        "candidates": r.candidate_accuracy.size
    },
    "experiments.emit_report": lambda a, k, r: {
        "bytes": sum(os.path.getsize(path) for path in r)
    },
    "linalg.cho_solve": lambda a, k, r: {"rhs": _rhs_columns(a, k)},
    "linalg.lu_solve": lambda a, k, r: {"rhs": _rhs_columns(a, k)},
    "linalg.solve": lambda a, k, r: {"rhs": _rhs_columns(a, k)},
}


def layer_of(module_name: str) -> str:
    """``lpc.experiments.runner`` -> ``experiments``."""
    return module_name.split(".")[1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, layer, fn, args, kwargs, parent=None, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span.

        The parent is the innermost open span of this thread unless given.
        """
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counter = _COUNTERS.get(name)
            counts = dict(counts or {})
            if counter and result is not None:
                counts.update(counter(args, kwargs, result))
            self.spans.append(
                Span(sid, name, layer, start, end, parent, self.run,
                     threading.get_ident(), counts)
            )

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        linalg_fns = {
            id(getattr(mod, name)): name
            for mod in (numpy.linalg, scipy.linalg)
            for name in _LINALG_KINDS
            if hasattr(mod, name)
        }
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("lpc.") and not hasattr(m, "__path__")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is ThreadPoolExecutor:
                    self._patch(mod, attr, _traced_pool(self))
                elif id(obj) in linalg_fns:
                    name = linalg_fns[id(obj)]
                    self._patch(mod, attr, self.wrap(f"{LINALG}.{name}", LINALG, obj))
                elif (
                    isinstance(obj, types.FunctionType)
                    and (obj.__module__ or "").startswith("lpc.")
                    and obj.__module__ != mod.__name__
                ):
                    layer = layer_of(obj.__module__)
                    self._patch(mod, attr, self.wrap(f"{layer}.{obj.__name__}", layer, obj))
        # lpc reaches these through the module attribute (``np.linalg.solve``)
        for name in [n for n in _LINALG_KINDS if hasattr(numpy.linalg, n)]:
            fn = getattr(numpy.linalg, name)
            self._patch(numpy.linalg, name, self.wrap(f"{LINALG}.{name}", LINALG, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _traced_pool(tracer: Tracer):
    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.workers = self._max_workers

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            return super().submit(
                tracer.call, "experiments.pool_task", "experiments", fn, args, kwargs, parent
            )

        def map(self, fn, *iterables, **kwargs):
            # Results are collected eagerly, so the wait is one span; the
            # harness consumes the whole map at once anyway.
            def collect():
                return list(ThreadPoolExecutor.map(self, fn, *iterables, **kwargs))

            counts = {"workers": self.workers}
            return iter(tracer.call("pool.wait", WAIT, collect, (), {}, counts=counts))

    return TracedThreadPoolExecutor


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its children on the same
    thread.  Children on other threads (pool tasks) run in parallel and are
    not subtracted; the submitting thread's wait is its own ``pool.wait``
    child."""
    by_id = {s.id: s for s in spans}
    out = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out[parent.id] -= s.duration
    return out


def _run_metrics(spans: list[Span], loo_fallbacks: int) -> dict[str, float]:
    self_s = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def seconds(selected):
        return sum(s.duration for s in selected)

    def counted(selected, key):
        return sum(s.counts.get(key, 0) for s in selected)

    m: dict[str, float] = {}
    for layer in ("datasets", "core", "theory", "noise", "multiclass"):
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        layers = (layer, LINALG) if layer == "core" else (layer,)
        m[f"{layer}.self_s"] = sum(self_s[s.id] for s in spans if s.layer in layers)
    m["datasets.mfloats_drawn"] = counted(spans, "floats") / 1e6
    for kind in ("factor", "solve"):
        selected = named(*(f"{LINALG}.{n}" for n, k in _LINALG_KINDS.items() if k == kind))
        m[f"core.{kind}_count"] = len(selected)
        m[f"core.{kind}_s"] = seconds(selected)
    m["core.solve_rhs"] = counted(spans, "rhs")
    m["core.loo_fallbacks"] = loo_fallbacks
    for key in ("newton_iters", "unconverged", "high_residual"):
        m[f"noise.{key}"] = counted(spans, key)
    search = named("multiclass.search_alpha_beta")
    m["multiclass.candidates_per_s"] = (
        counted(search, "candidates") / seconds(search) if search else 0.0
    )
    m["experiments.self_s"] = sum(self_s[s.id] for s in spans if s.layer == "experiments")
    emit = named("experiments.emit_report")
    m["experiments.emit_s"] = seconds(emit)
    m["experiments.bytes_written"] = counted(emit, "bytes")
    waits = named("pool.wait")
    capacity = sum(s.duration * s.counts["workers"] for s in waits)
    m["experiments.pool_utilization"] = (
        seconds(named("experiments.pool_task")) / capacity if capacity else 0.0
    )
    return m


def layer_metrics(spans: list[Span], loo_fallbacks: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of each traced run, then the lower median over runs
    (an actual run's value, so counts stay whole)."""
    runs: dict[int, list[Span]] = {}
    for s in spans:
        runs.setdefault(s.run, []).append(s)
    per_run = [_run_metrics(runs[r], loo_fallbacks.get(r, 0)) for r in sorted(runs)]
    per_run = per_run or [_run_metrics([], 0)]
    return {key: statistics.median_low(m[key] for m in per_run) for key in per_run[0]}


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.id, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
         "parent": s.parent, "run": s.run, "thread": s.thread, **s.counts}
        for s in spans
    ]
