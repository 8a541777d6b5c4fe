"""Spans recorded from outside the program, around calls into each layer.

The benchmark never edits ``src/``: it replaces a layer's public function
with a timing wrapper in every ``repro`` module that holds a reference
to it.  A caller that imported the name (``from repro.trace.generator
import generate_trace``) looks it up in its own module, so each such
module is patched, not only the defining one.

Spans live in memory (one dict each) and are written out once, at the
end, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

#: Layer functions wrapped by :func:`install`: (defining module, name,
#: span name).  Each is patched wherever a ``repro`` module refers to it.
FUNCTION_LAYERS = (
    ("repro.experiments.registry", "run_experiment", "experiment"),
    ("repro.program.workloads", "build_workload", "program.build"),
    ("repro.program.reorder", "reorder_program", "program.build"),
    ("repro.trace.generator", "generate_trace", "trace.generate"),
    ("repro.branch.stream", "build_stream", "stream.build"),
    ("repro.core.engine", "build_engine", "engine.build"),
)

#: Methods wrapped on their class: (module, class, method, span name).
METHOD_LAYERS = (
    ("repro.core.runner", "SimulationRunner", "run", "runner.run"),
    ("repro.experiments.base", "ExperimentResult", "render", "report.render"),
    ("repro.service.client", "ServiceClient", "sweep", "service.sweep"),
)

#: Modules imported before patching, so that every module that refers
#: to a layer function by name already exists when :func:`install` scans.
PRELOAD = (
    "repro.experiments.registry",
    "repro.analysis.robustness",
    "repro.core.parallel",
    "repro.core.adaptive",
    "repro.core.vector",
    "repro.service.client",
)


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_group = 0
        #: Engine results observed (for the simulated-model counts).
        self.results: list = []
        #: Group of root spans opened without one (the pass sets it to the
        #: experiment id, or ``"setup"``).
        self.group_hint: str | None = None

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_group(self, prefix: str = "g") -> str:
        """A fresh span-group id."""
        with self._lock:
            self._next_group += 1
            return f"{prefix}{self._next_group}"

    def begin(self, name: str, label: str = "", group: object = None) -> dict:
        """Open a span; *group* starts a new group when given."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent["group"]
        elif group is None:
            group = self.group_hint or self.new_group()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "label": label,
            "group": group,
            "parent": parent["id"] if parent is not None else None,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, group_arg: int | None = None):
        """A wrapper of *fn* recording one span per call.

        With *group_arg*, the positional argument at that index names a
        new span group (for example the experiment id).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            group = None
            if group_arg is not None and len(args) > group_arg:
                group = str(args[group_arg])
            span = tracer.begin(name, group=group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def dump(self, path: Path) -> None:
        """Write every span, in start order, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s["start"])
        path.write_text(json.dumps(spans, separators=(",", ":")))


class _TracedEngine:
    """Engine proxy whose ``run`` is a span labelled by the backend."""

    def __init__(self, engine, tracer: Tracer) -> None:
        self._engine = engine
        self._tracer = tracer

    def run(self, trace, *args, **kwargs):
        backend = getattr(self._engine, "backend", type(self._engine).__name__)
        span = self._tracer.begin(f"engine.run.{backend}")
        span["instructions"] = trace.n_instructions
        try:
            result = self._engine.run(trace, *args, **kwargs)
        finally:
            self._tracer.end(span)
        self._tracer.results.append(result)
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _patch_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to *original* at
    *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer function and method."""
    import importlib

    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for module_name, attr, span_name in FUNCTION_LAYERS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if attr == "build_engine":
            wrapped = _wrap_build_engine(tracer, original)
        elif attr == "run_experiment":
            wrapped = tracer.wrap(original, span_name, group_arg=0)
        else:
            wrapped = tracer.wrap(original, span_name)
        _patch_everywhere(original, wrapped)
    for module_name, cls_name, method, span_name in METHOD_LAYERS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = getattr(cls, method)
        if method == "sweep":
            wrapped = _wrap_request(tracer, original, span_name)
        else:
            wrapped = tracer.wrap(original, span_name)
        setattr(cls, method, wrapped)


def _wrap_build_engine(tracer: Tracer, build_engine):
    @functools.wraps(build_engine)
    def traced(program, config, *args, **kwargs):
        span = tracer.begin("engine.build")
        stream = kwargs.get("stream", args[1] if len(args) > 1 else None)
        span["replay"] = stream is not None
        try:
            engine = build_engine(program, config, *args, **kwargs)
        finally:
            tracer.end(span)
        return _TracedEngine(engine, tracer)

    return traced


def _wrap_request(tracer: Tracer, sweep, span_name: str):
    """``ServiceClient.sweep``: each request opens its own span group."""

    @functools.wraps(sweep)
    def traced(self, request):
        span = tracer.begin(
            span_name, label=request.client, group=tracer.new_group("req")
        )
        span["cells"] = len(request.cells)
        try:
            return sweep(self, request)
        finally:
            tracer.end(span)

    return traced


class _DelayedEngine:
    """Engine proxy whose ``run`` busy-waits *fraction* of its own time."""

    def __init__(self, engine, fraction: float) -> None:
        self._engine = engine
        self._fraction = fraction

    def run(self, *args, **kwargs):
        start = time.perf_counter()
        result = self._engine.run(*args, **kwargs)
        until = time.perf_counter() + self._fraction * (
            time.perf_counter() - start
        )
        while time.perf_counter() < until:
            pass
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)


def inject_engine_delay(fraction: float) -> None:
    """Slow the engine layer: each engine run takes ``1 + fraction`` times
    as long.  Used to show that a gate trips on a known slowdown."""
    import importlib

    for module_name in PRELOAD:
        importlib.import_module(module_name)
    from repro.core import engine as engine_module

    original = engine_module.build_engine

    @functools.wraps(original)
    def delayed(*args, **kwargs):
        return _DelayedEngine(original(*args, **kwargs), fraction)

    _patch_everywhere(original, delayed)
