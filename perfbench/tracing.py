"""Span and counter tracing for the benchmark, applied from outside ``src/``.

:func:`install` wraps the public entry points of each layer (see
``LAYERS.md`` for the map) with a function that keeps a span stack.  A
span's *self time* is its duration minus the time covered by its child
spans; the benchmark's own root span therefore ends up holding exactly
the time no wrapped layer claimed (``unattributed``), so the layer self
times plus that remainder add up to the traced region by construction.

Two kinds of span are kept in memory:

* coarse spans (compiles, scheduler calls, trace runs, store calls, ...)
  are recorded one by one with name, start, end, parent span and the
  request they belong to, and written as JSONL when the run ends;
* hot spans (the memory models, millions of calls per run) are only
  aggregated per layer and operation, because one record per call would
  cost more memory than the run itself.

Nested calls within one memory layer (``load_run`` calling ``load``)
are not spanned again: they count once, at the outermost facade call.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

FRONTEND_PASSES = frozenset(
    ("select-unroll", "apply-unroll", "mem-disambiguation", "build-ddg")
)

#: Pass name -> layer for ``Pass.__call__``; unlisted passes are
#: ``passes.backend``.
_PASS_LAYERS = {
    **{name: "passes.frontend" for name in FRONTEND_PASSES},
    "select-policy": "scheduler.sms",
    "modulo-schedule": "scheduler.sms",
    "exact-schedule": "scheduler.exact",
}

_MEMORY_METHODS = (
    "load",
    "store",
    "prefetch",
    "invalidate_l0",
    "reset",
    "load_run",
    "store_run",
    "shift_time",
    "state_fingerprint",
)
_L0_METHODS = (
    "find",
    "access",
    "fill_linear",
    "fill_interleaved",
    "store_update",
    "invalidate_matching",
    "invalidate_all",
    "is_edge_element",
    "entries",
    "shift_time",
    "fingerprint",
)


class Tracer:
    """Span stack and per-layer aggregates of one process.

    The containers are cleared in place by :meth:`reset`, never
    replaced, because the installed wrappers hold direct references to
    them.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child_s, layer, span_id]
        self.self_s: dict = defaultdict(float)  # (layer, op) -> seconds
        self.incl_s: dict = defaultdict(float)  # (layer, op) -> seconds
        self.calls: dict = defaultdict(int)  # (layer, op) -> calls
        self.counters: dict = defaultdict(float)
        self.spans: list[tuple] = []
        self.request = ""
        self._ids = [0]

    def reset(self) -> None:
        self.stack.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counters.clear()
        self.spans.clear()
        self.request = ""
        self._ids[0] = 0

    def _next_id(self) -> str:
        self._ids[0] += 1
        return f"{os.getpid()}:{self._ids[0]}"

    def span(self, layer: str, op: str, fn, *args, **kwargs):
        """Run ``fn`` inside a recorded span (the benchmark's own spans)."""
        return _recorded(self, fn, layer, op)(*args, **kwargs)

    def export(self) -> dict:
        """Plain-data snapshot (crosses process boundaries pickled)."""
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }


class Profile:
    """Aggregates of a traced region: this process plus its workers.

    ``local`` holds only this process's spans (the ones the accounting
    identity covers); ``total`` adds every worker's spans on top.
    """

    def __init__(self, local: dict) -> None:
        self.local = local
        self.total = {
            "self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(int),
            "counters": defaultdict(float),
        }
        self.spans = list(local["spans"])
        self.add(local, spans=False)

    def add(self, snapshot: dict, *, spans: bool = True) -> None:
        for kind in ("self_s", "incl_s", "calls", "counters"):
            into = self.total[kind]
            for key, value in snapshot[kind].items():
                into[key] += value
        if spans:
            self.spans.extend(snapshot["spans"])

    # -- queries ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(
            (v for (lay, _), v in self.total["self_s"].items() if lay == layer), 0.0
        )

    def layer_calls(self, layer: str) -> int:
        return sum(v for (lay, _), v in self.total["calls"].items() if lay == layer)

    def op_incl(self, layer: str, *ops: str) -> float:
        return sum((self.total["incl_s"].get((layer, op), 0.0) for op in ops), 0.0)

    def op_calls(self, layer: str, *ops: str) -> int:
        return sum(self.total["calls"].get((layer, op), 0) for op in ops)

    def counter(self, name: str) -> float:
        return self.total["counters"].get(name, 0.0)

    def local_self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (layer, _), value in self.local["self_s"].items():
            out[layer] += value
        return dict(out)

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "run", **header}) + "\n")
            for span_id, parent, layer, op, start, end, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": op,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            for (layer, op), seconds in sorted(self.total["self_s"].items()):
                fh.write(
                    json.dumps(
                        {
                            "kind": "aggregate",
                            "layer": layer,
                            "name": op,
                            "calls": self.total["calls"].get((layer, op), 0),
                            "self_s": seconds,
                            "incl_s": self.total["incl_s"].get((layer, op), 0.0),
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _recorded(tracer: Tracer, fn, layer, op: str = "", after=None):
    """Wrapper that records one span per call.

    ``layer`` is a string, or a callable of the call's arguments that
    returns ``(layer, op)`` (``Pass.__call__`` picks its layer from the
    pass name).  ``after(args, result)`` updates counters.
    """
    stack, self_s, incl_s, calls = tracer.stack, tracer.self_s, tracer.incl_s, tracer.calls
    spans = tracer.spans

    def wrapper(*args, **kwargs):
        lay, name = layer(*args) if callable(layer) else (layer, op)
        span_id = tracer._next_id()
        parent = stack[-1][2] if stack else None
        frame = [0.0, lay, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            key = (lay, name)
            self_s[key] += duration - frame[0]
            incl_s[key] += duration
            calls[key] += 1
            if stack:
                stack[-1][0] += duration
            spans.append((span_id, parent, lay, name, start, end, tracer.request))
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _hot(tracer: Tracer, fn, layer: str, op: str, count=None):
    """Aggregate-only wrapper for the memory models' per-access methods."""
    stack, self_s, incl_s, calls = tracer.stack, tracer.self_s, tracer.incl_s, tracer.calls
    counters = tracer.counters
    key = (layer, op)

    def wrapper(*args, **kwargs):
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        if count is not None:
            counters["memory.accesses"] += count(args)
        frame = [0.0, layer, None]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self_s[key] += duration - frame[0]
            incl_s[key] += duration
            calls[key] += 1
            if stack:
                stack[-1][0] += duration

    wrapper.__wrapped__ = fn
    return wrapper


def _count_one(args) -> int:
    return 1


def _count_run(args) -> int:
    return len(args[2])  # (self, clusters, addrs, ...)


#: The wrappers installed in this process.  Module level because a forked
#: worker inherits them and must find its copy of the tracer.
_ACTIVE: "Instrumentation | None" = None


def worker_tracer() -> Tracer:
    """This process's tracer, emptied for one job; installs the wrappers
    if the process did not inherit them."""
    inst = _ACTIVE if _ACTIVE is not None else install(Tracer())
    inst.tracer.reset()
    return inst.tracer


class Instrumentation:
    """The installed wrappers of one process; :meth:`remove` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, wrapper) -> None:
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        global _ACTIVE
        _ACTIVE = None
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every layer entry point listed in ``LAYERS.md``."""
    from repro.memory.hierarchy import UnifiedMemory
    from repro.memory.interleaved import WordInterleavedMemory
    from repro.memory.l0buffer import L0Buffer
    from repro.memory.multivliw import MultiVLIWMemory
    from repro.pipeline import cache as cache_mod
    from repro.pipeline import compilecache, executor, passes
    from repro.pipeline.manifest import StoreManifest
    from repro.pipeline.session import Session
    from repro.scheduler.engine import ClusterScheduler
    from repro.scheduler.exact import ExactScheduler
    from repro.service.server import SupervisedExecutor
    from repro.sim import runner, trace

    inst = Instrumentation(tracer)
    counters = tracer.counters
    patch = inst._patch

    def rec(owner, name, layer, op=None, after=None):
        patch(owner, name, _recorded(tracer, owner.__dict__[name], layer, op or name, after))

    def pass_layer(self, artifact):
        return _PASS_LAYERS.get(self.name, "passes.backend"), self.name

    rec(passes.Pass, "__call__", pass_layer)

    def after_sms(args, schedule):
        counters["scheduler.sms.nodes"] += len(args[0].loop.body)

    def after_exact(args, schedule):
        meta = schedule.meta
        counters["scheduler.exact.calls"] += 1
        counters["scheduler.exact.nodes"] += meta.get("nodes_explored", 0)
        counters["scheduler.exact.fallback"] += bool(meta.get("fallback"))
        counters["scheduler.exact.improved"] += bool(meta.get("improved"))

    rec(ClusterScheduler, "schedule", "scheduler.sms", after=after_sms)
    rec(ExactScheduler, "schedule", "scheduler.exact", after=after_exact)

    rec(compilecache, "compile_cached", "compilecache")
    rec(compilecache.CompiledLoopCache, "get", "compilecache")
    rec(compilecache.CompiledLoopCache, "put", "compilecache")

    rec(trace, "static_trace", "trace.build")

    def after_run(args, result):
        counters["trace.runs"] += 1
        counters["trace.iters"] += result.simulated_iterations
        counters["trace.converged"] += bool(args[0].last_converged)

    rec(trace.TraceExecutor, "run", "trace.run", after=after_run)

    for cls, layer in (
        (UnifiedMemory, "memory.unified"),
        (MultiVLIWMemory, "memory.multivliw"),
        (WordInterleavedMemory, "memory.interleaved"),
    ):
        for name in _MEMORY_METHODS:
            count = {"load": _count_one, "store": _count_one}.get(name)
            if name in ("load_run", "store_run"):
                count = _count_run
            patch(cls, name, _hot(tracer, cls.__dict__[name], layer, name, count))
    for name in _L0_METHODS:
        patch(L0Buffer, name, _hot(tracer, L0Buffer.__dict__[name], "memory.l0", name))

    def after_program(args, result):
        for loop in result.loops:
            counters["runner.loops"] += 1
            counters["runner.exact_loops"] += loop.extrapolated.startswith("exact")

    rec(runner, "run_program", "runner", after=after_program)
    rec(runner, "plan_program", "runner")
    rec(runner, "simulate_plan", "runner")

    # RunRequest.key resolves ``cache_key`` through the executor module.
    key_fn = _recorded(tracer, cache_mod.cache_key, "store", "cache_key")
    patch(cache_mod, "cache_key", key_fn)
    patch(executor, "cache_key", key_fn)

    def after_get(args, result):
        counters["store.hits"] += result is not None

    rec(cache_mod.ResultCache, "get", "store", after=after_get)
    rec(cache_mod.ResultCache, "put", "store")
    rec(StoreManifest, "touch", "store", op="manifest")
    rec(StoreManifest, "flush", "store", op="manifest")

    rec(Session, "run", "session")
    rec(Session, "run_many", "session")
    rec(SupervisedExecutor, "map", "executor")
    global _ACTIVE
    _ACTIVE = inst
    return inst
