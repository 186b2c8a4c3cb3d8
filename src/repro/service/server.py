"""Sweep service: coalescing, degradation ladder, and the sync facade.

:class:`SweepService` is the client-facing layer over the
:class:`~repro.service.supervisor.Supervisor`:

* **Request coalescing** — concurrent clients asking for the same
  content key share one simulation: the first ``fetch`` creates the
  job task, later ones await it.  Together with the result cache
  (checked first), N clients sweeping overlapping grids perform each
  simulation exactly once — the drill asserts
  ``duplicate_simulations == 0``.
* **Worker-side persistence** — jobs carry the store directory; each
  worker writes its result into the sharded store itself (per-shard
  manifests keep the writers from contending), and the server caches
  the returned value memory-only so the entry is never written twice.
* **Degradation ladder** — when a job exhausts its retries the service
  may swap in a cheaper configuration instead of dead-lettering:
  ``exact``-scheduled jobs that blew their deadline retry under SMS
  (``exact->sms``); fast-sim jobs that *errored* retry on the reference
  interpreter (``fast->reference``).  The degraded result is stored
  under the **original** key with the substitution recorded in
  ``ProgramResult.meta`` — honest provenance, never a silent swap.
* **Crash-safe resume** — an optional
  :class:`~repro.service.checkpoint.SweepCheckpoint` journals the sweep
  spec and done/dead keys; a restarted server rebuilds its request list
  from the spec and the cache-first lookup makes completed jobs instant
  hits (and quietly re-runs any whose store entry a fault corrupted).

:class:`SupervisedExecutor` adapts the supervisor to the synchronous
``executor.map`` protocol, so ``Session``/``ExperimentContext`` (and
the ``repro.eval`` CLI) can run under supervision with no other change.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..machine.config import l0_config, unified_config
from ..pipeline.cache import ResultCache, result_fingerprint
from ..pipeline.executor import RunRequest, describe_request, execute_request
from ..sim.runner import SimOptions
from .checkpoint import SweepCheckpoint
from .faults import FaultPlan, truncate_entry
from .retry import JobFailure, JobFailureError, RetryPolicy
from .supervisor import Supervisor

# ----------------------------------------------------------------------
# Worker-side runners (module level: importable under any start method)
# ----------------------------------------------------------------------

#: Per-worker-process cache of opened result stores, keyed by store
#: directory — one store (and one manifest buffer) per worker, not per job.
_WORKER_STORES: dict[str, ResultCache] = {}


def _worker_store(store_dir: str) -> ResultCache:
    cache = _WORKER_STORES.get(store_dir)
    if cache is None:
        cache = ResultCache(store_dir)
        _WORKER_STORES[store_dir] = cache
    return cache


def _service_runner(payload, fault):
    """Execute one sweep job inside a worker: simulate, persist, return.

    ``payload`` is ``(store_key, request, store_dir, meta)``.  The
    result is stored under ``store_key`` — the *original* content key,
    which differs from ``request.key`` after a degradation rewrote the
    request.  A ``truncate`` fault tears the store write after the
    install (the returned in-memory value stays good; only later
    readers see the corruption, which is the point).
    """
    store_key, request, store_dir, meta = payload
    result = execute_request(request)
    if meta:
        result.meta.update(meta)
    if store_dir is not None:
        store = _worker_store(store_dir).store
        store.save(store_key, result, description=describe_request(request))
        store.flush()
        if fault is not None and fault.kind == "truncate":
            blob = store._file(store_key).read_bytes()
            truncate_entry(store, store_key, blob)
    return result


def _plain_runner(payload, fault):
    """Generic runner for :class:`SupervisedExecutor`: ``(fn, item)``."""
    fn, item = payload
    return fn(item)


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------


def degrade_request(payload, failure: JobFailure, applied: tuple[str, ...]):
    """Ladder hook: propose a cheaper payload for a dead job, or None.

    Rungs, each at most once per job:

    * deadline blown (``timeout``/``hung``) under the exact scheduler ->
      retry under SMS (the paper's fast heuristic): ``exact->sms``;
    * job *errored* on the fast-path executor -> retry on the reference
      interpreter (isolates fast-path bugs): ``fast->reference``.
    """
    store_key, request, store_dir, meta = payload
    options = request.options

    def rewrite(new_options: SimOptions, label: str):
        new_meta = dict(meta)
        new_meta["degraded"] = label
        new_meta["degraded_after"] = failure.kind
        new_request = replace(request, options=new_options)
        return (store_key, new_request, store_dir, new_meta), label

    if (
        failure.kind in ("timeout", "hung")
        and options.scheduler == "exact"
        and "exact->sms" not in applied
    ):
        return rewrite(replace(options, scheduler="sms"), "exact->sms")
    if (
        failure.kind == "error"
        and options.fast_sim
        and "fast->reference" not in applied
    ):
        return rewrite(replace(options, fast_sim=False), "fast->reference")
    return None


# ----------------------------------------------------------------------
# Sweep specs (checkpoint-journalable request grids)
# ----------------------------------------------------------------------

#: Named config grids a sweep spec may reference.  Each entry maps a
#: label to a config factory; labels keep the checkpoint JSON-able.
GRIDS = {
    # Figure 5's sweep: L0 buffers of 4/8/16/unbounded entries plus the
    # unified-L1 baseline they are normalised against.
    "fig5": (
        ("unified", lambda: unified_config()),
        ("l0-4", lambda: l0_config(4)),
        ("l0-8", lambda: l0_config(8)),
        ("l0-16", lambda: l0_config(16)),
        ("l0-unbounded", lambda: l0_config(None)),
    ),
    # Minimal smoke grid for drills and CI.
    "smoke": (
        ("unified", lambda: unified_config()),
        ("l0-8", lambda: l0_config(8)),
    ),
}


def sweep_spec(benchmarks, grid: str = "fig5", **option_knobs) -> dict:
    """JSON-able description of a sweep, journaled in the checkpoint."""
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r}; have {sorted(GRIDS)}")
    return {
        "benchmarks": list(benchmarks),
        "grid": grid,
        "options": dict(option_knobs),
    }


def requests_from_spec(spec: dict) -> list[RunRequest]:
    """Rebuild the request list a spec describes (resume path)."""
    options = SimOptions(**spec.get("options", {}))
    return [
        RunRequest(benchmark=name, config=factory(), options=options)
        for name in spec["benchmarks"]
        for _, factory in GRIDS[spec["grid"]]
    ]


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


@dataclass
class SweepReport:
    """What one ``sweep`` call did (results ride alongside, not in JSON)."""

    total: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    executed: int = 0
    duplicate_simulations: int = 0
    dead: list[JobFailure] = field(default_factory=list)
    supervisor: dict = field(default_factory=dict)
    results: dict[str, object] = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "duplicate_simulations": self.duplicate_simulations,
            "dead": [f.to_json() for f in self.dead],
            "supervisor": self.supervisor,
        }

    def fingerprints(self) -> dict[str, str]:
        """Canonical byte strings per key (byte-identity assertions)."""
        return {
            key: result_fingerprint(result)
            for key, result in sorted(self.results.items())
        }


class SweepService:
    """Async sweep server: cache-first, coalescing, supervised workers.

    ``store_dir`` is the worker-written sharded result store (None =
    memory-only).  ``checkpoint_path`` enables the resume journal.
    ``degrade=False`` disables the ladder (the chaos drill runs with it
    off so fault recovery stays byte-identical).
    ``exit_after`` hard-kills the *server process* (``os._exit``) after
    that many completions — the drill's mid-sweep crash lever.
    """

    def __init__(
        self,
        *,
        store_dir: str | Path | None = None,
        workers: int = 2,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        degrade: bool = True,
        checkpoint_path: str | Path | None = None,
        exit_after: int | None = None,
        poll_interval_s: float = 0.01,
    ) -> None:
        self._store_dir = None if store_dir is None else str(store_dir)
        self.cache = ResultCache(store_dir)
        self.checkpoint: SweepCheckpoint | None = None
        if checkpoint_path is not None:
            self.checkpoint = SweepCheckpoint.load(checkpoint_path) or SweepCheckpoint(
                path=Path(checkpoint_path)
            )
        self._exit_after = exit_after
        self.cache_hits = 0
        self.coalesced = 0
        self._inflight: dict[str, asyncio.Task] = {}
        self.supervisor = Supervisor(
            _service_runner,
            workers=workers,
            policy=policy,
            faults=faults,
            degrade=degrade_request if degrade else None,
            poll_interval_s=poll_interval_s,
            completion_hook=self._on_complete,
        )

    # -- lifecycle ------------------------------------------------------

    async def __aenter__(self) -> "SweepService":
        await self.supervisor.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.supervisor.stop()
        if self.checkpoint is not None:
            self.checkpoint.flush()
        self.cache.flush()

    # -- internals ------------------------------------------------------

    def _on_complete(self, key: str, result) -> None:
        # Runs in the supervisor loop the moment a job completes — i.e.
        # *before* any awaiting client resumes — so the checkpoint and
        # cache always lead the clients, and an ``exit_after`` kill
        # leaves a journal covering everything the workers finished.
        self.cache.put(key, result, persist=False)
        if self.checkpoint is not None:
            self.checkpoint.mark_done(key)
        if self._exit_after is not None:
            self._exit_after -= 1
            if self._exit_after <= 0:
                if self.checkpoint is not None:
                    self.checkpoint.flush()
                os._exit(42)  # simulated server crash (drill only)

    async def _run_job(self, request: RunRequest) -> object:
        key = request.key
        payload = (key, request, self._store_dir, {})
        future = self.supervisor.submit(key, payload, describe_request(request))
        try:
            return await future
        except JobFailureError as exc:
            if self.checkpoint is not None:
                self.checkpoint.mark_dead(exc.failure)
            raise

    # -- client surface -------------------------------------------------

    async def fetch(self, request: RunRequest):
        """One result: cache hit, join of an in-flight job, or new job."""
        key = request.key
        cached = self.cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        task = self._inflight.get(key)
        if task is None:
            task = asyncio.get_running_loop().create_task(self._run_job(request))
            self._inflight[key] = task
            task.add_done_callback(lambda t, k=key: self._inflight.pop(k, None))
        else:
            self.coalesced += 1
        return await task

    async def sweep(self, requests) -> SweepReport:
        """Fetch every request; dead letters are reported, not raised."""
        requests = list(requests)
        outcomes = await asyncio.gather(
            *(self.fetch(r) for r in requests), return_exceptions=True
        )
        report = SweepReport(total=len(requests))
        for request, outcome in zip(requests, outcomes):
            if isinstance(outcome, JobFailureError):
                report.dead.append(outcome.failure)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                report.results[request.key] = outcome
        stats = self.supervisor.stats
        report.cache_hits = self.cache_hits
        report.coalesced = self.coalesced
        report.executed = stats.completed
        report.duplicate_simulations = stats.duplicate_simulations
        report.supervisor = stats.to_json()
        if self.checkpoint is not None:
            self.checkpoint.flush()
        self.cache.flush()
        return report


async def run_sweep(
    spec: dict,
    *,
    store_dir: str | Path | None,
    checkpoint_path: str | Path | None = None,
    **service_kwargs,
) -> SweepReport:
    """Run (or resume) the sweep a spec describes, start to finish."""
    requests = requests_from_spec(spec)
    async with SweepService(
        store_dir=store_dir, checkpoint_path=checkpoint_path, **service_kwargs
    ) as service:
        if service.checkpoint is not None:
            service.checkpoint.spec = spec
        return await service.sweep(requests)


# ----------------------------------------------------------------------
# Synchronous executor facade
# ----------------------------------------------------------------------


class SupervisedExecutor:
    """Drop-in ``executor.map`` backed by the supervisor.

    Same contract as :class:`~repro.pipeline.executor.ParallelExecutor`
    — results in request order, first failure raises — but a SIGKILL'd
    or wedged worker is restarted and its job retried instead of
    poisoning the pool (``BrokenProcessPool``).  Plug into
    ``Session(executor=...)`` or ``repro.eval --supervised``.
    """

    def __init__(
        self, workers: int | None = None, *, policy: RetryPolicy | None = None
    ) -> None:
        self.workers = workers or os.cpu_count() or 1
        self.policy = policy or RetryPolicy()

    def map(self, requests, fn=execute_request) -> list:
        requests = list(requests)
        if not requests:
            return []
        return asyncio.run(self._amap(requests, fn))

    async def _amap(self, requests, fn) -> list:
        async with Supervisor(
            _plain_runner, workers=self.workers, policy=self.policy
        ) as supervisor:
            futures = []
            seen: set[str] = set()
            for i, request in enumerate(requests):
                key = getattr(request, "key", None) or f"item-{i}"
                if key in seen:
                    key = f"{key}#{i}"
                seen.add(key)
                description = (
                    describe_request(request)
                    if isinstance(request, RunRequest)
                    else None
                )
                futures.append(
                    supervisor.submit(key, (fn, request), description)
                )
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
        results = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
        return results
