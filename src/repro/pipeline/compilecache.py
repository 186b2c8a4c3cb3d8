"""Content-addressed cache of compile artifacts.

Compilation is deterministic: one ``(loop, MachineConfig,
CompileOptions)`` triple always produces the same ``CompiledLoop``.
Multi-architecture sweeps therefore recompile identical inputs dozens of
times — Figure 5 alone compiles every loop once per L0 size even though
the sizes only differ in the *backend* of the pipeline.  This module
memoises at both granularities:

* **Full artifacts** — ``CompiledLoop`` keyed by a content hash of the
  whole triple (plus the code fingerprint), with the same in-memory +
  optional on-disk layout as :class:`~repro.pipeline.cache.ResultCache`
  (one file per key, atomic writes, corrupt entry == miss).  The disk
  store uses pickle: a ``CompiledLoop`` is a closed graph of plain
  dataclasses and round-trips exactly.
* **Frontend artifacts** — the products of the architecture-agnostic
  prefix of the pipeline (``select-unroll`` … ``build-ddg``), keyed only
  by the loop, the *core* machine parameters those passes read, and the
  forced unroll factor.  Configs differing in backend parameters (L0
  size, bus counts, distributed-L1 latencies, …) share one entry, so a
  Figure-5 sweep runs the unroll/memdep/DDG stages once per loop, not
  once per L0 size.

Both layers store *pickled bytes*, not live objects: every hit
deserialises a private object graph, so callers may freely mutate what
they get back (the schedule-validation tests deliberately corrupt
schedules) without poisoning the cache.  A round-trip costs a fraction
of a backend schedule.  ``cache.stats`` counts hits/misses at both
layers so tests can assert "a repeated sweep recompiles nothing".
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..ir.memdep import MemDepInfo
from ..machine.config import MachineConfig
from .artifact import CompilationArtifact, CompileOptions
from .cache import (
    KeyedFileStore,
    _canonical,
    code_fingerprint,
    describe_config,
    describe_options,
)
from .manifest import GCReport, VerifyReport
from .passes import frontend_config_fields


def loop_fingerprint(loop: Loop) -> dict:
    """Canonical (JSON-able) rendering of a loop's full content."""
    return _canonical(loop)


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compile_key(loop: Loop, config: MachineConfig, options: CompileOptions) -> str:
    """Content hash identifying one full compilation."""
    return _digest(
        {
            "code": code_fingerprint(),
            "loop": loop_fingerprint(loop),
            "config": _canonical(config),
            "options": _canonical(options),
        }
    )


def frontend_key(loop: Loop, config: MachineConfig, options: CompileOptions) -> str:
    """Content hash of the inputs the frontend passes actually consume.

    The config projection is *derived* from the frontend passes' own
    ``config_fields`` declarations (union via
    :func:`repro.pipeline.passes.frontend_config_fields`), so a pass
    cannot silently read an unkeyed field: an undeclared read is caught
    by the tracing guard test, and a declared one widens this key
    automatically.
    """
    return _digest(
        {
            "code": code_fingerprint(),
            "loop": loop_fingerprint(loop),
            "config": {
                name: _canonical(getattr(config, name))
                for name in frontend_config_fields()
            },
            "unroll_factor": options.unroll_factor,
        }
    )


@dataclass(frozen=True)
class FrontendArtifact:
    """Products of the architecture-agnostic pipeline prefix."""

    unroll_factor: int
    body: Loop
    dep_info: MemDepInfo
    ddg: DDG


@dataclass
class CompileCacheStats:
    """Hit/miss counters at both cache granularities."""

    full_hits: int = 0
    full_misses: int = 0
    frontend_hits: int = 0
    frontend_misses: int = 0
    #: Subset of ``full_hits`` served from the on-disk store (a disk hit
    #: also records recency in the store manifest — the LRU signal).
    full_disk_hits: int = 0

    @property
    def full_memory_hits(self) -> int:
        """Full hits served without touching the disk store."""
        return self.full_hits - self.full_disk_hits

    @property
    def compilations(self) -> int:
        """Backend compilations performed (== full misses)."""
        return self.full_misses


def _probed_pickle(data: bytes) -> bytes:
    """Disk decode for the artifact store: probe, then keep the bytes.

    The in-memory layer stores pickled bytes (each hit deserialises a
    private copy), so disk entries stay as bytes too; the probe load
    makes a torn write raise — and therefore count as a miss — at read
    time instead of at first use.
    """
    pickle.loads(data)
    return data


class CompiledLoopCache:
    """In-memory compile-artifact cache with an optional pickle store.

    Mirrors :class:`~repro.pipeline.cache.ResultCache`'s layout (via the
    shared :class:`~repro.pipeline.cache.KeyedFileStore`): memory first,
    one ``<key[0]>/<key>.pkl`` file per full artifact under ``path``, atomic
    per-process tmp writes, and a torn/corrupt/vanished entry is a
    miss, never a crash.  Frontend artifacts stay in-memory only —
    their value is intra-sweep sharing, and they are cheap relative to
    the backend schedule they feed.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._artifacts: dict[str, bytes] = {}
        self._frontends: dict[str, bytes] = {}
        self.stats = CompileCacheStats()
        self.path = Path(path) if path is not None else None
        self._store = (
            KeyedFileStore(path, ".pkl", lambda blob: blob, _probed_pickle)
            if path is not None
            else None
        )

    # -- full artifacts -------------------------------------------------

    def get(self, key: str):
        blob = self._artifacts.get(key)
        if blob is None and self._store is not None:
            blob = self._store.load(key)  # records recency in the manifest
            if blob is not None:
                self._artifacts[key] = blob
                self.stats.full_disk_hits += 1
        if blob is None:
            return None
        return pickle.loads(blob)

    def put(self, key: str, compiled, *, description: dict | None = None) -> None:
        blob = pickle.dumps(compiled)
        self._artifacts[key] = blob
        if self._store is not None:
            self._store.save(key, blob, description=description)

    # -- frontend artifacts ---------------------------------------------

    def get_frontend(self, key: str) -> FrontendArtifact | None:
        blob = self._frontends.get(key)
        return None if blob is None else pickle.loads(blob)

    def put_frontend(self, key: str, front: FrontendArtifact) -> None:
        self._frontends[key] = pickle.dumps(front)

    # -- maintenance ----------------------------------------------------

    @property
    def store(self) -> KeyedFileStore | None:
        return self._store

    def clear(self) -> None:
        """Drop all entries — only files this cache wrote."""
        self._artifacts.clear()
        self._frontends.clear()
        if self._store is not None:
            self._store.clear()

    def flush(self) -> None:
        """Persist any buffered manifest updates (recency hits)."""
        if self._store is not None:
            self._store.flush()

    def gc(self, **kwargs) -> GCReport:
        if self._store is None:
            return GCReport()
        return self._store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        if self._store is None:
            return VerifyReport()
        return self._store.verify()


def compile_cached(
    loop: Loop,
    config: MachineConfig,
    options: CompileOptions | None = None,
    *,
    cache: CompiledLoopCache | None = None,
):
    """Compile a loop through the cache (the hot compile path).

    Consults the full-artifact layer first; on a miss, reuses (or
    produces) the shared frontend artifact, then runs only the backend
    passes.  Returns the legacy ``CompiledLoop``.
    """
    from .passes import FRONTEND_PIPELINE, backend_pipeline

    options = options or CompileOptions()
    backend_pipeline(options.scheduler)  # fail fast on unknown schedulers
    cache = cache if cache is not None else get_compile_cache(None)

    # A wall-clock search budget makes the exact backend's output depend
    # on machine load: such artifacts must never be served to (or from)
    # other runs, so the full-artifact layer is bypassed entirely.  The
    # frontend products stay cacheable — they are deterministic — and so
    # is the SMS backend, which never reads the knob.
    cacheable = options.exact_time_budget_s is None or options.scheduler == "sms"

    key = compile_key(loop, config, options)
    compiled = cache.get(key) if cacheable else None
    if compiled is not None:
        cache.stats.full_hits += 1
        return compiled
    cache.stats.full_misses += 1

    artifact = CompilationArtifact(loop=loop, config=config, options=options)
    fkey = frontend_key(loop, config, options)
    front = cache.get_frontend(fkey)
    if front is not None:
        cache.stats.frontend_hits += 1
        artifact.unroll_factor = front.unroll_factor
        artifact.body = front.body
        artifact.dep_info = front.dep_info
        artifact.ddg = front.ddg
        artifact.trace.extend(FRONTEND_PIPELINE)
    else:
        cache.stats.frontend_misses += 1
        _frontend_manager().resume(artifact)
        assert artifact.unroll_factor is not None
        assert artifact.body is not None
        assert artifact.dep_info is not None
        assert artifact.ddg is not None
        cache.put_frontend(
            fkey,
            FrontendArtifact(
                unroll_factor=artifact.unroll_factor,
                body=artifact.body,
                dep_info=artifact.dep_info,
                ddg=artifact.ddg,
            ),
        )
    _backend_manager(options.scheduler).resume(artifact)
    compiled = artifact.compiled()
    # Flatten the simulator's fast-path event trace now so it rides the
    # cached (and persisted) artifact: warm runs — in-memory or from
    # disk — skip both scheduling *and* trace compilation.
    from ..sim.trace import static_trace

    static_trace(compiled)
    if options.analyze:
        # Certify before the artifact is persisted so the meta verdict
        # (and any proved_optimal downgrade) rides every future hit.
        from ..analysis.certify import certify_compiled

        certify_compiled(compiled, artifact_key=key)
    if cacheable:
        cache.put(
            key,
            compiled,
            description={
                "loop": loop.name,
                "scheduler": options.scheduler,
                "config": describe_config(config),
                "options": describe_options(options),
            },
        )
    return compiled


_FRONTEND_MANAGER: "PassManager | None" = None  # noqa: F821
#: One backend manager per scheduler backend (sms / exact / plug-ins):
#: the frontend is scheduler-agnostic, so every backend resumes over the
#: same shared frontend artifacts.
_BACKEND_MANAGERS: dict[str, "PassManager"] = {}  # noqa: F821


def _frontend_manager():
    global _FRONTEND_MANAGER
    if _FRONTEND_MANAGER is None:
        from .passes import FRONTEND_PIPELINE, PassManager

        _FRONTEND_MANAGER = PassManager(FRONTEND_PIPELINE)
    return _FRONTEND_MANAGER


def _backend_manager(scheduler: str = "sms"):
    manager = _BACKEND_MANAGERS.get(scheduler)
    if manager is None:
        from .passes import PassManager, backend_pipeline

        manager = PassManager(
            backend_pipeline(scheduler),
            assume=("unroll_factor", "body", "dep_info", "ddg"),
        )
        _BACKEND_MANAGERS[scheduler] = manager
    return manager


#: Process-wide cache instances, one per directory (None == memory-only).
#: Worker processes build their own registry lazily, so parallel sweeps
#: sharing a directory share the disk layer while keeping private memory.
_CACHES: dict[str | None, CompiledLoopCache] = {}


def get_compile_cache(path: str | Path | None = None) -> CompiledLoopCache:
    """The shared compile cache for ``path`` (created on first use)."""
    key = str(path) if path is not None else None
    cache = _CACHES.get(key)
    if cache is None:
        cache = CompiledLoopCache(path)
        _CACHES[key] = cache
    return cache


def drop_compile_cache(path: str | Path | None = None) -> None:
    """Forget the process-wide instance for ``path`` (manifest flushed).

    The next :func:`get_compile_cache` starts with empty memory, so a
    warm consumer genuinely re-reads the disk store — what the cibench
    perf lane needs to measure cross-process warm starts in-process.
    """
    cache = _CACHES.pop(str(path) if path is not None else None, None)
    if cache is not None:
        cache.flush()
