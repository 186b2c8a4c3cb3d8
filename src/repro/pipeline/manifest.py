"""Sidecar manifest for :class:`~repro.pipeline.cache.KeyedFileStore` shards.

Every on-disk cache (results, compile artifacts, fuzz jobs) is a store of
``<sha256><suffix>`` files, sharded by key prefix.  The content hash is
perfect for lookups and useless for humans and for garbage collection:
nothing in the directory says *what* an entry is, *when* it was last
useful, or *which* code version produced it.  The manifest fills that
gap: one ``manifest.json`` per shard directory mapping every key to a
:class:`ManifestEntry` — a human-readable description of the inputs
(benchmark/loop, config, options, scheduler), the entry's size, its
creation time, its last-hit time (the LRU signal) and the code
fingerprint that wrote it.

Concurrency contract (mirrors the store itself — multiple processes may
share one directory):

* Updates are buffered in-process and flushed by **read-merge-write**
  under an atomic rename, so a flush never tears the file.  The
  read-merge-write holds an exclusive ``flock`` on the directory's
  ``.manifest.lock``, so simultaneous flushes from several processes
  serialize instead of overwriting each other's freshly recorded rows.
* The manifest is **advisory**: the directory is the source of truth.
  A corrupt, missing or stale manifest is rebuilt from a directory
  scan (sizes and times from ``stat``; descriptions and fingerprints
  unknown until the entry is next written), never trusted over the
  files themselves.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import multiprocessing.util
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

#: Lock file serializing the manifest's read-merge-write across processes.
LOCK_NAME = ".manifest.lock"

#: Updates (new entries and recency hits alike) are buffered and folded
#: in every N operations — plus at every gc/verify/clear coordination
#: point, on explicit ``flush()``, and at process exit — so a hot
#: save/read path does not rewrite the manifest per entry.  Updates
#: lost to a hard kill cost only metadata: ``entries()`` re-adopts the
#: files from a directory scan.
FLUSH_EVERY = 16


@dataclass(frozen=True)
class ManifestEntry:
    """Everything the manifest knows about one store entry."""

    key: str
    size: int = 0
    created: float = 0.0
    last_hit: float = 0.0
    #: ``repro`` code fingerprint of the writer (None == unknown: the
    #: row was recovered by a directory scan).
    fingerprint: str | None = None
    #: Human-readable inputs: benchmark/loop, config, options, scheduler.
    description: dict | None = None

    def to_json(self) -> dict:
        data = {
            "size": self.size,
            "created": self.created,
            "last_hit": self.last_hit,
        }
        if self.fingerprint is not None:
            data["fingerprint"] = self.fingerprint
        if self.description is not None:
            data["description"] = self.description
        return data

    @classmethod
    def from_json(cls, key: str, data: dict) -> "ManifestEntry":
        if not isinstance(data, dict):
            raise ValueError(f"manifest entry for {key} is not an object")
        description = data.get("description")
        if description is not None and not isinstance(description, dict):
            description = None
        return cls(
            key=key,
            size=int(data.get("size", 0)),
            created=float(data.get("created", 0.0)),
            last_hit=float(data.get("last_hit", 0.0)),
            fingerprint=data.get("fingerprint"),
            description=description,
        )


@dataclass
class GCReport:
    """What one :meth:`KeyedFileStore.gc` call found and removed."""

    path: str = ""
    entries_before: int = 0
    bytes_before: int = 0
    entries_after: int = 0
    bytes_after: int = 0
    #: keys removed by the LRU size-cap policy
    evicted: list[str] = field(default_factory=list)
    #: keys removed by the code-fingerprint orphan sweep
    orphans: list[str] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.evicted) + len(self.orphans)


@dataclass
class VerifyReport:
    """What one :meth:`KeyedFileStore.verify` pass found."""

    path: str = ""
    ok: int = 0
    #: keys whose file failed to decode and was dropped
    corrupt: list[str] = field(default_factory=list)


def _is_key(stem: str) -> bool:
    """Whether a filename stem is one of our sha256 content keys."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


class StoreManifest:
    """The ``manifest.json`` of one shard directory.

    One instance per shard of a :class:`KeyedFileStore`; other processes
    sharing the directory hold their own instances and reconcile through
    the locked read-merge-write flush.
    """

    def __init__(self, path: str | Path, suffix: str) -> None:
        self.path = Path(path)
        self.suffix = suffix
        self.file = self.path / MANIFEST_NAME
        #: pending upserts (new/overwritten entries), key -> entry
        self._dirty: dict[str, ManifestEntry] = {}
        #: pending recency updates, key -> hit timestamp
        self._touches: dict[str, float] = {}
        #: pending removals (evicted or corrupt entries)
        self._forgotten: set[str] = set()
        self._unflushed_ops = 0
        self._exit_hook_installed = False

    def _note_pending(self) -> None:
        """Count a buffered update; fold in every FLUSH_EVERY-th one."""
        if not self._exit_hook_installed:
            # Persist buffered rows on clean exit.  A multiprocessing
            # finalizer rather than ``atexit``: pool workers leave via
            # ``os._exit``, which skips ``atexit`` but runs these.
            multiprocessing.util.Finalize(None, self.flush, exitpriority=0)
            self._exit_hook_installed = True
        self._unflushed_ops += 1
        if self._unflushed_ops >= FLUSH_EVERY:
            self.flush()

    # -- recording ------------------------------------------------------

    def record(
        self,
        key: str,
        *,
        size: int,
        fingerprint: str | None = None,
        description: dict | None = None,
        now: float | None = None,
    ) -> None:
        """Note that ``key`` was (re)written: size, authorship, inputs."""
        now = time.time() if now is None else now
        self._forgotten.discard(key)
        self._dirty[key] = ManifestEntry(
            key=key,
            size=size,
            created=now,
            last_hit=now,
            fingerprint=fingerprint,
            description=description,
        )
        self._note_pending()

    def touch(self, key: str, now: float | None = None) -> None:
        """Note a disk hit on ``key`` (the LRU recency signal)."""
        now = time.time() if now is None else now
        if key in self._dirty:
            self._dirty[key] = replace(self._dirty[key], last_hit=now)
        else:
            self._touches[key] = now
        self._note_pending()

    def forget(self, key: str) -> None:
        """Drop ``key`` (entry evicted or found corrupt); flush later."""
        self._dirty.pop(key, None)
        self._touches.pop(key, None)
        self._forgotten.add(key)

    # -- reading --------------------------------------------------------

    def _read(self) -> dict[str, ManifestEntry]:
        """The on-disk manifest, empty on corruption (never a crash).

        The manifest is advisory, so *any* failure to decode it — not
        just the common malformed-JSON cases — means "rebuild from the
        directory scan and continue".  A bare ``except Exception``
        is deliberate: adversarially corrupt bytes can raise surprises
        (e.g. ``RecursionError`` from deeply nested arrays), and a
        sidecar file must never be able to abort a sweep mid-``gc``.
        """
        try:
            data = json.loads(self.file.read_bytes())
            if data.get("schema") != MANIFEST_SCHEMA_VERSION:
                raise ValueError("unknown manifest schema")
            raw = data["entries"]
            return {
                key: ManifestEntry.from_json(key, value)
                for key, value in raw.items()
                if _is_key(key)
            }
        except Exception:
            return {}

    def _merged(self) -> dict[str, ManifestEntry]:
        """On-disk view with this process's pending updates folded in."""
        merged = self._read()
        for key, entry in self._dirty.items():
            old = merged.get(key)
            if old is not None:
                # created == first seen; a rewrite keeps the original
                # birthday and any description the new writer omitted.
                entry = replace(
                    entry,
                    created=old.created or entry.created,
                    last_hit=max(entry.last_hit, old.last_hit),
                    description=(
                        entry.description
                        if entry.description is not None
                        else old.description
                    ),
                )
            merged[key] = entry
        for key, hit in self._touches.items():
            old = merged.get(key)
            if old is None:
                # Manifest lost this entry (rebuilt, concurrent clear);
                # keep the recency signal — entries() reconciles size.
                merged[key] = ManifestEntry(key=key, created=hit, last_hit=hit)
            elif hit > old.last_hit:
                merged[key] = replace(old, last_hit=hit)
        for key in sorted(self._forgotten):
            merged.pop(key, None)
        return merged

    def entries(self) -> dict[str, ManifestEntry]:
        """Manifest reconciled against the directory (the truth).

        Files without a manifest row are adopted with ``stat`` metadata
        (this is the corrupt-manifest rebuild path); manifest rows whose
        file vanished are dropped.  Sizes always come from the file.
        """
        known = self._merged()
        out: dict[str, ManifestEntry] = {}
        for file in self.path.glob(f"*{self.suffix}"):
            if not _is_key(file.stem):
                continue
            try:
                stat = file.stat()
            except OSError:  # vanished under us (concurrent clear/gc)
                continue
            entry = known.get(file.stem)
            if entry is None:
                entry = ManifestEntry(
                    key=file.stem,
                    size=stat.st_size,
                    created=stat.st_mtime,
                    last_hit=stat.st_mtime,
                )
            else:
                entry = replace(entry, size=stat.st_size)
                if entry.created == 0.0:
                    entry = replace(entry, created=stat.st_mtime)
                if entry.last_hit == 0.0:
                    entry = replace(entry, last_hit=entry.created)
            out[file.stem] = entry
        return out

    # -- writing --------------------------------------------------------

    def _write(self, entries: dict[str, ManifestEntry]) -> None:
        """Atomically install ``entries`` as the manifest (best-effort)."""
        payload = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "entries": {key: entries[key].to_json() for key in sorted(entries)},
        }
        tmp = self.path / f".manifest.{os.getpid()}.tmp"
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            tmp.replace(self.file)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    @contextlib.contextmanager
    def _locked(self):
        """Hold the directory's exclusive manifest lock.

        Best-effort like the write it guards: if the lock file cannot be
        opened (the directory vanished or is read-only), proceed
        unlocked — the write then fails soft on its own.
        """
        try:
            fd = os.open(self.path / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the lock

    def _clear_pending(self) -> None:
        self._dirty.clear()
        self._touches.clear()
        self._forgotten.clear()
        self._unflushed_ops = 0

    def flush(self) -> None:
        """Fold pending updates into the file (locked read-merge-write)."""
        if not (self._dirty or self._touches or self._forgotten):
            return
        with self._locked():
            self._write(self._merged())
        self._clear_pending()

    def rewrite(self) -> dict[str, ManifestEntry]:
        """Replace the manifest with the reconciled directory view and
        return that view.

        Unlike :meth:`flush` this *drops* rows for vanished files; gc
        and verify call it so the manifest never accretes stale keys.
        """
        with self._locked():
            entries = self.entries()
            self._write(entries)
        self._clear_pending()
        return entries

    def reset(self) -> None:
        """Forget everything (the store was cleared)."""
        self._clear_pending()
        with self._locked():
            try:
                self.file.unlink(missing_ok=True)
            except OSError:
                pass
        for tmp in self.path.glob(".manifest.*.tmp"):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
