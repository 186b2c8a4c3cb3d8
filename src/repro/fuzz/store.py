"""The fuzz store: content-addressed, deduplicating job results.

One ``<key[0]>/<key>.json`` per (kernel, config, checks, options, code
fingerprint) job, holding the schema-1 entry
``{"job": ..., "mismatches": [...], "skipped": [...], "schema": 1}``.
Keys mix the code fingerprint, so a store persisted across commits
(CI's nightly ``actions/cache``) serves hits only while the tree is
unchanged — repeat nights skip already-clean jobs, and any source edit
transparently invalidates everything it could have affected.

Built on the same :class:`~repro.pipeline.cache.KeyedFileStore` as the
result and compile stores, so the manifest/GC/verify machinery (and the
``python -m repro.cache`` maintenance CLI) covers all three.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..pipeline.cache import KeyedFileStore, _canonical, code_fingerprint
from ..pipeline.manifest import GCReport, VerifyReport

#: On-disk fuzz-entry layout version.
FUZZ_SCHEMA_VERSION = 1


def _encode_entry(entry: dict) -> bytes:
    payload = dict(entry)
    payload["schema"] = FUZZ_SCHEMA_VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _decode_entry(data: bytes) -> dict:
    payload = json.loads(data.decode())
    if not isinstance(payload, dict) or "job" not in payload:
        raise ValueError("not a fuzz-store entry")
    if payload.get("schema") != FUZZ_SCHEMA_VERSION:
        raise ValueError(
            f"fuzz entry has schema {payload.get('schema')!r}, "
            f"this code reads {FUZZ_SCHEMA_VERSION}"
        )
    return payload


def job_store_key(
    kernel_fingerprint: str, config, checks: tuple[str, ...], options
) -> str:
    """Content key of one fuzz job.

    Mixes the kernel's genotype fingerprint (not its id: a seed kernel
    and an identical committed repro share one entry), the canonical
    config, the check set, the check options and the code fingerprint.
    """
    payload = {
        "checks": sorted(checks),
        "code": code_fingerprint(),
        "config": _canonical(config),
        "kernel": kernel_fingerprint,
        "options": options.to_json(),
        "schema": FUZZ_SCHEMA_VERSION,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class FuzzStore:
    """Facade over the keyed file store, shaped like the other caches
    so ``repro.cache``'s stats/ls/gc/verify drive it unchanged."""

    def __init__(self, path: str | Path) -> None:
        self._store = KeyedFileStore(path, ".json", _encode_entry, _decode_entry)

    @property
    def store(self) -> KeyedFileStore:
        return self._store

    def get(self, key: str) -> dict | None:
        return self._store.load(key)

    def put(self, key: str, entry: dict, *, description: dict | None = None) -> None:
        self._store.save(key, entry, description=description)

    def flush(self) -> None:
        self._store.flush()

    def gc(self, **kwargs) -> GCReport:
        return self._store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        return self._store.verify()
