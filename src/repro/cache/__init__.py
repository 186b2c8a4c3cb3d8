"""Maintenance CLI over the on-disk artifact stores.

``python -m repro.cache <command>`` operates on the three cache
directories the pipeline persists — the result store (``ResultCache``,
``.json``), the compile-artifact store (``CompiledLoopCache``,
``.pkl``) and the fuzz-job store (``repro.fuzz.FuzzStore``, ``.json``).
All three are :class:`~repro.pipeline.cache.KeyedFileStore` directories
with one layout, ``<dir>/<key[0]>/<key><suffix>`` plus a
``manifest.json`` per shard, so one manifest/GC machinery serves them:

* ``stats``  — entry counts, bytes, fingerprint breakdown per store;
* ``ls``     — per-entry listing (size, age, last hit, description);
* ``gc``     — bound the directories (``--max-bytes``, LRU by last
  hit) and orphan-sweep entries from other code fingerprints;
* ``verify`` — decode-check every entry and drop the corrupt, such as
  torn writes or result entries of another schema (exit 1 if anything
  was corrupt, so CI can assert a restored cache is sound).

The directories default to the names CI persists (``.result-cache``,
``.compile-cache``, ``.fuzz-cache``); a missing directory is skipped,
never created, and so is a missing shard directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..pipeline.cache import ResultCache, code_fingerprint
from ..pipeline.compilecache import CompiledLoopCache

_SIZE_UNITS = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}


def parse_size(text: str) -> int:
    """``"200M"`` -> bytes (K/M/G binary suffixes; bare number = bytes)."""
    raw = str(text).strip().upper().removesuffix("B")
    unit = raw[-1:] if raw[-1:] in ("K", "M", "G") else ""
    try:
        value = float(raw.removesuffix(unit)) if unit else float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None
    return int(value * _SIZE_UNITS[unit])


def format_size(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # unreachable; keeps type-checkers calm


def _age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.1f}d"


def open_stores(args) -> list[tuple[str, object]]:
    """The caches named by the CLI flags whose directories exist.

    Never creates a directory: a maintenance tool that mkdirs the thing
    it is asked to clean up would mask typos.
    """
    from ..fuzz.store import FuzzStore

    stores: list[tuple[str, object]] = []
    result_dir = Path(args.cache_dir)
    compile_dir = Path(args.compile_cache_dir)
    fuzz_dir = Path(args.fuzz_cache_dir)
    if result_dir.is_dir():
        stores.append(("results", ResultCache(result_dir)))
    if compile_dir.is_dir():
        stores.append(("compile", CompiledLoopCache(compile_dir)))
    if fuzz_dir.is_dir():
        stores.append(("fuzz", FuzzStore(fuzz_dir)))
    if not stores:
        print(
            f"no cache directories found "
            f"({result_dir} / {compile_dir} / {fuzz_dir})",
            file=sys.stderr,
        )
    return stores


def cmd_stats(args) -> int:
    current = code_fingerprint()
    for label, cache in open_stores(args):
        entries = cache.store.entries()
        total = sum(e.size for e in entries.values())
        by_fp: dict[str, int] = {}
        for e in entries.values():
            name = e.fingerprint or "unknown"
            by_fp[name] = by_fp.get(name, 0) + 1
        print(f"{label}: {cache.store.path}")
        print(f"  entries: {len(entries)}  bytes: {total} ({format_size(total)})")
        for fp, count in sorted(by_fp.items(), key=lambda kv: -kv[1]):
            tag = " (current)" if fp == current else ""
            print(f"  fingerprint {fp}{tag}: {count} entries")
        if entries:
            now = time.time()
            newest = max(e.last_hit for e in entries.values())
            oldest = min(e.last_hit for e in entries.values())
            print(
                f"  last hit: newest {_age(now - newest)} ago, "
                f"oldest {_age(now - oldest)} ago"
            )
    return 0


def cmd_ls(args) -> int:
    current = code_fingerprint()
    now = time.time()
    for label, cache in open_stores(args):
        entries = sorted(cache.store.entries().values(), key=lambda e: -e.last_hit)
        print(f"{label}: {cache.store.path} ({len(entries)} entries)")
        for e in entries:
            fp = "current" if e.fingerprint == current else (e.fingerprint or "unknown")
            desc = ""
            if e.description is not None:
                desc = " " + json.dumps(
                    e.description, sort_keys=True, separators=(",", ":")
                )
            print(
                f"  {e.key[:12]}  {format_size(e.size):>10}  "
                f"hit {_age(now - e.last_hit):>5} ago  [{fp}]{desc}"
            )
    return 0


def cmd_gc(args) -> int:
    keep = None if args.all_fingerprints else {code_fingerprint()}
    for label, cache in open_stores(args):
        report = cache.gc(
            max_bytes=args.max_bytes,
            keep_fingerprints=keep,
            min_age_s=args.min_age,
        )
        print(
            f"{label}: {report.entries_before} entries "
            f"({format_size(report.bytes_before)}) -> {report.entries_after} "
            f"({format_size(report.bytes_after)}); evicted {len(report.evicted)}, "
            f"orphans {len(report.orphans)}"
        )
    return 0


def cmd_verify(args) -> int:
    corrupt = 0
    analysis_rc = 0
    for label, cache in open_stores(args):
        report = cache.verify()
        corrupt += len(report.corrupt)
        print(f"{label}: {report.ok} entries ok, {len(report.corrupt)} corrupt removed")
        if getattr(args, "analyze", False) and label == "compile":
            # Beyond decode soundness: run the static certifier over
            # every artifact that survived verification.
            from ..analysis.__main__ import audit_compile_store

            analysis_rc = audit_compile_store(cache.store.path) or analysis_rc
    return 1 if corrupt or analysis_rc else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect, bound and verify the on-disk artifact stores.",
    )
    parser.add_argument(
        "--cache-dir",
        default=".result-cache",
        help="result store directory (skipped if missing)",
    )
    parser.add_argument(
        "--compile-cache-dir",
        default=".compile-cache",
        help="compile-artifact store directory (skipped if missing)",
    )
    parser.add_argument(
        "--fuzz-cache-dir",
        default=".fuzz-cache",
        help="fuzz-job store directory (skipped if missing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="entry counts, bytes, fingerprints")
    sub.add_parser("ls", help="list entries with manifest descriptions")

    gc = sub.add_parser("gc", help="bound the stores (LRU + orphan sweep)")
    gc.add_argument(
        "--max-bytes",
        type=parse_size,
        default=None,
        help="evict least-recently-hit entries until each store fits "
        "(accepts K/M/G suffixes, e.g. 200M)",
    )
    gc.add_argument(
        "--all-fingerprints",
        action="store_true",
        help="keep entries from other code fingerprints (default: "
        "orphan-sweep them — their keys can never hit again)",
    )
    gc.add_argument(
        "--min-age",
        type=float,
        default=60.0,
        help="never evict entries younger than this many seconds "
        "(grace period for concurrent writers)",
    )

    verify = sub.add_parser(
        "verify",
        help="decode-check every entry and drop the corrupt "
        "(exit 1 if anything was corrupt)",
    )
    verify.add_argument(
        "--analyze",
        action="store_true",
        help="additionally run the repro.analysis certifier over every "
        "compile artifact (exit 1 on any blocking finding)",
    )

    args = parser.parse_args(argv)
    handler = {
        "stats": cmd_stats,
        "ls": cmd_ls,
        "gc": cmd_gc,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)
