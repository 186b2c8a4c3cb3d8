"""``python -m repro.fuzz`` — the fuzzing engine's front door.

Subcommands:

* ``run``    — fan a seed range (plus the edge corpus) through the
  differential checks, deduplicated against the fuzz store; on any
  mismatch, shrink to a minimal kernel and emit a self-contained repro
  file.  ``--json`` writes the CI-gating summary; exit 1 unless clean.
* ``replay`` — rebuild every committed repro kernel and re-assert all
  checks (the regression corpus as an executable suite).
* ``shrink`` — shrink one (kernel, config, check) job by hand.
* ``stats``  — aggregate the fuzz store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..workloads.generator import PROFILES
from .checks import CHECKS, FAULTS, FuzzOptions
from .corpus import edge_kernel_ids, resolve_kernel, seed_kernel_ids
from .engine import FUZZ_CONFIGS, FuzzReport, make_jobs, run_jobs
from .regressions import (
    DEFAULT_REGRESSIONS_DIR,
    ReproCase,
    load_repros,
    replay_case,
    repro_id,
    write_repro,
)
from .shrink import shrink
from .store import FuzzStore


def _parse_seed_range(text: str) -> tuple[int, int]:
    """``"A:B"`` -> (A, B) half-open; a bare ``N`` means ``0:N``."""
    head, sep, tail = text.partition(":")
    try:
        if not sep:
            return 0, int(head)
        return int(head), int(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}") from None


def _csv(choices: list[str], what: str):
    def parse(text: str) -> list[str]:
        names = [name.strip() for name in text.split(",") if name.strip()]
        for name in names:
            if name not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r} (known: {', '.join(sorted(choices))})"
                )
        return names

    return parse


def _options(args) -> FuzzOptions:
    return FuzzOptions(
        exact_node_budget=args.exact_budget,
        fault=getattr(args, "inject_fault", None),
    )


def _emit_repro(
    kernel_id: str,
    config_name: str,
    check: str,
    mismatches: list[dict],
    options: FuzzOptions,
    directory: Path,
) -> Path:
    genotype = resolve_kernel(kernel_id)
    result = shrink(genotype, FUZZ_CONFIGS[config_name], check, options)
    note = None
    if options.fault is not None:
        note = (
            f"found under injected fault {options.fault!r} "
            "(fault-injection drill, not a live bug)"
        )
    case = ReproCase(
        repro_id=repro_id(check, config_name, result.genotype),
        genotype=result.genotype,
        config_name=config_name,
        check=check,
        kernel_id=kernel_id,
        mismatches=mismatches,
        shrink=result.to_json(),
        note=note,
    )
    return write_repro(case, directory)


def cmd_run(args) -> int:
    options = _options(args)
    checks = tuple(sorted(args.checks))
    kernel_ids: list[str] = []
    jobs = []
    if args.edge:
        jobs.extend(make_jobs(edge_kernel_ids(), args.configs, checks, spread=False))
    start, stop = args.seeds
    kernel_ids = seed_kernel_ids(start, stop, args.profiles)
    jobs.extend(make_jobs(kernel_ids, args.configs, checks, spread=args.spread))

    store = None if args.no_store else FuzzStore(args.store)
    report = run_jobs(
        jobs,
        options=options,
        store=store,
        workers=args.workers,
        time_budget_s=args.time_budget,
        max_jobs=args.max_jobs,
    )

    repros: list[str] = []
    if args.shrink:
        for entry in report.mismatched:
            job = entry["job"]
            failing = sorted({m["check"] for m in entry["mismatches"]})
            for check in failing[:1]:  # one repro per job: the first oracle
                path = _emit_repro(
                    job["kernel_id"],
                    job["config_name"],
                    check,
                    entry["mismatches"],
                    options,
                    Path(args.regressions_dir),
                )
                repros.append(str(path))

    summary = report.to_json()
    summary["repros"] = repros
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"fuzz: {report.total} jobs, {report.executed} executed, "
        f"{report.store_hits} store hits, {report.not_run} not run "
        f"(budget), {report.skipped_checks} checks skipped, "
        f"{len(report.mismatched)} mismatching jobs in {report.wall_s:.1f}s"
    )
    for entry in report.mismatched:
        job = entry["job"]
        first = entry["mismatches"][0]
        print(
            f"  MISMATCH {job['kernel_id']} on {job['config_name']}: "
            f"[{first['check']}/{first['kind']}] {first['detail']}"
        )
    for path in repros:
        print(f"  repro written: {path}")
    if report.not_run:
        print(f"  time budget exhausted with {report.not_run} jobs pending")
    return 0 if report.clean else 1


def cmd_replay(args) -> int:
    options = _options(args)
    checks = tuple(sorted(args.checks)) if args.checks else ()
    cases = load_repros(args.dir)
    if not cases and args.min > 0:
        print(f"no repro files under {args.dir} (expected >= {args.min})")
        return 1
    failures = 0
    for case in cases:
        mismatches = replay_case(case, checks=checks, options=options)
        status = "FAIL" if mismatches else "ok"
        print(f"  {status:>4}  {case.repro_id}  ({case.config_name})")
        for m in mismatches:
            print(f"        [{m['check']}/{m['kind']}] {m['detail']}")
        failures += bool(mismatches)
    print(f"replay: {len(cases)} repro kernels, {failures} failing")
    return 1 if failures else 0


def cmd_shrink(args) -> int:
    options = _options(args)
    genotype = resolve_kernel(args.kernel)
    result = shrink(genotype, FUZZ_CONFIGS[args.config], args.check, options)
    if not result.reproduced:
        print(
            f"{args.kernel} on {args.config} does not mismatch under "
            f"{args.check}; nothing to shrink"
        )
        return 1
    print(
        f"shrunk {args.kernel} ({len(genotype.ops)} ops, trip {genotype.trip}) "
        f"-> {len(result.genotype.ops)} ops, trip {result.genotype.trip} "
        f"in {result.attempts} attempts / {result.rounds} rounds"
    )
    print(json.dumps(result.genotype.to_json(), indent=2, sort_keys=True))
    if args.emit:
        case = ReproCase(
            repro_id=repro_id(args.check, args.config, result.genotype),
            genotype=result.genotype,
            config_name=args.config,
            check=args.check,
            kernel_id=args.kernel,
            shrink=result.to_json(),
            note=(
                f"found under injected fault {options.fault!r}"
                if options.fault
                else None
            ),
        )
        path = write_repro(case, Path(args.regressions_dir))
        print(f"repro written: {path}")
    return 0


def cmd_stats(args) -> int:
    path = Path(args.store)
    if not path.is_dir():
        print(f"no fuzz store at {path}", file=sys.stderr)
        return 1
    # Read-only: peek() neither records hits nor drops foreign entries.
    store = FuzzStore(path).store
    total = clean = mismatched = skipped = foreign = 0
    by_config: dict[str, int] = {}
    for key in store.entries():
        entry = store.peek(key)
        if entry is None:
            foreign += 1
            continue
        total += 1
        if entry.get("mismatches"):
            mismatched += 1
        else:
            clean += 1
        skipped += len(entry.get("skipped", []))
        config = entry.get("job", {}).get("config_name", "?")
        by_config[config] = by_config.get(config, 0) + 1
    print(f"fuzz store: {path}")
    print(
        f"  entries: {total} ({clean} clean, {mismatched} mismatched, "
        f"{skipped} skipped checks, {foreign} foreign/corrupt)"
    )
    for config, count in sorted(by_config.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {config}: {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential kernel-corpus fuzzing over the "
        "simulator/scheduler oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--exact-budget",
            type=int,
            default=20_000,
            help="node budget for the exact scheduler (default 20000)",
        )
        p.add_argument(
            "--inject-fault",
            choices=sorted(FAULTS),
            default=None,
            help="deterministically corrupt the fast-path trace "
            "(fault-injection drills)",
        )

    run = sub.add_parser("run", help="run a fuzz sweep")
    run.add_argument(
        "--seeds",
        type=_parse_seed_range,
        default=(0, 200),
        metavar="A:B",
        help="half-open random-kernel seed range (default 0:200)",
    )
    run.add_argument(
        "--profiles",
        type=_csv(list(PROFILES), "profile"),
        default=list(PROFILES),
        help=f"generator profiles to cycle (default {','.join(PROFILES)})",
    )
    run.add_argument(
        "--configs",
        type=_csv(list(FUZZ_CONFIGS), "config"),
        default=list(FUZZ_CONFIGS),
        help="machine configs to rotate over (default: all)",
    )
    run.add_argument(
        "--checks",
        type=_csv(list(CHECKS), "check"),
        default=list(CHECKS),
        help=f"checks to run (default {','.join(sorted(CHECKS))})",
    )
    run.add_argument(
        "--no-edge",
        dest="edge",
        action="store_false",
        help="skip the committed edge corpus",
    )
    run.add_argument(
        "--no-spread",
        dest="spread",
        action="store_false",
        help="run every seeded kernel on every config (default: rotate "
        "one config per kernel, so a seed range covers the matrix "
        "without multiplying the job count)",
    )
    run.add_argument("--workers", type=int, default=None, help="worker processes")
    run.add_argument(
        "--store",
        default=".fuzz-cache",
        help="fuzz store directory (default .fuzz-cache)",
    )
    run.add_argument(
        "--no-store", action="store_true", help="run without the dedup store"
    )
    run.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="S",
        help="stop launching jobs after S seconds (pending jobs fail clean)",
    )
    run.add_argument(
        "--max-jobs", type=int, default=None, help="hard cap on the job list"
    )
    run.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report mismatches without shrinking/emitting repros",
    )
    run.add_argument(
        "--regressions-dir",
        default=str(DEFAULT_REGRESSIONS_DIR),
        help="where shrunk repro files land",
    )
    run.add_argument("--json", default=None, help="write the JSON summary here")
    common(run)
    run.set_defaults(handler=cmd_run)

    replay = sub.add_parser("replay", help="re-assert the regression corpus")
    replay.add_argument(
        "--dir",
        default=str(DEFAULT_REGRESSIONS_DIR),
        help="regression corpus directory",
    )
    replay.add_argument(
        "--checks",
        type=_csv(list(CHECKS), "check"),
        default=None,
        help="checks to replay (default: all)",
    )
    replay.add_argument(
        "--min",
        type=int,
        default=0,
        help="fail unless at least this many repro files exist",
    )
    common(replay)
    replay.set_defaults(handler=cmd_replay)

    shrink_p = sub.add_parser("shrink", help="shrink one job by hand")
    shrink_p.add_argument("--kernel", required=True, help="kernel id (seed:…/edge:…)")
    shrink_p.add_argument(
        "--config", required=True, choices=sorted(FUZZ_CONFIGS), help="config name"
    )
    shrink_p.add_argument(
        "--check", required=True, choices=sorted(CHECKS), help="check to reproduce"
    )
    shrink_p.add_argument(
        "--emit", action="store_true", help="write the shrunk repro file"
    )
    shrink_p.add_argument(
        "--regressions-dir",
        default=str(DEFAULT_REGRESSIONS_DIR),
        help="where the repro file lands",
    )
    common(shrink_p)
    shrink_p.set_defaults(handler=cmd_shrink)

    stats = sub.add_parser("stats", help="aggregate the fuzz store")
    stats.add_argument(
        "--store",
        default=".fuzz-cache",
        help="fuzz store directory (default .fuzz-cache)",
    )
    stats.set_defaults(handler=cmd_stats)

    args = parser.parse_args(argv)
    return args.handler(args)
