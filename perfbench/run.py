"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload l0-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats timed passes of the workload until ``--seconds``
have elapsed (at least one) and prints the end-to-end metrics, medians
over the passes.  ``--trace 1`` runs one untraced pass and one traced
pass, prints the per-layer metrics and writes the spans as JSONL.  The
last line of standard output is always the result object; diagnostics
go to standard error.  See ``LAYERS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S, SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Workload constructions per run; their median is the construction
#: part of set-up time.
SETUP_REPEATS = {"l0-sweep": 5, "exact-compile": 5, "grid-resweep": 3}

#: Cold imports per run; their median is the import part of set-up time.
IMPORT_PROBES = 5

#: Imports the benchmark's modules (and so the program's) in a fresh
#: interpreter and prints how long that took in reference seconds, code
#: fingerprint included.
IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from speed import SpeedClock


def load():
    import workloads
    from repro.pipeline import code_fingerprint

    code_fingerprint()


print(SpeedClock().time(load)[1])
"""


def _import_seconds() -> float:
    """Cold import time of the program, measured in a child interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def _percentile(values, share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]


def _peak_rss_mb(outcomes) -> float:
    """Peak resident memory of this process plus its largest worker (as
    the worker reported it; the set-up's import probes do not count)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(o.worker_rss_kb for o in outcomes)) / 1024.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(outcomes, setup_s: float, report) -> dict:
    items = [s for o in outcomes for s in o.item_s]
    return {
        "sweep_s": (statistics.median(o.sweep_s for o in outcomes), "s"),
        "write_s": (statistics.median(o.write_s for o in outcomes), "s"),
        "read_s": (statistics.median(s for o in outcomes for s in o.read_s), "s"),
        "item_ms_p50": (1e3 * statistics.median(items), "ms"),
        "item_ms_p80": (1e3 * _percentile(items, 0.8), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(outcomes), "MB"),
        "ii_total": (outcomes[-1].ii_total, "cycles"),
        "pass_ratio": (_ratio(report.attempted - report.failed, report.attempted), "ratio"),
    }


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics of the traced pass (see LAYERS.md for bases).

    Layer times are host seconds rescaled to reference seconds by one
    factor for the whole traced pass, so they still add up: its reference
    seconds over its host seconds, which weights each unit's kernel
    measurements by the unit's duration.
    """
    p = traced.profile
    sms_s = p.layer_self("scheduler.sms")
    exact_s = p.layer_self("scheduler.exact")
    exact_calls = p.counter("scheduler.exact.calls")
    exact_nodes = p.counter("scheduler.exact.nodes")
    cc = traced.compile_stats
    full = cc.get("full_hits", 0) + cc.get("full_misses", 0)
    front = cc.get("frontend_hits", 0) + cc.get("frontend_misses", 0)
    trace_run_s = p.layer_self("trace.run")
    iters = p.counter("trace.iters")
    memory_layers = ("memory.unified", "memory.l0", "memory.multivliw", "memory.interleaved")
    memory_s = sum(p.layer_self(layer) for layer in memory_layers)
    accesses = p.counter("memory.accesses")
    l0_hits = l0_accesses = 0
    for result in traced.outputs.values():
        l0 = getattr(result, "memory_stats", None)
        l0 = getattr(l0, "l0", None)
        if l0 is not None:
            l0_hits += l0.hits
            l0_accesses += l0.accesses
    gets = p.op_calls("store", "get")
    map_s = p.op_incl("executor", "map")
    job_s = sum(traced.job_s)
    local = p.local_self_by_layer()
    overhead = traced.sweep_s - untraced.sweep_s
    scale = traced.sweep_s / traced.host_s
    metrics = {
        "passes.frontend.self_s": (p.layer_self("passes.frontend"), "s"),
        "passes.frontend.calls": (p.layer_calls("passes.frontend"), "count"),
        "scheduler.sms.self_s": (sms_s, "s"),
        "scheduler.sms.calls": (p.op_calls("scheduler.sms", "schedule"), "count"),
        "scheduler.sms.us_per_node": (
            1e6 * _ratio(sms_s, p.counter("scheduler.sms.nodes")), "us"),
        "scheduler.exact.self_s": (exact_s, "s"),
        "scheduler.exact.nodes": (exact_nodes, "count"),
        "scheduler.exact.us_per_node": (1e6 * _ratio(exact_s, exact_nodes), "us"),
        "scheduler.exact.fallback_ratio": (
            _ratio(p.counter("scheduler.exact.fallback"), exact_calls), "ratio"),
        "scheduler.exact.improved_ratio": (
            _ratio(p.counter("scheduler.exact.improved"), exact_calls), "ratio"),
        "compilecache.self_s": (p.layer_self("compilecache"), "s"),
        "compilecache.get_s": (p.op_incl("compilecache", "get"), "s"),
        "compilecache.put_s": (p.op_incl("compilecache", "put"), "s"),
        "compilecache.full_hit_ratio": (_ratio(cc.get("full_hits", 0), full), "ratio"),
        "compilecache.frontend_hit_ratio": (
            _ratio(cc.get("frontend_hits", 0), front), "ratio"),
        "compilecache.disk_hits": (cc.get("full_disk_hits", 0), "count"),
        "trace.build_s": (p.layer_self("trace.build"), "s"),
        "trace.run.self_s": (trace_run_s, "s"),
        "trace.iters": (iters, "count"),
        "trace.us_per_iter": (1e6 * _ratio(trace_run_s, iters), "us"),
        "trace.converged_ratio": (
            _ratio(p.counter("trace.converged"), p.counter("trace.runs")), "ratio"),
        "memory.unified.self_s": (p.layer_self("memory.unified"), "s"),
        "memory.l0.self_s": (p.layer_self("memory.l0"), "s"),
        "memory.l0.calls": (p.layer_calls("memory.l0"), "count"),
        "memory.multivliw.self_s": (p.layer_self("memory.multivliw"), "s"),
        "memory.interleaved.self_s": (p.layer_self("memory.interleaved"), "s"),
        "memory.accesses": (accesses, "count"),
        "memory.us_per_access": (1e6 * _ratio(memory_s, accesses), "us"),
        "memory.l0.hit_rate": (_ratio(l0_hits, l0_accesses), "ratio"),
        "runner.plan_s": (p.op_incl("runner", "plan_program"), "s"),
        "runner.exact_extrapolation_ratio": (
            _ratio(p.counter("runner.exact_loops"), p.counter("runner.loops")), "ratio"),
        "store.key_s": (p.op_incl("store", "cache_key"), "s"),
        "store.get_s": (p.op_incl("store", "get"), "s"),
        "store.put_s": (p.op_incl("store", "put"), "s"),
        "store.gets": (gets, "count"),
        "store.puts": (p.op_calls("store", "put"), "count"),
        "store.hit_ratio": (_ratio(p.counter("store.hits"), gets), "ratio"),
        "store.manifest_s": (p.op_incl("store", "manifest"), "s"),
        "store.bytes": (traced.store_bytes, "bytes"),
        "executor.map_s": (map_s, "s"),
        "executor.jobs": (len(traced.job_s), "count"),
        "executor.job_s": (job_s, "s"),
        "executor.utilization": (_ratio(job_s, map_s * traced.workers), "ratio"),
        "session.simulations": (traced.simulations, "count"),
        "unattributed.self_s": (local.get("bench", 0.0), "s"),
        "traced.region_s": (p.op_incl("bench", "unattributed"), "s"),
    }
    metrics = {
        name: (value * scale if unit in ("s", "us") else value, unit)
        for name, (value, unit) in metrics.items()
    }
    metrics["tracing.overhead_s"] = (overhead, "s")
    metrics["tracing.overhead_ratio"] = (_ratio(overhead, untraced.sweep_s), "ratio")
    metrics["speed.kernel_us"] = (1e6 * REFERENCE_KERNEL_S / scale, "us")
    return metrics


def _declared(kind: str) -> list[str]:
    spec = json.loads(BENCHMARK_FILE.read_text())
    return [m["name"] for m in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.pipeline import code_fingerprint

        import workloads
        from workloads import CheckReport
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import tracing

    code_fingerprint()  # hashes the source tree once per process

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        import_s = statistics.median(_import_seconds() for _ in range(IMPORT_PROBES))
        clock = SpeedClock()
        setup_times = [
            clock.time(workload.setup)[1] for _ in range(SETUP_REPEATS[args.workload])
        ]
        setup_s = import_s + statistics.median(setup_times)

        if args.trace:
            untraced = workload.run_pass(None)
            tracer = tracing.Tracer()
            instrumentation = tracing.install(tracer)
            try:
                traced = workload.run_pass(tracer)
            finally:
                instrumentation.remove()
            outcomes = [untraced, traced]
        else:
            outcomes = []
            deadline = time.perf_counter() + args.seconds
            while True:
                t0 = time.perf_counter()
                outcomes.append(workload.run_pass(None))
                if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                    break

        report = CheckReport()
        workload.check(outcomes, report)
        for reason in report.reasons:
            print(f"perfbench: check failed: {reason}", file=sys.stderr)

        if args.trace:
            metrics = per_layer(untraced, traced)
            names = _declared("per_layer")
            spans = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced.profile.write_jsonl(
                str(spans), {"workload": args.workload, "seed": args.seed})
            print(f"perfbench: spans written to {spans}", file=sys.stderr)
        else:
            metrics = end_to_end(outcomes, setup_s, report)
            names = _declared("end_to_end")
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only if no other run is using it

    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    host = statistics.median(o.host_s for o in outcomes)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(outcomes)} pass(es), "
          f"{host:.2f} host s per pass, {report.attempted} checked, "
          f"{report.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
