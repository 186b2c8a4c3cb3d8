"""Sensitivity drill: does the benchmark catch a slowdown in one layer?

Usage, from the root of a checkout::

    python3 perfbench/drill.py [--seeds 3]

Makes throwaway copies of the checkout under ``.bench_drill/`` and, in
each copy's ``src/`` only, injects a fixed amount of extra work (an
empty loop) into one layer:

* ``l0-slow``: :data:`L0_SPIN` iterations per ``L0Buffer.access`` call
  (roughly 40% more time on ``l0-sweep``);
* ``exact-slow``: :data:`EXACT_SPIN` iterations per
  ``ExactScheduler.schedule`` call (roughly 40% more on ``exact-compile``).

Each copy (and an unmodified ``base`` copy) runs ``l0-sweep`` and
``exact-compile`` untraced on every seed and once traced, then the
copies' ``BENCH_sim.json`` ratio gate is run.  The drill prints a JSON
summary: every median's change against ``base`` as a share of the base
median, beside the bound ``BENCHMARK.json`` gives it.  The checkout's own
``src/`` is never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRILL_DIR = ROOT / ".bench_drill"

L0_SPIN = 600
EXACT_SPIN = 3_000_000

#: variant -> (file under src/, the line the loop goes after, iterations)
INJECTIONS = {
    "base": None,
    "l0-slow": (
        "repro/memory/l0buffer.py",
        "    def access(self, addr: int, width: int, cycle: int) -> L0Entry | None:\n",
        L0_SPIN,
    ),
    "exact-slow": (
        "repro/scheduler/exact.py",
        "    def schedule(self) -> ModuloSchedule:\n",
        EXACT_SPIN,
    ),
}

WORKLOADS = ("l0-sweep", "exact-compile")
WATCHED = ("memory.l0.self_s", "scheduler.exact.self_s")


def make_copy(variant: str) -> Path:
    copy = DRILL_DIR / variant
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".bench_*")
    shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", copy / "perfbench", ignore=ignore)
    for name in ("BENCHMARK.json", "BENCH_sim.json"):
        shutil.copy(ROOT / name, copy / name)
    injection = INJECTIONS[variant]
    if injection is not None:
        rel, anchor, iterations = injection
        path = copy / "src" / rel
        text = path.read_text()
        if text.count(anchor) != 1:
            raise SystemExit(f"drill: anchor for {variant} not found once in {rel}")
        spin = f"        for _ in range({iterations}):\n            pass\n"
        path.write_text(text.replace(anchor, anchor + spin))
    return copy


def run_bench(copy: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"drill: {workload} failed its output check in {copy}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def sim_gate(copy: Path) -> dict:
    code = (
        "import json, sys\n"
        "from repro.eval.cibench import run_sim_bench\n"
        "r = run_sim_bench(('g721dec', 'jpegdec'), 150, baseline_path='BENCH_sim.json')\n"
        "print(json.dumps({'speedup': r['speedup'], 'failures': r['failures']}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=copy, capture_output=True, text=True,
        timeout=600, check=True, env={**os.environ, "PYTHONPATH": str(copy / "src")},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    medians: dict = {}
    layers: dict = {}
    gates: dict = {}
    try:
        for variant in INJECTIONS:
            copy = make_copy(variant)
            for workload in WORKLOADS:
                runs = [run_bench(copy, workload, seed, 0) for seed in range(args.seeds)]
                medians[variant, workload] = {
                    name: statistics.median(r[name] for r in runs) for name in runs[0]
                }
                traced = run_bench(copy, workload, 0, 1)
                layers[variant, workload] = {n: traced[n] for n in WATCHED}
                print(f"drill: {variant} {workload} done", file=sys.stderr)
            gates[variant] = sim_gate(copy)
    finally:
        shutil.rmtree(DRILL_DIR, ignore_errors=True)

    summary: dict = {"seeds": args.seeds, "l0_spin": L0_SPIN,
                     "exact_spin": EXACT_SPIN, "bench_sim_gate": gates}
    for variant in INJECTIONS:
        if variant == "base":
            continue
        for workload in WORKLOADS:
            base, slow = medians["base", workload], medians[variant, workload]
            summary[f"{variant} on {workload}"] = {
                "end_to_end": {
                    name: {
                        "change": round((slow[name] - base[name]) / base[name], 4),
                        "bound": bounds[name],
                        "flagged": (slow[name] - base[name]) / base[name] > bounds[name],
                    }
                    for name in ("sweep_s", "write_s", "item_ms_p50", "item_ms_p80")
                },
                "per_layer": {
                    name: {"base": round(layers["base", workload][name], 3),
                           "slow": round(layers[variant, workload][name], 3)}
                    for name in WATCHED
                },
            }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
