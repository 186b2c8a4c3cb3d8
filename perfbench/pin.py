"""Regenerate the pinned outputs the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/pin.py [workload ...]

Runs one untimed pass of each named workload (all by default) on the
current code and rewrites ``perfbench/pins/<workload>.json``.  Only do
this for an intended model change, and review the diff: an unintended
change to a pinned value is exactly what the benchmark must catch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.PINS_DIR.mkdir(exist_ok=True)
    for name in names:
        work_dir = ROOT / ".bench_work" / f"pin-{name}-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[name](0, work_dir)
        try:
            workload.setup()
            pins = workload.pin_values(workload.run_pass(None))
        finally:
            workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)
        path = workloads.PINS_DIR / f"{name}.json"
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(pins)} pins -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
