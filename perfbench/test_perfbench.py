"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Most tests run a workload on a subset of its items, so they take seconds;
the end-to-end runs of ``run.py`` take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


# The subsets keep programs whose items simulate and compile in well
# under a second.


def _l0_subset(seed: int, tmp_path) -> workloads.L0Sweep:
    w = workloads.L0Sweep(seed, tmp_path)
    w.setup()
    keep = [i for i, r in enumerate(w.requests) if r.benchmark in ("g721dec", "rasta")]
    w.requests = [w.requests[i] for i in keep]
    w.labels = [w.labels[i] for i in keep]
    w.sample = [0]
    return w


def _exact_subset(seed: int, tmp_path) -> workloads.ExactCompile:
    w = workloads.ExactCompile(seed, tmp_path)
    w.setup()
    w.jobs = [j for j in w.jobs if j.label.split("|")[0] in ("epicdec", "jpegdec")]
    return w


def _check(w, outcomes) -> workloads.CheckReport:
    report = workloads.CheckReport()
    w.check(outcomes, report)
    return report


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_metric_names_match_benchmark_json(tmp_path):
    w = _l0_subset(1, tmp_path)
    untraced = w.run_pass(None)
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        traced = w.run_pass(tracer)
    finally:
        inst.remove()
        w.close()
    report = _check(w, [untraced, traced])
    e2e = run.end_to_end([untraced], 0.5, report)
    layers = run.per_layer(untraced, traced)
    assert set(e2e) == _names("end_to_end")
    assert set(layers) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, (value, unit) in {**e2e, **layers}.items():
        assert unit == units[name], name
        assert isinstance(value, (int, float)), name


def test_layer_self_times_account_for_traced_sweep(tmp_path):
    w = _l0_subset(2, tmp_path)
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        traced = w.run_pass(tracer)
    finally:
        inst.remove()
        w.close()
    profile = traced.profile
    by_layer = profile.local_self_by_layer()
    total = profile.op_incl("bench", "unattributed")
    assert sum(by_layer.values()) == pytest.approx(total, rel=1e-9)
    assert total >= traced.host_s  # the region also holds calibration
    for layer in ("memory.l0", "memory.unified", "trace.run", "scheduler.sms"):
        assert by_layer.get(layer, 0.0) > 0.0, layer
    # Installing and removing the wrappers leaves the program untouched.
    from repro.memory.l0buffer import L0Buffer

    assert not hasattr(L0Buffer.access, "__wrapped__")


def test_flipped_cycle_count_fails_the_check(tmp_path):
    w = _l0_subset(3, tmp_path)
    out = w.run_pass(None)
    w.close()
    clean = _check(w, [out])
    assert clean.failed == 0 and clean.attempted > 0

    label = w.labels[-1]
    out.outputs[label].loops[0].stall_cycles += 1
    flipped = _check(w, [out])
    assert flipped.failed > 0
    e2e = run.end_to_end([out], 0.5, flipped)
    assert e2e["pass_ratio"][0] < 1.0  # i.e. failed_ratio > 0


def test_flipped_pin_fails_the_check(tmp_path, monkeypatch):
    w = _exact_subset(4, tmp_path)
    out = w.run_pass(None)
    w.close()
    assert _check(w, [out]).failed == 0
    pins = workloads.load_pins(w.name)
    label = w.jobs[0].label
    mii, ii_sms = pins[label]
    pins[label] = [mii, ii_sms + 1]
    monkeypatch.setattr(workloads, "load_pins", lambda name: pins)
    assert _check(w, [out]).failed > 0


def test_read_phase_simulation_is_a_failure(tmp_path):
    w = _l0_subset(5, tmp_path)
    out = w.run_pass(None)
    w.close()
    out.read_work = 1
    assert _check(w, [out]).failed == 1


def test_results_do_not_depend_on_request_order(tmp_path):
    runs = {}
    for seed in (6, 7):
        l0 = _l0_subset(seed, tmp_path)
        exact = _exact_subset(seed, tmp_path)
        l0_out, exact_out = l0.run_pass(None), exact.run_pass(None)
        l0.close()
        exact.close()
        runs[seed] = (l0.labels, l0.pin_values(l0_out), l0_out.ii_total,
                      [j.label for j in exact.jobs], exact.pin_values(exact_out),
                      exact_out.ii_total)
    a, b = runs[6], runs[7]
    assert a[0] != b[0] and a[3] != b[3]  # the seeds really reorder
    assert a[1:3] == b[1:3] and a[4:] == b[4:]
    assert a[1] == {k: v for k, v in workloads.load_pins("l0-sweep").items() if k in a[1]}


def test_percentile_is_nearest_rank():
    values = list(range(1, 66))
    assert run._percentile(values, 0.8) == 52  # 13 samples lie beyond it
    assert run._percentile([5.0], 0.8) == 5.0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "grid-resweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "l0-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
