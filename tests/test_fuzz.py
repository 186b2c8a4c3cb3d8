"""The differential fuzzing subsystem (``repro.fuzz``).

Covers the parametric genotype generator (round-trip, determinism,
profiles), the committed edge corpus and kernel-id scheme, the
content-addressed fuzz store (dedup, key sensitivity), the fault-
injection drills (a corrupted fast-path trace *is* caught), the
deterministic shrinker (convergence, 1-minimality, purity), and both
CLIs (``repro.fuzz`` end to end, ``repro.cache`` over the fuzz store).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache import main as cache_main
from repro.fuzz.checks import FuzzOptions, run_check
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.corpus import (
    EDGE_CORPUS,
    edge_kernel_ids,
    resolve_kernel,
    seed_kernel_ids,
)
from repro.fuzz.engine import FUZZ_CONFIGS, FuzzJob, make_jobs, run_jobs
from repro.fuzz.regressions import load_repros
from repro.fuzz.shrink import shrink
from repro.fuzz.store import FuzzStore, job_store_key
from repro.workloads.generator import (
    PROFILES,
    KernelGenotype,
    random_genotype,
)

#: A (kernel, config, fault) triple known to diverge under injection —
#: the same drill the committed ``fast_vs_ref-unified-*`` repro records.
DRILL_KERNEL = "seed:default:2"
DRILL_CONFIG = "unified"
DRILL_FAULT = "drop-check-deps"


# ----------------------------------------------------------------------
# Generator and corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_genotype_roundtrip_and_determinism(profile):
    first = random_genotype(3, profile)
    again = random_genotype(3, profile)
    assert first.to_json() == again.to_json()
    rebuilt = KernelGenotype.from_json(json.loads(json.dumps(first.to_json())))
    assert rebuilt.to_json() == first.to_json()
    assert rebuilt.fingerprint() == first.fingerprint()
    loop = first.build()
    assert loop.trip_count == first.trip and loop.body


def test_profiles_are_seed_disjoint_streams():
    # The RNG is seeded with "profile:seed", so the same seed under two
    # profiles yields different kernels (no accidental stream sharing).
    fingerprints = {
        random_genotype(0, profile).fingerprint() for profile in PROFILES
    }
    assert len(fingerprints) == len(PROFILES)


def test_edge_corpus_is_stable_and_buildable():
    assert sorted(EDGE_CORPUS) == [
        "alias_storm",
        "bus_storm",
        "carry_chain",
        "fp_feedback",
        "random_table",
        "recurrence_ladder",
        "regpressure_cliff",
        "stride_zero_walk",
        "tiny",
        "wide_fp",
    ]
    for name, genotype in EDGE_CORPUS.items():
        assert genotype.name == f"edge_{name}"
        assert genotype.build().body


def test_kernel_id_scheme():
    assert resolve_kernel("edge:tiny") is EDGE_CORPUS["tiny"]
    assert (
        resolve_kernel("seed:5").fingerprint()
        == resolve_kernel("seed:default:5").fingerprint()
    )
    assert edge_kernel_ids() == [f"edge:{n}" for n in sorted(EDGE_CORPUS)]
    ids = seed_kernel_ids(0, 4, ["default", "bus"])
    assert ids == ["seed:default:0", "seed:bus:1", "seed:default:2", "seed:bus:3"]
    for bad in ("edge:nope", "seed:nope:1", "seed:x", "saxpy"):
        with pytest.raises(ValueError):
            resolve_kernel(bad)


def test_make_jobs_spread_vs_cross_product():
    kernels = ["seed:0", "seed:1", "seed:2"]
    configs = ["unified", "l0_8"]
    spread = make_jobs(kernels, configs, ("certify",), spread=True)
    assert [j.config_name for j in spread] == ["unified", "l0_8", "unified"]
    crossed = make_jobs(kernels, configs, ("certify",), spread=False)
    assert len(crossed) == len(kernels) * len(configs)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def test_job_store_key_sensitivity():
    job = FuzzJob("edge:tiny", "unified", ("certify", "fast_vs_ref"))
    base = job.key(FuzzOptions())
    assert base == job.key(FuzzOptions())  # stable
    assert base != job.key(FuzzOptions(exact_node_budget=99))
    assert base != job.key(FuzzOptions(fault=DRILL_FAULT))
    assert base != FuzzJob("edge:tiny", "l0_8", job.checks).key(FuzzOptions())
    assert base != FuzzJob("edge:tiny", "unified", ("certify",)).key(FuzzOptions())
    # Check order is canonicalised away.
    fingerprint = resolve_kernel("edge:tiny").fingerprint()
    assert job_store_key(
        fingerprint, FUZZ_CONFIGS["unified"], ("fast_vs_ref", "certify"), FuzzOptions()
    ) == base


def test_run_jobs_dedups_through_the_store(tmp_path):
    jobs = make_jobs(
        ["edge:tiny", "edge:carry_chain"], ["unified"], ("fast_vs_ref",), spread=False
    )
    store = FuzzStore(tmp_path / "store")
    cold = run_jobs(jobs, store=store)
    assert (cold.executed, cold.store_hits) == (2, 0)
    assert cold.clean
    warm = run_jobs(jobs, store=FuzzStore(tmp_path / "store"))
    assert (warm.executed, warm.store_hits) == (0, 2)
    assert warm.clean
    # A duplicate job (same content key) is collapsed before execution.
    doubled = run_jobs(jobs + jobs, store=FuzzStore(tmp_path / "store"))
    assert (doubled.total, doubled.executed, doubled.store_hits) == (4, 0, 2)


def test_store_records_mismatches_for_replay(tmp_path):
    jobs = make_jobs([DRILL_KERNEL], [DRILL_CONFIG], ("fast_vs_ref",), spread=False)
    options = FuzzOptions(fault=DRILL_FAULT)
    store = FuzzStore(tmp_path / "store")
    report = run_jobs(jobs, options=options, store=store)
    assert not report.clean and len(report.mismatched) == 1
    # The verdict (not just cleanliness) is cached: a second run serves
    # the same mismatch from the store without re-simulating.
    again = run_jobs(jobs, options=options, store=FuzzStore(tmp_path / "store"))
    assert again.executed == 0 and len(again.mismatched) == 1
    entry = again.mismatched[0]
    assert entry["job"] == report.mismatched[0]["job"]
    assert entry["mismatches"] == report.mismatched[0]["mismatches"]
    assert entry["job"]["kernel_id"] == DRILL_KERNEL
    assert entry["schema"] == 1


# ----------------------------------------------------------------------
# Fault injection and shrinking
# ----------------------------------------------------------------------


def test_fault_injection_is_caught_and_clean_without_it():
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    clean = run_check("fast_vs_ref", genotype.build(), config, FuzzOptions())
    assert clean == []
    hurt = run_check(
        "fast_vs_ref", genotype.build(), config, FuzzOptions(fault=DRILL_FAULT)
    )
    assert hurt, "injected trace corruption must be observable"


def test_shrinker_converges_deterministically_to_a_minimal_kernel():
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    options = FuzzOptions(fault=DRILL_FAULT)

    first = shrink(genotype, config, "fast_vs_ref", options)
    assert first.reproduced
    assert len(first.genotype.ops) <= len(genotype.ops)
    assert first.genotype.trip <= genotype.trip
    assert first.genotype.name == f"{genotype.name}_min"

    # Deterministic: a second run retraces the identical path.
    second = shrink(genotype, config, "fast_vs_ref", options)
    assert second.genotype.to_json() == first.genotype.to_json()
    assert (second.rounds, second.attempts) == (first.rounds, first.attempts)

    # 1-minimal: the shrunk kernel still reproduces, and no single op
    # can be removed without losing the divergence.
    shrunk = first.genotype
    assert run_check("fast_vs_ref", shrunk.build(), config, options)
    for index in range(len(shrunk.ops)):
        data = shrunk.to_json()
        data["ops"] = data["ops"][:index] + data["ops"][index + 1 :]
        if not data["ops"]:
            continue
        smaller = KernelGenotype.from_json(data)
        try:
            still = run_check("fast_vs_ref", smaller.build(), config, options)
        except Exception:
            still = []
        assert not still, f"dropping op {index} still reproduces: not 1-minimal"


def test_shrinker_reports_non_reproducing_input():
    result = shrink(
        resolve_kernel("edge:tiny"), FUZZ_CONFIGS["unified"], "fast_vs_ref"
    )
    assert not result.reproduced
    assert result.genotype is not None


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------


def test_fuzz_cli_run_replay_stats_roundtrip(tmp_path, capsys):
    store = tmp_path / "store"
    summary = tmp_path / "summary.json"
    rc = fuzz_main(
        [
            "run",
            "--seeds",
            "0:2",
            "--no-edge",
            "--configs",
            "unified",
            "--checks",
            "fast_vs_ref",
            "--store",
            str(store),
            "--regressions-dir",
            str(tmp_path / "repros"),
            "--json",
            str(summary),
        ]
    )
    assert rc == 0
    report = json.loads(summary.read_text())
    assert report["clean"] and report["total"] == 2 and report["repros"] == []

    assert fuzz_main(["stats", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "2 clean" in out and "unified: 2" in out

    # The committed regression corpus replays clean through the CLI too.
    corpus = Path(__file__).parent / "corpus" / "regressions"
    assert fuzz_main(["replay", "--dir", str(corpus), "--min", "2"]) == 0


def test_fuzz_cli_fault_drill_writes_a_shrunk_repro(tmp_path):
    repros = tmp_path / "repros"
    rc = fuzz_main(
        [
            "run",
            "--seeds",
            "2:3",
            "--profiles",
            "default",
            "--no-edge",
            "--configs",
            DRILL_CONFIG,
            "--checks",
            "fast_vs_ref",
            "--inject-fault",
            DRILL_FAULT,
            "--no-store",
            "--regressions-dir",
            str(repros),
            "--json",
            str(tmp_path / "summary.json"),
        ]
    )
    assert rc == 1, "a mismatching sweep must gate CI"
    cases = load_repros(repros)
    assert len(cases) == 1
    case = cases[0]
    assert case.check == "fast_vs_ref" and case.config_name == DRILL_CONFIG
    assert "injected fault" in (case.note or "")
    assert case.shrink["reproduced"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["repros"] == [str(case.path)] and not summary["clean"]
    # The drill repro replays clean without the fault (the real tree is
    # sound) and red with it (the kernel kept its divergence).
    assert fuzz_main(["replay", "--dir", str(repros)]) == 0
    assert (
        fuzz_main(["replay", "--dir", str(repros), "--inject-fault", DRILL_FAULT]) == 1
    )


def test_cache_cli_covers_the_fuzz_store(tmp_path, capsys):
    store = tmp_path / "store"
    jobs = make_jobs(["edge:tiny"], ["unified"], ("certify",), spread=False)
    assert run_jobs(jobs, store=FuzzStore(store)).clean
    argv = [
        "--cache-dir",
        str(tmp_path / "absent-results"),
        "--compile-cache-dir",
        str(tmp_path / "absent-compile"),
        "--fuzz-cache-dir",
        str(store),
    ]
    assert cache_main(argv + ["stats"]) == 0
    out = capsys.readouterr().out
    assert "fuzz:" in out and "entries: 1" in out
    assert cache_main(argv + ["verify"]) == 0
    out = capsys.readouterr().out
    assert "1 entries ok, 0 corrupt" in out
    # Corrupt the entry on disk: verify must drop it and exit non-zero.
    [entry_file] = [p for p in store.rglob("*.json") if p.name != "manifest.json"]
    assert entry_file.parent == store / entry_file.stem[0]  # the key's shard
    entry_file.write_text("{not json")
    assert cache_main(argv + ["verify"]) == 1
    assert not entry_file.exists()
