"""Sweep-service tests: supervisor, coalescing, checkpoint, sharding.

Fault-injection tests here use toy runners and sub-second heartbeat
policies so the whole file stays tier-1 fast; the full chaos drill
(real simulations, concurrent clients, mid-sweep server kill) runs as
``test_chaos_drill_full`` under the ``slow`` marker and in the CI
``chaos-smoke`` lane.
"""

import asyncio
import json
import time

import pytest

from repro.machine import l0_config, unified_config
from repro.pipeline import (
    KeyedFileStore,
    RequestError,
    ResultCache,
    RunRequest,
    SerialExecutor,
    Session,
)
from repro.service import (
    Fault,
    FaultPlan,
    JobFailureError,
    RetryPolicy,
    SupervisedExecutor,
    Supervisor,
    SweepCheckpoint,
    degrade_request,
    requests_from_spec,
    run_drill,
    sweep_spec,
    truncate_entry,
)
from repro.service.retry import JobFailure
from repro.sim.runner import SimOptions

#: Fast-reflex policy for toy-runner fault tests.
FAST = RetryPolicy(
    max_attempts=4,
    timeout_s=10.0,
    heartbeat_timeout_s=0.5,
    heartbeat_interval_s=0.05,
    base_delay_s=0.01,
    max_delay_s=0.05,
)


def toy_runner(payload, fault):
    """Module-level worker fn: double the payload, or raise on 'boom'."""
    if payload == "boom":
        raise ValueError("kaboom")
    return payload * 2


def toy_double(value):
    return value * 2


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


def test_supervisor_completes_jobs_in_any_submission_order():
    async def main():
        async with Supervisor(toy_runner, workers=2, policy=FAST) as sup:
            futures = [sup.submit(f"k{i}", i) for i in range(8)]
            return await asyncio.gather(*futures), sup.stats

    results, stats = asyncio.run(main())
    assert results == [i * 2 for i in range(8)]
    assert stats.completed == 8
    assert stats.duplicate_simulations == 0
    assert not stats.dead


def test_supervisor_restarts_sigkilled_worker_and_requeues_job():
    plan = FaultPlan(seed=0, by_dispatch=((0, Fault("kill")),))

    async def main():
        async with Supervisor(toy_runner, workers=2, policy=FAST, faults=plan) as sup:
            futures = [sup.submit(f"k{i}", i) for i in range(4)]
            return await asyncio.gather(*futures), sup.stats

    results, stats = asyncio.run(main())
    assert results == [0, 2, 4, 6]
    assert stats.crashes == 1
    assert stats.restarts >= 1
    assert stats.retries >= 1
    assert stats.duplicate_simulations == 0


def test_supervisor_watchdog_kills_hung_worker():
    # The hang sleeps silently past the 0.5 s heartbeat timeout; the
    # watchdog must kill the wedged worker and retry its job elsewhere.
    plan = FaultPlan(seed=0, by_dispatch=((1, Fault("hang", seconds=5.0)),))

    async def main():
        async with Supervisor(toy_runner, workers=2, policy=FAST, faults=plan) as sup:
            futures = [sup.submit(f"k{i}", i) for i in range(4)]
            return await asyncio.gather(*futures), sup.stats

    start = time.monotonic()
    results, stats = asyncio.run(main())
    assert results == [0, 2, 4, 6]
    assert stats.hung == 1
    assert stats.restarts >= 1
    # Recovery must come from the watchdog, not from the hang expiring.
    assert time.monotonic() - start < 5.0


def test_poisoned_job_dead_letters_and_queue_keeps_flowing():
    async def main():
        async with Supervisor(toy_runner, workers=2, policy=FAST) as sup:
            good = [sup.submit(f"k{i}", i) for i in range(4)]
            bad = sup.submit("poison", "boom", {"benchmark": "toy"})
            results = await asyncio.gather(*good)
            with pytest.raises(JobFailureError) as excinfo:
                await bad
            return results, excinfo.value.failure, sup.stats

    results, failure, stats = asyncio.run(main())
    assert results == [0, 2, 4, 6]
    assert failure.key == "poison"
    assert failure.kind == "error"
    assert failure.attempts == 1  # errors are terminal by default
    assert failure.description == {"benchmark": "toy"}
    assert "kaboom" in failure.detail
    assert stats.completed == 4


def test_supervisor_degradation_ladder_rewrites_payload():
    def degrade(payload, failure, applied):
        if payload == "boom" and "fallback" not in applied:
            return "rescued", "fallback"
        return None

    async def main():
        async with Supervisor(
            toy_runner, workers=1, policy=FAST, degrade=degrade
        ) as sup:
            return await sup.submit("job", "boom"), sup.stats

    result, stats = asyncio.run(main())
    assert result == "rescuedrescued"  # toy runner doubles the payload
    assert stats.degraded == {"job": ("fallback",)}
    assert not stats.dead


def test_supervisor_rejects_duplicate_active_keys():
    async def main():
        async with Supervisor(toy_runner, workers=1, policy=FAST) as sup:
            sup.submit("dup", 1)
            with pytest.raises(ValueError, match="already active"):
                sup.submit("dup", 2)

    asyncio.run(main())


# ----------------------------------------------------------------------
# Degradation ladder (request-level hook)
# ----------------------------------------------------------------------


def test_degrade_request_exact_deadline_falls_back_to_sms():
    request = RunRequest("g721dec", l0_config(8), SimOptions(scheduler="exact"))
    payload = ("origkey", request, None, {})
    failure = JobFailure(key="origkey", kind="timeout", attempts=3)
    step = degrade_request(payload, failure, ())
    assert step is not None
    (key, new_request, _, meta), label = step
    assert label == "exact->sms"
    assert key == "origkey"  # stored under the *original* key
    assert new_request.options.scheduler == "sms"
    assert meta == {"degraded": "exact->sms", "degraded_after": "timeout"}
    # Each rung fires at most once.
    assert degrade_request(payload, failure, ("exact->sms",)) is None


def test_degrade_request_error_falls_back_to_reference_sim():
    request = RunRequest("g721dec", l0_config(8), SimOptions(fast_sim=True))
    failure = JobFailure(key="k", kind="error", attempts=1)
    step = degrade_request(("k", request, None, {}), failure, ())
    assert step is not None
    (_, new_request, _, meta), label = step
    assert label == "fast->reference"
    assert new_request.options.fast_sim is False
    assert meta["degraded_after"] == "error"
    # SMS jobs that merely time out have no cheaper scheduler to try.
    sms = RunRequest("g721dec", l0_config(8), SimOptions(scheduler="sms"))
    timeout = JobFailure(key="k", kind="timeout", attempts=3)
    assert degrade_request(("k", sms, None, {}), timeout, ()) is None


# ----------------------------------------------------------------------
# SupervisedExecutor (sync facade)
# ----------------------------------------------------------------------


def test_supervised_executor_matches_serial_on_toy_fn():
    items = list(range(7)) + [3]  # a duplicate item must not collide
    supervised = SupervisedExecutor(2, policy=FAST).map(items, fn=toy_double)
    assert supervised == SerialExecutor().map(items, fn=toy_double)


def test_supervised_executor_runs_real_requests_byte_identically():
    options = SimOptions(sim_cap=25)
    requests = [
        RunRequest("g721dec", unified_config(), options),
        RunRequest("g721dec", l0_config(4), options),
    ]
    from repro.pipeline.cache import result_fingerprint

    serial = Session(options=options).run_many(requests)
    supervised = Session(
        options=options, executor=SupervisedExecutor(2, policy=FAST)
    ).run_many(requests)
    assert [result_fingerprint(r) for r in supervised] == [
        result_fingerprint(r) for r in serial
    ]


def test_request_error_carries_key_through_executors():
    request = RunRequest("no-such-benchmark", unified_config(), SimOptions())
    with pytest.raises(RequestError) as excinfo:
        SerialExecutor().map([request])
    assert excinfo.value.key == request.key
    assert excinfo.value.description["benchmark"] == "no-such-benchmark"
    # ... and through the supervised pool (pickled across the pipe).
    with pytest.raises(JobFailureError) as dead:
        SupervisedExecutor(2, policy=FAST).map([request, request])
    assert request.key[:12] in str(dead.value) or "no-such-benchmark" in str(
        dead.value
    )


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------


def test_checkpoint_round_trips_spec_done_and_dead(tmp_path):
    path = tmp_path / "ckpt.json"
    ckpt = SweepCheckpoint(path=path, spec={"benchmarks": ["g721dec"], "grid": "smoke"})
    ckpt.mark_done("a" * 64)
    ckpt.mark_dead(
        JobFailure(key="b" * 64, kind="hung", attempts=4, detail="wedged")
    )
    ckpt.flush()
    loaded = SweepCheckpoint.load(path)
    assert loaded is not None
    assert loaded.spec == ckpt.spec
    assert loaded.done == {"a" * 64}
    assert loaded.dead["b" * 64].kind == "hung"
    assert loaded.remaining(["a" * 64, "b" * 64, "c" * 64]) == ["b" * 64, "c" * 64]


def test_checkpoint_corruption_means_start_fresh(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{ torn mid-writ")
    assert SweepCheckpoint.load(path) is None
    assert SweepCheckpoint.load(tmp_path / "absent.json") is None
    # Wrong schema version is also "no checkpoint", not a crash.
    path.write_text(json.dumps({"schema": 999, "spec": {}, "done": [], "dead": {}}))
    assert SweepCheckpoint.load(path) is None


def test_checkpoint_done_supersedes_dead(tmp_path):
    ckpt = SweepCheckpoint(path=tmp_path / "c.json")
    ckpt.mark_dead(JobFailure(key="k", kind="crash", attempts=3))
    ckpt.mark_done("k")  # a later retry succeeded
    ckpt.flush()
    loaded = SweepCheckpoint.load(tmp_path / "c.json")
    assert loaded.done == {"k"} and not loaded.dead


# ----------------------------------------------------------------------
# Sharded result store
# ----------------------------------------------------------------------


def _blob_store(path):
    return KeyedFileStore(path, ".bin", lambda v: v, lambda b: b)


KEY_A = "a" + "0" * 63
KEY_B = "b" + "0" * 63


def test_sharded_store_places_entries_by_key_prefix(tmp_path):
    store = _blob_store(tmp_path / "store")
    store.save(KEY_A, b"alpha")
    store.save(KEY_B, b"beta")
    assert (tmp_path / "store" / "a" / f"{KEY_A}.bin").is_file()
    assert (tmp_path / "store" / "b" / f"{KEY_B}.bin").is_file()
    assert store.load(KEY_A) == b"alpha"
    assert set(store.entries()) == {KEY_A, KEY_B}
    assert store.total_bytes() == len(b"alpha") + len(b"beta")
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["a", "b"]


def test_sharded_store_reads_never_create_shard_dirs(tmp_path):
    store = _blob_store(tmp_path / "store")
    assert store.load("c" + "0" * 63) is None
    assert list((tmp_path / "store").iterdir()) == []  # no 'c/' littered
    assert store.entries() == {}
    report = store.gc(max_bytes=0)
    assert report.entries_before == 0
    assert list((tmp_path / "store").iterdir()) == []


def test_sharded_store_verify_drops_torn_entries(tmp_path):
    store = _blob_store(tmp_path / "store")
    decoded_ok = b'{"good": true}'
    store._decode = lambda b: json.loads(b)  # corrupt = undecodable JSON
    store.save(KEY_A, decoded_ok)
    store.save(KEY_B, b'{"also": "good"}')
    truncate_entry(store, KEY_B, b'{"also": "good"}')
    report = store.verify()
    assert report.ok == 1
    assert report.corrupt == [KEY_B]
    assert store.load(KEY_B) is None


def test_result_cache_reopen_round_trips_entry(tmp_path):
    from repro.sim.stats import ProgramResult

    cache = ResultCache(tmp_path / "rc")
    result = ProgramResult(
        benchmark="toy", arch="l0", meta={"degraded": "exact->sms"}
    )
    key = "d" * 64
    cache.put(key, result)
    assert (tmp_path / "rc" / "d" / f"{key}.json").is_file()
    reopened = ResultCache(tmp_path / "rc")  # a fresh process's view
    loaded = reopened.get(key)
    assert loaded == result
    assert loaded.meta == {"degraded": "exact->sms"}  # schema v4 round-trip


def test_sharded_gc_splits_budget_across_shards(tmp_path):
    store = _blob_store(tmp_path / "store")
    for prefix in "abcd":
        store.save(prefix + "0" * 63, b"x" * 100)
    report = store.gc(max_bytes=0, min_age_s=0.0)
    assert report.entries_before == 4
    assert report.entries_after == 0
    assert len(report.evicted) == 4


# ----------------------------------------------------------------------
# Sweep specs + drill
# ----------------------------------------------------------------------


def test_sweep_spec_round_trips_to_requests():
    spec = sweep_spec(["g721dec"], "smoke", sim_cap=40)
    assert json.loads(json.dumps(spec)) == spec  # checkpoint-journalable
    requests = requests_from_spec(spec)
    assert len(requests) == 2  # smoke grid: unified + l0-8
    assert {r.benchmark for r in requests} == {"g721dec"}
    assert all(r.options.sim_cap == 40 for r in requests)
    with pytest.raises(ValueError, match="unknown grid"):
        sweep_spec(["g721dec"], "nope")


def test_chaos_drill_small(tmp_path):
    """Tier-1 drill: SIGKILL + torn write, concurrent clients, byte
    identity against a serial run, zero duplicate simulations."""
    report = run_drill(
        seed=1,
        workers=2,
        clients=3,
        benchmarks=("g721dec",),
        grid="smoke",
        sim_cap=40,
        kills=1,
        hangs=0,  # the hang path costs seconds; covered by toy tests + slow drill
        truncates=1,
        phases=("chaos",),
        out_dir=tmp_path,
    )
    assert report["ok"], report["failures"]
    stats = report["chaos"]["supervisor"]
    assert stats["crashes"] >= 1
    assert stats["duplicate_simulations"] == 0
    assert report["chaos"]["coalesced"] > 0
    assert len(report["chaos"]["verify"]["corrupt"]) == 1


@pytest.mark.slow
def test_chaos_drill_full(tmp_path):
    """The acceptance drill: kill + hang + truncate under 4 concurrent
    clients, then a mid-sweep server kill and checkpoint resume."""
    report = run_drill(
        seed=0,
        workers=3,
        clients=4,
        benchmarks=("g721dec", "gsmdec"),
        grid="fig5",
        sim_cap=60,
        phases=("chaos", "resume"),
        out_dir=tmp_path,
    )
    assert report["ok"], report["failures"]
