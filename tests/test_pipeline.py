"""Tests for the pipeline subsystem: passes, cache, executors, session."""

import json

import pytest

from repro.eval import ExperimentContext, fig5, fig6
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    CompileOptions,
    ParallelExecutor,
    Pass,
    PassManager,
    PassOrderError,
    PipelineError,
    ResultCache,
    RunRequest,
    SerialExecutor,
    Session,
    cache_key,
    decode_result,
    encode_result,
    result_fingerprint,
)
from repro.pipeline.passes import DEFAULT_PIPELINE
from repro.scheduler import compile_loop
from repro.sim import SimOptions
from repro.workloads.kernels import make_dpcm, make_saxpy

FAST = SimOptions(sim_cap=80)
TWO_BENCHMARKS = ("g721dec", "gsmdec")


class TestPassManager:
    def test_default_pipeline_matches_legacy_driver(self):
        loop = make_saxpy()
        config = l0_config(8)
        artifact = PassManager().run(loop, config)
        legacy = compile_loop(loop, config)
        assert artifact.trace == list(DEFAULT_PIPELINE)
        assert artifact.schedule.ii == legacy.schedule.ii
        assert artifact.unroll_factor == legacy.unroll_factor
        assert artifact.policy_name == legacy.policy_name

    def test_forced_unroll_flows_through_options(self):
        artifact = PassManager().run(
            make_saxpy(), l0_config(8), CompileOptions(unroll_factor=1)
        )
        assert artifact.unroll_factor == 1
        assert artifact.body.unroll_factor == 1

    def test_misordered_pipeline_rejected_before_running(self):
        passes = list(DEFAULT_PIPELINE)
        passes.remove("mem-disambiguation")
        with pytest.raises(PassOrderError, match="dep_info"):
            PassManager(passes)

    def test_schedule_before_ddg_rejected(self):
        with pytest.raises(PassOrderError):
            PassManager(["select-unroll", "apply-unroll", "modulo-schedule"])

    def test_unknown_pass_rejected(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            PassManager(["select-unroll", "no-such-pass"])

    def test_custom_pass_slots_in(self):
        seen = []
        probe = Pass(
            name="probe",
            run=lambda artifact: seen.append(artifact.unroll_factor),
            requires=("unroll_factor",),
        )
        passes = list(DEFAULT_PIPELINE)
        passes.insert(2, probe)
        artifact = PassManager(passes).run(make_dpcm(), unified_config())
        assert seen == [artifact.unroll_factor]
        assert "probe" in artifact.trace

    def test_compiled_requires_schedule(self):
        manager = PassManager(DEFAULT_PIPELINE[:2])
        artifact = manager.run(make_saxpy(), unified_config())
        with pytest.raises(PassOrderError):
            artifact.compiled()


class TestCacheKey:
    def test_stable_across_equal_values(self):
        assert cache_key("g721dec", l0_config(8), SimOptions()) == cache_key(
            "g721dec", l0_config(8), SimOptions()
        )

    def test_sensitive_to_benchmark_config_and_options(self):
        base = cache_key("g721dec", l0_config(8), SimOptions())
        assert cache_key("gsmdec", l0_config(8), SimOptions()) != base
        assert cache_key("g721dec", l0_config(4), SimOptions()) != base
        assert cache_key("g721dec", unified_config(), SimOptions()) != base
        assert (
            cache_key(
                "g721dec", l0_config(8), SimOptions(compile_kwargs={"allow_psr": True})
            )
            != base
        )

    def test_unbounded_l0_distinct_from_bounded(self):
        assert cache_key("rasta", l0_config(None), SimOptions()) != cache_key(
            "rasta", l0_config(16), SimOptions()
        )

    def test_execution_tuning_knobs_share_entries(self):
        """loop_workers / compile_cache_dir change how a run executes,
        never what it computes — they must not split cache keys."""
        base = cache_key("g721dec", l0_config(8), SimOptions())
        assert cache_key("g721dec", l0_config(8), SimOptions(loop_workers=4)) == base
        assert (
            cache_key(
                "g721dec", l0_config(8), SimOptions(compile_cache_dir="/tmp/x")
            )
            == base
        )


class TestResultCacheRoundTrip:
    def test_encode_decode_preserves_everything(self):
        request = RunRequest("g721dec", l0_config(8), FAST)
        result = SerialExecutor().map([request])[0]
        clone = decode_result(json.loads(json.dumps(encode_result(result))))
        assert result_fingerprint(clone) == result_fingerprint(result)
        assert clone.total_cycles == result.total_cycles
        assert clone.memory_stats.l0.hit_rate == result.memory_stats.l0.hit_rate
        assert clone.average_unroll_factor == result.average_unroll_factor

    def test_disk_store_survives_new_cache(self, tmp_path):
        request = RunRequest("gsmdec", unified_config(), FAST)
        session = Session(options=FAST, cache=ResultCache(tmp_path))
        first = session.run(request)
        assert session.simulations == 1

        reopened = Session(options=FAST, cache=ResultCache(tmp_path))
        second = reopened.run(request)
        assert reopened.simulations == 0
        assert reopened.cache_hits == 1
        assert result_fingerprint(second) == result_fingerprint(first)

    def test_clear_touches_only_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        session = Session(options=FAST, cache=cache)
        request = session.request("g721dec", l0_config(8))
        session.run(request)
        entry = tmp_path / request.key[0] / f"{request.key}.json"
        assert entry.exists()
        user_file = entry.parent / "user-data.json"
        user_file.write_text("{}")
        orphan_tmp = tmp_path / "a" / f".{'ab' * 32}.999.tmp"
        orphan_tmp.parent.mkdir(exist_ok=True)
        orphan_tmp.write_text("half-written")

        cache.clear()
        assert user_file.exists()  # unrelated files are never touched
        assert not orphan_tmp.exists()
        assert not entry.exists()
        assert ResultCache(tmp_path).get(request.key) is None

    def test_clear_tolerates_concurrently_removed_entries(self, tmp_path, monkeypatch):
        """Two processes clearing one directory race glob vs unlink."""
        from pathlib import Path

        cache = ResultCache(tmp_path)
        ghost = tmp_path / "0" / f"{'0' * 64}.json"  # matched but never created
        ghost.parent.mkdir()
        real_glob = Path.glob

        def racing_glob(self, pattern):
            results = list(real_glob(self, pattern))
            if pattern == "*.json":
                results.append(ghost)
            return results

        monkeypatch.setattr(Path, "glob", racing_glob)
        cache.clear()  # must not raise on the vanished entry

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        request = RunRequest("gsmdec", unified_config(), FAST)
        torn = tmp_path / request.key[0] / f"{request.key}.json"
        torn.parent.mkdir()
        torn.write_text("{torn write")
        session = Session(options=FAST, cache=ResultCache(tmp_path))
        result = session.run(request)
        assert session.simulations == 1  # re-simulated, no crash
        assert result.total_cycles > 0
        # ... and the fresh result replaced the corrupt file on disk
        reopened = Session(options=FAST, cache=ResultCache(tmp_path))
        assert reopened.run(request).total_cycles == result.total_cycles
        assert reopened.simulations == 0


class TestSessionCaching:
    def test_hit_and_miss_semantics(self):
        session = Session(options=FAST)
        request = session.request("g721dec", l0_config(8))
        first = session.run(request)
        second = session.run(session.request("g721dec", l0_config(8)))
        assert session.simulations == 1
        assert second is first
        # re-reading the session's own product is not a "hit": cache_hits
        # counts only work a pre-existing cache entry avoided
        assert session.cache_hits == 0

    def test_run_many_dedupes_and_preserves_order(self):
        session = Session(options=FAST)
        a = session.request("g721dec", l0_config(8))
        b = session.request("gsmdec", l0_config(8))
        results = session.run_many([a, b, a])
        assert session.simulations == 2
        assert [r.benchmark for r in results] == ["g721dec", "gsmdec", "g721dec"]
        assert results[0] is results[2]

    def test_negative_workers_means_all_cores(self):
        from repro.pipeline import make_executor

        assert isinstance(make_executor(-1), ParallelExecutor)
        assert isinstance(make_executor(-2), ParallelExecutor)
        assert make_executor(-2).workers >= 1
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)


def _sweep_requests(options):
    return [
        RunRequest(name, config, options)
        for name in TWO_BENCHMARKS
        for config in (unified_config(), l0_config(8))
    ]


class TestExecutorParity:
    def test_serial_and_parallel_rows_byte_identical(self):
        requests = _sweep_requests(FAST)
        serial = SerialExecutor().map(requests)
        parallel = ParallelExecutor(2).map(requests)
        assert [result_fingerprint(r) for r in parallel] == [
            result_fingerprint(r) for r in serial
        ]

    def test_parallel_session_experiment_matches_serial(self):
        def rows(workers):
            ctx = ExperimentContext(
                options=FAST, benchmarks=TWO_BENCHMARKS, workers=workers
            )
            return fig5(ctx, sizes=(8,))

        serial, parallel = rows(None), rows(2)
        assert serial == parallel


class TestOptionsWith:
    def test_merges_compile_kwargs_and_keeps_other_knobs(self):
        ctx = ExperimentContext(
            options=SimOptions(
                sim_cap=99,
                selective_flush=True,
                compile_kwargs={"allow_psr": True},
            ),
            benchmarks=TWO_BENCHMARKS,
        )
        merged = ctx.options_with(prefetch_distance=2)
        assert merged.compile_kwargs == {"allow_psr": True, "prefetch_distance": 2}
        assert merged.sim_cap == 99
        assert merged.selective_flush is True
        # the context's own options are untouched
        assert ctx.options.compile_kwargs == {"allow_psr": True}


class TestExperimentContextIntegration:
    def test_repeated_experiments_resimulate_nothing(self):
        ctx = ExperimentContext(options=FAST, benchmarks=TWO_BENCHMARKS)
        fig5(ctx, sizes=(4, 8))
        first = ctx.session.simulations
        assert first > 0
        fig5(ctx, sizes=(4, 8))
        fig6(ctx)  # shares the l0-8 runs with fig5
        assert ctx.session.simulations == first

    def test_experiments_share_content_addressed_entries(self):
        ctx = ExperimentContext(options=FAST, benchmarks=("g721dec",))
        ctx.run("g721dec", "some-label", l0_config(8))
        before = ctx.session.simulations
        ctx.run("g721dec", "another-label", l0_config(8))
        assert ctx.session.simulations == before


class TestConfigFieldDeclarations:
    """Guard: every frontend pass declares its MachineConfig reads, and
    the declarations cover everything the pass actually touches (run
    against a read-tracing config)."""

    def test_every_frontend_pass_declares_config_fields(self):
        from repro.pipeline import FRONTEND_PIPELINE, get_pass

        for name in FRONTEND_PIPELINE:
            assert get_pass(name).config_fields is not None, (
                f"frontend pass {name!r} must declare config_fields"
            )

    def test_frontend_union_covers_core_not_backend_fields(self):
        from repro.pipeline import frontend_config_fields

        union = frontend_config_fields()
        assert "n_clusters" in union and "l1_latency" in union
        # Backend-only parameters must stay out, or Figure-5 sweeps stop
        # sharing their frontend artifacts across L0 sizes.
        assert "l0_entries" not in union and "n_buses" not in union

    @pytest.mark.parametrize("make_loop", [make_saxpy, make_dpcm])
    @pytest.mark.parametrize(
        "config", [l0_config(8), l0_config(4, n_clusters=2), unified_config()]
    )
    def test_frontend_reads_covered_by_declarations(self, make_loop, config):
        from repro.pipeline import FRONTEND_PIPELINE, get_pass, traced_config
        from repro.pipeline.artifact import CompilationArtifact

        traced, accessed = traced_config(config)
        artifact = CompilationArtifact(
            loop=make_loop(), config=traced, options=CompileOptions()
        )
        for name in FRONTEND_PIPELINE:
            p = get_pass(name)
            before = set(accessed)
            p(artifact)
            undeclared = (accessed - before) - set(p.config_fields)
            assert not undeclared, (
                f"pass {name!r} read undeclared config fields "
                f"{sorted(undeclared)}; add them to its config_fields "
                "declaration (they become part of the frontend cache key)"
            )

    def test_tracer_catches_an_undeclared_read(self):
        """The guard has teeth: a pass reading an undeclared field is
        visible in the trace."""
        from repro.pipeline import Pass, traced_config
        from repro.pipeline.artifact import CompilationArtifact

        rogue = Pass(
            name="rogue",
            run=lambda artifact: artifact.config.l0_entries,
            config_fields=(),
        )
        traced, accessed = traced_config(l0_config(8))
        artifact = CompilationArtifact(
            loop=make_saxpy(), config=traced, options=CompileOptions()
        )
        rogue(artifact)
        assert set(accessed) - set(rogue.config_fields) == {"l0_entries"}

    def test_register_pass_rejects_unknown_config_fields(self):
        from repro.pipeline import register_pass

        with pytest.raises(PipelineError, match="unknown config fields"):
            register_pass("bogus-fields", config_fields=("not_a_field",))(
                lambda artifact: None
            )

    def test_traced_config_is_functionally_identical(self):
        from repro.pipeline import traced_config

        config = l0_config(8)
        traced, accessed = traced_config(config)
        compiled_plain = compile_loop(make_saxpy(), config)
        artifact = PassManager().run(make_saxpy(), traced)
        assert artifact.schedule.ii == compiled_plain.schedule.ii
        assert accessed  # the compile really went through the tracer
