"""Tests for the compile-artifact cache (pipeline/compilecache.py)."""

import pickle

import pytest

from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    CompileOptions,
    CompiledLoopCache,
    PassManager,
    compile_cached,
    compile_key,
    frontend_key,
)
from repro.scheduler import compile_loop
from repro.sim import LoopExecutor, make_memory
from repro.workloads.kernels import make_dpcm, make_saxpy

FIG5_SIZES = (4, 8, 16, None)


def _simulate(compiled, config, iterations=64):
    memory = make_memory(config)
    layout = MemoryLayout(align=config.l1_block)
    executor = LoopExecutor(compiled, memory, layout)
    return executor.run(iterations)


class TestKeys:
    def test_full_key_stable_across_equal_inputs(self):
        assert compile_key(
            make_saxpy(), l0_config(8), CompileOptions()
        ) == compile_key(make_saxpy(), l0_config(8), CompileOptions())

    def test_full_key_sensitive_to_loop_config_and_options(self):
        base = compile_key(make_saxpy(), l0_config(8), CompileOptions())
        assert compile_key(make_dpcm(), l0_config(8), CompileOptions()) != base
        assert compile_key(make_saxpy(), l0_config(4), CompileOptions()) != base
        assert (
            compile_key(make_saxpy(), l0_config(8), CompileOptions(allow_psr=True))
            != base
        )

    def test_frontend_key_shared_across_backend_parameters(self):
        """The unroll/memdep/DDG prefix does not read the memory system:
        every Figure-5 L0 size — and the unified baseline — share it."""
        base = frontend_key(make_saxpy(), l0_config(8), CompileOptions())
        for entries in (4, 16, None):
            key = frontend_key(make_saxpy(), l0_config(entries), CompileOptions())
            assert key == base
        assert frontend_key(make_saxpy(), unified_config(), CompileOptions()) == base

    def test_scheduler_participates_in_full_key(self):
        """SMS and exact artifacts must never collide in the cache."""
        base = compile_key(make_saxpy(), l0_config(8), CompileOptions())
        assert base == compile_key(
            make_saxpy(), l0_config(8), CompileOptions(scheduler="sms")
        )
        assert (
            compile_key(make_saxpy(), l0_config(8), CompileOptions(scheduler="exact"))
            != base
        )
        # The exact backend's budget knobs are options like any other.
        assert compile_key(
            make_saxpy(),
            l0_config(8),
            CompileOptions(scheduler="exact", exact_node_budget=7),
        ) != compile_key(
            make_saxpy(), l0_config(8), CompileOptions(scheduler="exact")
        )

    def test_scheduler_does_not_split_the_frontend(self):
        """Both schedulers resume over one shared frontend artifact."""
        base = frontend_key(make_saxpy(), l0_config(8), CompileOptions())
        assert (
            frontend_key(make_saxpy(), l0_config(8), CompileOptions(scheduler="exact"))
            == base
        )

    def test_frontend_key_sensitive_to_core_parameters(self):
        base = frontend_key(make_saxpy(), l0_config(8), CompileOptions())
        assert (
            frontend_key(make_saxpy(), l0_config(8, n_clusters=2), CompileOptions())
            != base
        )
        assert (
            frontend_key(make_saxpy(), l0_config(8, l1_latency=9), CompileOptions())
            != base
        )
        assert (
            frontend_key(
                make_saxpy(), l0_config(8), CompileOptions(unroll_factor=1)
            )
            != base
        )


class TestCacheSemantics:
    def test_fig5_sweep_compiles_frontend_once(self):
        cache = CompiledLoopCache()
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        assert cache.stats.frontend_misses == 1
        assert cache.stats.frontend_hits == len(FIG5_SIZES) - 1
        assert cache.stats.full_misses == len(FIG5_SIZES)

    def test_repeated_sweep_recompiles_nothing(self):
        cache = CompiledLoopCache()
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        compilations = cache.stats.compilations
        frontend_misses = cache.stats.frontend_misses
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        assert cache.stats.compilations == compilations
        assert cache.stats.frontend_misses == frontend_misses
        assert cache.stats.full_hits == len(FIG5_SIZES)

    def test_sms_and_exact_share_one_frontend_entry(self):
        """A scheduler sweep behaves like a Figure-5 sweep: one frontend
        compilation, one backend compilation per scheduler, and a repeat
        of either scheduler recompiles nothing."""
        cache = CompiledLoopCache()
        loop = make_dpcm()
        config = l0_config(8)
        sms = compile_cached(loop, config, CompileOptions(scheduler="sms"), cache=cache)
        assert (cache.stats.frontend_misses, cache.stats.full_misses) == (1, 1)
        exact = compile_cached(
            loop, config, CompileOptions(scheduler="exact"), cache=cache
        )
        assert cache.stats.frontend_misses == 1  # shared frontend entry
        assert cache.stats.frontend_hits == 1
        assert cache.stats.full_misses == 2  # distinct backend artifacts
        assert cache.stats.full_hits == 0
        # Artifacts really are the two different backends' outputs.
        assert sms.schedule.meta["scheduler"] == "sms"
        assert exact.schedule.meta["scheduler"] == "exact"
        assert exact.ii <= sms.ii
        # Repeats of both are pure full-layer hits.
        compile_cached(loop, config, CompileOptions(scheduler="sms"), cache=cache)
        compile_cached(loop, config, CompileOptions(scheduler="exact"), cache=cache)
        assert cache.stats.full_hits == 2
        assert cache.stats.full_misses == 2
        assert cache.stats.frontend_misses == 1

    def test_time_budgeted_compiles_bypass_the_full_layer(self):
        """A wall-clock budget makes the exact backend's output depend on
        machine load; such artifacts must never be cached (frontend
        products are deterministic and stay shared)."""
        cache = CompiledLoopCache()
        options = CompileOptions(scheduler="exact", exact_time_budget_s=1e6)
        first = compile_cached(make_saxpy(), l0_config(8), options, cache=cache)
        again = compile_cached(make_saxpy(), l0_config(8), options, cache=cache)
        assert cache.stats.full_hits == 0
        assert cache.stats.compilations == 2  # recompiled both times
        assert cache.stats.frontend_misses == 1  # frontend still shared
        assert first.ii == again.ii
        assert again.schedule.validate(again.ddg) == []

    def test_time_budget_under_sms_stays_cacheable(self):
        """The SMS backend never reads the wall-clock knob, so it keeps
        full caching even when the knob is set (e.g. a sweep flipping
        only the scheduler field)."""
        cache = CompiledLoopCache()
        options = CompileOptions(scheduler="sms", exact_time_budget_s=5.0)
        compile_cached(make_saxpy(), l0_config(8), options, cache=cache)
        compile_cached(make_saxpy(), l0_config(8), options, cache=cache)
        assert cache.stats.compilations == 1
        assert cache.stats.full_hits == 1

    def test_unknown_scheduler_fails_fast(self):
        from repro.pipeline import PipelineError

        with pytest.raises(PipelineError, match="unknown scheduler"):
            compile_cached(
                make_saxpy(),
                l0_config(8),
                CompileOptions(scheduler="smt"),
                cache=CompiledLoopCache(),
            )

    def test_default_pipeline_rejects_foreign_scheduler_request(self):
        """PassManager(DEFAULT_PIPELINE) runs the SMS pass; options
        requesting the exact backend must error, not silently get SMS."""
        from repro.pipeline import PipelineError

        with pytest.raises(PipelineError, match="backend_pipeline"):
            PassManager().run(
                make_saxpy(), l0_config(8), CompileOptions(scheduler="exact")
            )

    def test_hit_matches_fresh_compilation(self):
        cache = CompiledLoopCache()
        first = compile_cached(make_dpcm(), l0_config(8), cache=cache)
        hit = compile_cached(make_dpcm(), l0_config(8), cache=cache)
        assert hit.ii == first.ii
        assert hit.unroll_factor == first.unroll_factor
        assert hit.policy_name == first.policy_name
        assert hit.schedule.validate(hit.ddg) == []

    def test_hits_hand_out_private_objects(self):
        """Mutating a served artifact must not poison the cache (the
        schedule-validation tests corrupt schedules on purpose)."""
        cache = CompiledLoopCache()
        first = compile_cached(make_saxpy(), unified_config(), cache=cache)
        uid = next(iter(first.schedule.placed))
        del first.schedule.placed[uid]  # corrupt the caller's copy
        again = compile_cached(make_saxpy(), unified_config(), cache=cache)
        assert again.schedule.validate(again.ddg) == []

    def test_compile_loop_wrapper_equivalent_to_pass_manager(self):
        loop = make_saxpy()
        config = l0_config(8)
        artifact = PassManager().run(loop, config)
        compiled = compile_loop(loop, config)
        assert compiled.schedule.ii == artifact.schedule.ii
        assert compiled.unroll_factor == artifact.unroll_factor
        assert compiled.policy_name == artifact.policy_name


class TestSerialisationRoundTrip:
    def test_pickle_round_trip_simulates_identically(self):
        config = l0_config(8)
        compiled = compile_cached(make_dpcm(), config, cache=CompiledLoopCache())
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.ii == compiled.ii
        assert clone.unroll_factor == compiled.unroll_factor
        assert clone.schedule.validate(clone.ddg) == []
        a = _simulate(compiled, config)
        b = _simulate(clone, config)
        assert (a.compute_cycles, a.stall_cycles, a.late_loads) == (
            b.compute_cycles,
            b.stall_cycles,
            b.late_loads,
        )

    def test_disk_store_survives_new_cache(self, tmp_path):
        config = l0_config(8)
        warm = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=warm)
        assert warm.stats.compilations == 1

        reopened = CompiledLoopCache(tmp_path)
        compiled = compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.compilations == 0
        assert reopened.stats.full_hits == 1
        assert compiled.schedule.validate(compiled.ddg) == []

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        config = l0_config(8)
        key = compile_key(make_saxpy(), config, CompileOptions())
        torn = tmp_path / key[0] / f"{key}.pkl"
        torn.parent.mkdir()
        torn.write_bytes(b"torn write")
        cache = CompiledLoopCache(tmp_path)
        compiled = compile_cached(make_saxpy(), config, cache=cache)
        assert cache.stats.compilations == 1  # recompiled, no crash
        assert compiled.schedule.validate(compiled.ddg) == []
        # ... and the fresh artifact replaced the corrupt file
        reopened = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.compilations == 0

    def test_clear_touches_only_cache_entries(self, tmp_path):
        cache = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), l0_config(8), cache=cache)
        [entry] = tmp_path.rglob("*.pkl")
        assert entry.parent == tmp_path / entry.stem[0]  # the key's shard
        user_file = entry.parent / "notes.pkl"
        user_file.write_bytes(b"mine")
        cache.clear()
        assert user_file.exists()
        assert list(tmp_path.rglob("*.pkl")) == [user_file]
        reopened = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), l0_config(8), cache=reopened)
        assert reopened.stats.compilations == 1
