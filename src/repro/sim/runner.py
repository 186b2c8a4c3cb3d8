"""Loop- and program-level simulation drivers.

``run_loop`` handles one loop's full life: compile, simulate a capped
number of iterations, extrapolate the steady state to the declared trip
count, and account for repeated invocations (cold first run, warm
re-runs with the L0 buffers invalidated between them — the paper's
inter-loop coherence flush).

``run_program`` runs a whole benchmark in three phases:

1. **Plan** (sequential, analysis only): lay out the shared address
   space and decide every loop's flush policy — between-invocation
   flushes from the loop's own reuse pattern, after-loop flushes from
   the selective-flush analysis against everything left unflushed.
2. **Simulate** (pure, parallelisable): each loop compiles (through the
   compile-artifact cache) and simulates against a *private* memory
   instance at clock zero.  Loops are independent jobs, so they fan out
   across worker processes (``SimOptions.loop_workers``) and produce
   byte-identical results to the serial path by construction.
3. **Stitch** (sequential): advance the program's memory clock loop by
   loop and merge the per-loop statistics into one program record.

The private-memory split means program-order L1 warm-up across loop
boundaries is not modelled (each loop's own invocations still warm its
caches); the paper's inter-loop coherence costs are carried entirely by
the planned flushes and their cycle overheads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..isa.memory_access import MemoryLayout
from ..machine.config import ArchKind, MachineConfig
from ..memory.hierarchy import UnifiedMemory
from ..memory.interleaved import WordInterleavedMemory
from ..memory.multivliw import MultiVLIWMemory
from ..scheduler.driver import CompiledLoop
from .executor import LoopExecutor
from .stats import LoopResult, LoopRunResult, ProgramResult, merge_stats

#: Cycles charged per L0 flush for the invalidate_buffer instructions
#: (one VLIW cycle: the invalidate issues in all clusters).
INVALIDATE_OVERHEAD = 1


def make_memory(config: MachineConfig):
    if config.arch in (ArchKind.UNIFIED, ArchKind.L0):
        return UnifiedMemory(config)
    if config.arch is ArchKind.MULTIVLIW:
        return MultiVLIWMemory(config)
    if config.arch is ArchKind.INTERLEAVED:
        return WordInterleavedMemory(config)
    raise ValueError(f"unknown architecture {config.arch}")


@dataclass
class SimOptions:
    """Knobs shared by all experiments.

    ``loop_workers`` and ``compile_cache_dir`` tune *how* a simulation
    executes, never what it computes (loop fan-out is byte-identical to
    serial; the compile cache is content-addressed), so they are
    excluded from result-cache keys via ``no_cache_key``.
    """

    sim_cap: int = 1500  # max kernel iterations simulated per invocation
    warm_invocations: int = 1  # warm invocations simulated before scaling
    compile_kwargs: dict = field(default_factory=dict)
    #: Scheduler backend every loop compiles with ("sms" or "exact").
    scheduler: str = "sms"
    #: Skip the end-of-loop L0 flush when the next loop provably touches
    #: disjoint data (paper section 4.1's selective-flushing remark).
    selective_flush: bool = False
    #: Worker processes for the per-loop simulate phase of one program
    #: (None/0/1 serial, N processes, negative = all cores).
    loop_workers: int | None = field(default=None, metadata={"no_cache_key": True})
    #: Persist compile artifacts under this directory (None = in-memory
    #: process-wide cache only).
    compile_cache_dir: str | None = field(default=None, metadata={"no_cache_key": True})
    #: Use the precompiled-trace fast-path executor (byte-identical to
    #: the reference interpreter; the ``REPRO_FAST_SIM`` environment
    #: variable overrides — "0" forces the reference, "interp" the fast
    #: interpreter without the early-exit).  Excluded from cache keys:
    #: the measured cycles and stats are identical either way (only the
    #: diagnostic ``simulated_iterations`` fields can differ).
    fast_sim: bool = field(default=True, metadata={"no_cache_key": True})
    #: Allow the fast path's convergence early-exit (exact fast-forward
    #: of proven-periodic steady state).
    fast_convergence: bool = field(default=True, metadata={"no_cache_key": True})

    def __post_init__(self) -> None:
        # Normalise the two spellings of the scheduler knob: a
        # ``scheduler`` entry in ``compile_kwargs`` is hoisted into the
        # field (winning over it), so equivalent runs share one
        # content-addressed result-cache key however they were built.
        if "scheduler" in self.compile_kwargs:
            self.compile_kwargs = dict(self.compile_kwargs)
            self.scheduler = self.compile_kwargs.pop("scheduler")


def _compile(loop, config: MachineConfig, options: SimOptions) -> CompiledLoop:
    """Compile one loop through the compile-artifact cache."""
    from ..pipeline.artifact import CompileOptions
    from ..pipeline.compilecache import compile_cached, get_compile_cache

    return compile_cached(
        loop,
        config,
        CompileOptions(scheduler=options.scheduler, **options.compile_kwargs),
        cache=get_compile_cache(options.compile_cache_dir),
    )


def _fast_mode(options: SimOptions) -> tuple[bool, bool]:
    """Resolve the (fast executor?, convergence?) pair.

    The ``REPRO_FAST_SIM`` environment variable is the debugging
    override: ``0``/``off``/``false`` force the reference interpreter,
    ``interp`` forces the fast interpreter without the early-exit, and
    anything else defers to the options.
    """
    env = os.environ.get("REPRO_FAST_SIM", "").strip().lower()
    if env in ("0", "off", "false"):
        return False, False
    if env == "interp":
        return True, False
    return options.fast_sim, options.fast_convergence


def make_loop_executor(
    compiled: CompiledLoop,
    memory,
    layout: MemoryLayout,
    options: SimOptions | None = None,
):
    """The executor ``run_loop`` drives: fast path unless opted out."""
    options = options or SimOptions()
    fast, converge = _fast_mode(options)
    if not fast:
        return LoopExecutor(compiled, memory, layout)
    from .trace import TraceExecutor

    return TraceExecutor(compiled, memory, layout, convergence=converge)


def _extrapolated(
    executor, iterations: int, cap: int, clock: int
) -> tuple[LoopRunResult, int, str]:
    """Run up to ``cap`` iterations and extrapolate the steady state.

    Returns the (possibly scaled) run result, the advanced clock, and
    how the unsimulated remainder was covered: ``"none"`` (everything
    interpreted), ``"exact"`` (the fast path's convergence early-exit —
    cycle counts still exact), ``"statistical"`` (sim-cap extrapolation)
    or ``"exact+statistical"``.  ``result.simulated_iterations`` is the
    honest count of iterations actually interpreted.
    """
    simulated = min(iterations, cap)
    result = executor.run(simulated, start_cycle=clock)
    clock += result.total_cycles
    exact = getattr(executor, "last_converged", False)
    if simulated == iterations:
        return result, clock, ("exact" if exact else "none")
    # Steady-state stall rate from the second half of the simulated run
    # (the first half absorbs cold misses).
    history = executor.last_stall_by_iteration
    half = simulated // 2
    tail = history[half:]
    rate = sum(tail) / len(tail) if tail else 0.0
    remaining = iterations - simulated
    total = LoopRunResult(
        iterations=iterations,
        compute_cycles=(iterations - 1) * executor.schedule.ii
        + executor.schedule.span,
        stall_cycles=result.stall_cycles + int(round(rate * remaining)),
        late_loads=result.late_loads,
        simulated_iterations=result.simulated_iterations,
    )
    clock += (total.compute_cycles - result.compute_cycles) + int(
        round(rate * remaining)
    )
    return total, clock, ("exact+statistical" if exact else "statistical")


def run_loop(
    compiled: CompiledLoop,
    memory,
    layout: MemoryLayout,
    *,
    invocations: int = 1,
    options: SimOptions | None = None,
    clock: int = 0,
    flush_between: bool = True,
    flush_after: bool = True,
) -> tuple[LoopResult, int]:
    """Simulate all invocations of one compiled loop.

    ``flush_between``/``flush_after`` control the inter-loop L0
    invalidation (both True under the paper's default conservative
    policy; the selective-flush analysis may clear them).  ``N``
    invocations perform ``N - 1`` between-flushes plus one after-flush,
    and each performed flush costs :data:`INVALIDATE_OVERHEAD` cycles on
    the L0 architecture.  Returns the aggregated result and the advanced
    memory clock.
    """
    options = options or SimOptions()
    executor = make_loop_executor(compiled, memory, layout, options)
    trip = compiled.loop.trip_count
    l0_arch = compiled.schedule.config.arch is ArchKind.L0

    cold, clock, kind = _extrapolated(executor, trip, options.sim_cap, clock)
    compute = cold.compute_cycles
    stall = cold.stall_cycles
    simulated_iters = cold.simulated_iterations
    kinds = {kind}
    if invocations > 1:
        if flush_between:
            memory.invalidate_l0(clock)
        warm_runs = min(invocations - 1, options.warm_invocations)
        warm_compute = warm_stall = 0
        warm: LoopRunResult | None = None
        for _ in range(warm_runs):
            warm, clock, kind = _extrapolated(executor, trip, options.sim_cap, clock)
            kinds.add(kind)
            simulated_iters += warm.simulated_iterations
            if flush_between:
                memory.invalidate_l0(clock)
            warm_compute += warm.compute_cycles
            warm_stall += warm.stall_cycles
        assert warm is not None
        remaining = invocations - 1 - warm_runs
        if remaining:
            # Unsimulated invocations replicate the last warm run — a
            # statistical extrapolation like the sim-cap scaling, and
            # reported as such.
            kinds.add("statistical")
        compute += warm_compute + remaining * warm.compute_cycles
        stall += warm_stall + remaining * warm.stall_cycles
    if flush_after and (invocations == 1 or not flush_between):
        # flush_between already invalidated after the last simulated
        # warm run; only the remaining cases need the final invalidate.
        memory.invalidate_l0(clock)
    if l0_arch:
        flushes = (invocations - 1 if flush_between else 0) + (1 if flush_after else 0)
        overhead = flushes * INVALIDATE_OVERHEAD
        compute += overhead
        clock += overhead

    # Commutative reductions: set order cannot affect the result.
    exact = any(k.startswith("exact") for k in kinds)  # analysis: allow(A103)
    statistical = any(k.endswith("statistical") for k in kinds)  # analysis: allow(A103)
    extrapolated = (
        "exact+statistical"
        if exact and statistical
        else "exact"
        if exact
        else "statistical"
        if statistical
        else "none"
    )
    result = LoopResult(
        name=compiled.loop.name,
        ii=compiled.schedule.ii,
        unroll_factor=compiled.unroll_factor,
        trip_count=trip,
        invocations=invocations,
        compute_cycles=compute,
        stall_cycles=stall,
        simulated_iterations=simulated_iters,
        extrapolated=extrapolated,
    )
    return result, clock


# ----------------------------------------------------------------------
# The three-phase program runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoopPlan:
    """Phase-1 output: one loop's simulation job, flush policy decided.

    Everything a worker process needs crosses the boundary here: the
    loop IR, the shared program-wide memory layout (so addresses match
    the serial path exactly) and the pre-decided flush flags.
    """

    loop: object  # repro.ir.Loop
    invocations: int
    config: MachineConfig
    options: SimOptions
    layout: MemoryLayout
    flush_between: bool
    flush_after: bool


@dataclass
class SimulatedLoop:
    """Phase-2 output: one loop simulated against a private memory."""

    result: LoopResult
    #: The loop's own advanced memory clock (simulation started at zero).
    #: Diagnostic only: program stitching does not thread a shared clock.
    clock_advance: int
    memory_stats: object


def plan_program(
    benchmark, config: MachineConfig, options: SimOptions | None = None
) -> list[LoopPlan]:
    """Phase 1: shared layout + sequential flush-policy analysis.

    Pure analysis — no compilation or simulation — so the sequential
    walk is cheap.  The ``unflushed`` set tracks loops whose L0 entries
    may still be resident; a loop flushes it only when a flush is
    actually performed (a between-invocation policy on a *single*
    invocation performs none — the bookkeeping bug this replaces
    dropped older resident loops in that case).
    """
    options = options or SimOptions()
    layout = MemoryLayout(align=config.l1_block)
    for spec in benchmark.loops:
        for array in spec.loop.arrays:
            layout.add(array)

    specs = list(benchmark.loops)
    plans: list[LoopPlan] = []
    unflushed: list = []  # loops whose L0 entries may still be resident
    for index, spec in enumerate(specs):
        if options.selective_flush:
            from .interloop import flush_needed_since, invocation_flush_needed

            flush_between = invocation_flush_needed(spec.loop)
            nxt = specs[index + 1].loop if index + 1 < len(specs) else None
            flush_after = flush_needed_since(unflushed + [spec.loop], nxt)
        else:
            flush_between = flush_after = True
        plans.append(
            LoopPlan(
                loop=spec.loop,
                invocations=spec.invocations,
                config=config,
                options=options,
                layout=layout,
                flush_between=flush_between,
                flush_after=flush_after,
            )
        )
        if flush_after:
            unflushed = []
        elif flush_between and spec.invocations > 1:
            # The between-invocation flushes wiped older residents; only
            # the final invocation's entries survive.
            unflushed = [spec.loop]
        else:
            unflushed.append(spec.loop)
    return plans


def simulate_plan(plan: LoopPlan) -> SimulatedLoop:
    """Phase 2: compile + simulate one planned loop (pure, picklable).

    Runs against a private memory instance at clock zero; the cycle
    counts are invariant to the absolute clock (all timestamps shift
    uniformly), which is what lets the stitching phase re-base each
    loop onto the program clock without re-simulating.
    """
    memory = make_memory(plan.config)
    compiled = _compile(plan.loop, plan.config, plan.options)
    result, clock = run_loop(
        compiled,
        memory,
        plan.layout,
        invocations=plan.invocations,
        options=plan.options,
        clock=0,
        flush_between=plan.flush_between,
        flush_after=plan.flush_after,
    )
    return SimulatedLoop(result=result, clock_advance=clock, memory_stats=memory.stats)


def run_program(
    benchmark,
    config: MachineConfig,
    *,
    options: SimOptions | None = None,
) -> ProgramResult:
    """Compile and simulate a whole benchmark on one architecture.

    ``benchmark`` is a ``repro.workloads.Benchmark``: named, weighted
    loop specs sharing one address space.  With
    ``options.loop_workers`` set, the per-loop simulate phase fans out
    across processes; results are byte-identical to the serial path.
    """
    options = options or SimOptions()
    plans = plan_program(benchmark, config, options)

    import multiprocessing

    from ..pipeline.executor import shared_executor

    loop_workers = options.loop_workers
    if loop_workers and multiprocessing.parent_process() is not None:
        # Already inside a worker (program-level fan-out): a nested pool
        # would oversubscribe — or deadlock fork-based pools — and buys
        # nothing, since parallel results are byte-identical to serial.
        loop_workers = None
    simulated = shared_executor(loop_workers).map(plans, fn=simulate_plan)

    # Phase 3: sequential stats stitching in program order.  No shared
    # clock is threaded between loops any more — each loop simulated at
    # clock zero against private memory (see the module docstring);
    # ``SimulatedLoop.clock_advance`` records each loop's own span for
    # diagnostics.
    result = ProgramResult(
        benchmark=benchmark.name,
        arch=config.arch.value,
        memory_stats=make_memory(config).stats,
    )
    for sim in simulated:
        result.loops.append(sim.result)
        merge_stats(result.memory_stats, sim.memory_stats)
    return result
