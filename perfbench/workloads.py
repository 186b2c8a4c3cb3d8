"""The benchmark's three workloads, their output checks and their pins.

Every workload is closed loop with one client: the next request is
issued when the previous one returns.  A workload is built by
``setup()`` (timed as set-up), then ``run_pass()`` is the timed region:
a *write* phase that computes every item cold, followed by *read*
passes that serve the same items again from the store the write phase
filled.  ``check()`` runs after timing ends.  Times are reference
seconds (see :mod:`speed`) unless a name says ``host``.

The 13 programs are fixed; the seed only shuffles request order and
picks the reference-check sample.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.eval import experiments
from repro.machine.config import l0_config, unified_config
from repro.memory.hierarchy import MemoryStats
from repro.pipeline import (
    CompileOptions,
    ResultCache,
    RunRequest,
    Session,
    compilecache,
    describe_config,
    describe_options,
    drop_compile_cache,
    execute_request,
    get_compile_cache,
)
from repro.service import SupervisedExecutor
from repro.sim.runner import SimOptions, run_program
from repro.sim.stats import LoopResult, ProgramResult
from repro.workloads.mediabench import BENCHMARK_NAMES, build

import tracing
from speed import SpeedClock, rescale

PINS_DIR = Path(__file__).resolve().parent / "pins"

#: Read passes after each write phase.  One read pass is short, so it is
#: repeated and reported as a median; a workload may ask for more.
READ_PASSES = 10

#: Results re-simulated on the reference interpreter per run.
REFERENCE_SAMPLE = 3

#: The CI smoke cap ``grid-resweep`` runs at.
GRID_SIM_CAP = 150

#: Worker processes of ``grid-resweep``'s supervised executor.
GRID_WORKERS = 2


def config_label(entries) -> str:
    return "unbounded" if entries is None else f"{entries} entries"


def request_label(request: RunRequest) -> str:
    """Stable name of a request: unlike its cache key it does not change
    with the code fingerprint, so pins survive unrelated edits."""
    return "|".join(
        (
            request.benchmark,
            json.dumps(describe_config(request.config), sort_keys=True),
            json.dumps(describe_options(request.options), sort_keys=True),
        )
    )


def result_digest(result: ProgramResult) -> str:
    """Digest of a result's cycle-bearing fields.

    Per loop: II, unroll, trip count, invocations, compute and stall
    cycles; plus the whole memory-statistics record.  The diagnostic
    fields ``simulated_iterations``, ``extrapolated`` and ``meta`` are
    left out, so a path that interprets fewer iterations to reach the
    same cycles is not a failure.
    """
    loops = [
        [
            loop.name,
            loop.ii,
            loop.unroll_factor,
            loop.trip_count,
            loop.invocations,
            loop.compute_cycles,
            loop.stall_cycles,
        ]
        for loop in result.loops
    ]
    payload = {
        "benchmark": result.benchmark,
        "arch": result.arch,
        "loops": loops,
        "memory": [type(result.memory_stats).__name__, asdict(result.memory_stats)],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load_pins(name: str) -> dict:
    path = PINS_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


@dataclass
class PassOutcome:
    """What one timed pass produced (timings plus outputs to check)."""

    write_s: float = 0.0
    read_s: list = field(default_factory=list)
    item_s: list = field(default_factory=list)
    #: host seconds of the same timed units
    host_s: float = 0.0
    #: label -> output of the write phase
    outputs: dict = field(default_factory=dict)
    #: one {label: digest} per read pass (digests, not outputs, so that
    #: memory does not grow with the number of read passes)
    reads: list = field(default_factory=list)
    #: work a read pass must not do (simulations or compiles); > 0 fails
    read_work: int = 0
    ii_total: int = 0
    #: compile-cache counters accumulated over the pass
    compile_stats: dict = field(default_factory=dict)
    #: session counters: simulations and result-store bytes
    simulations: int = 0
    store_bytes: int = 0
    #: worker-side job host seconds, calibration kernel samples, peak
    #: RSS (KiB) and span snapshots (supervised runs)
    job_s: list = field(default_factory=list)
    kernel_samples: list = field(default_factory=list)
    worker_rss_kb: int = 0
    worker_snapshots: list = field(default_factory=list)
    workers: int = 1
    profile: object = None

    @property
    def sweep_s(self) -> float:
        return self.write_s + sum(self.read_s)


_COMPILE_COUNTERS = (
    "full_hits",
    "full_misses",
    "frontend_hits",
    "frontend_misses",
    "full_disk_hits",
)


def _compile_counters(cache) -> dict:
    return {name: getattr(cache.stats, name) for name in _COMPILE_COUNTERS}


def _counter_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


class CheckReport:
    """Counts of items attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def item(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ----------------------------------------------------------------------
# l0-sweep: the cold Figure 5 grid at the default sim cap
# ----------------------------------------------------------------------


class L0Sweep:
    """Unified baseline plus L0 with 4, 8, 16 and unbounded entries for all
    13 programs (65 results), one ``Session.run`` at a time, in memory."""

    name = "l0-sweep"
    #: One read pass is only 65 in-memory hits, about 7 ms.
    read_passes = 50

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        options = SimOptions()
        configs = [unified_config()] + [l0_config(e) for e in experiments.FIG5_SIZES]
        requests = [
            RunRequest(name, config, options)
            for config in configs
            for name in BENCHMARK_NAMES
        ]
        rng = random.Random(self.seed)
        rng.shuffle(requests)
        self.options = options
        self.requests = requests
        self.labels = [request_label(r) for r in requests]
        self.sample = rng.sample(range(len(requests)), REFERENCE_SAMPLE)

    def run_pass(self, tracer: tracing.Tracer | None) -> PassOutcome:
        drop_compile_cache(None)
        cache = ResultCache()
        out = PassOutcome()
        session = Session(options=self.options, cache=cache)
        compile_before = _compile_counters(get_compile_cache(None))

        def serve(reader: Session) -> dict:
            return {
                label: reader.run(request)
                for label, request in zip(self.labels, self.requests)
            }

        def timed():
            # Traced, in-unit kernel samples would land in whichever
            # layer's span is open, so the traced pass does without them.
            clock = SpeedClock(sample=tracer is None)
            for label, request in zip(self.labels, self.requests):
                if tracer is not None:
                    tracer.request = label
                out.outputs[label], ref, host = clock.time(session.run, request)
                out.item_s.append(ref)
                out.host_s += host
            out.write_s = sum(out.item_s)
            for _ in range(self.read_passes):
                reader = Session(options=self.options, cache=cache)
                served, ref, host = clock.time(serve, reader)
                out.read_s.append(ref)
                out.host_s += host
                out.reads.append(_digests(served))
                out.read_work += reader.simulations
            out.kernel_samples = clock.samples

        _traced_region(tracer, timed, out)
        out.simulations = session.simulations
        out.compile_stats = _counter_delta(
            compile_before, _compile_counters(get_compile_cache(None))
        )
        out.ii_total = sum(l.ii for r in out.outputs.values() for l in r.loops)
        return out

    def check(self, outcomes: list[PassOutcome], report: CheckReport) -> None:
        pins = load_pins(self.name)
        _check_results(pins, outcomes, report)
        last = outcomes[-1].outputs
        for index in self.sample:
            request = self.requests[index]
            _check_reference(request, last[self.labels[index]], pins, report)

    def pin_values(self, outcome: PassOutcome) -> dict:
        return {label: result_digest(r) for label, r in sorted(outcome.outputs.items())}

    def close(self) -> None:
        drop_compile_cache(None)


# ----------------------------------------------------------------------
# exact-compile: the cold scheduler comparison, compile only
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompileJob:
    label: str
    loop: object
    config: object


class ExactCompile:
    """The exact backend over every loop x the four Figure 5 L0 configs
    (184 compiles), serially, in memory; nothing is simulated."""

    name = "exact-compile"
    read_passes = READ_PASSES

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        jobs = []
        for name in BENCHMARK_NAMES:
            for index, spec in enumerate(build(name).loops):
                for entries in experiments.FIG5_SIZES:
                    label = f"{name}|{index}:{spec.loop.name}|{config_label(entries)}"
                    jobs.append(CompileJob(label, spec.loop, l0_config(entries)))
        rng = random.Random(self.seed)
        rng.shuffle(jobs)
        self.jobs = jobs
        self.options = CompileOptions(scheduler="exact")

    def run_pass(self, tracer: tracing.Tracer | None) -> PassOutcome:
        drop_compile_cache(None)
        cache = get_compile_cache(None)
        out = PassOutcome()
        compile_before = _compile_counters(cache)

        def compile_one(job: CompileJob):
            return compilecache.compile_cached(
                job.loop, job.config, self.options, cache=cache
            )

        def serve() -> dict:
            return {job.label: compile_one(job) for job in self.jobs}

        def timed():
            clock = SpeedClock(sample=tracer is None)
            for job in self.jobs:
                if tracer is not None:
                    tracer.request = job.label
                out.outputs[job.label], ref, host = clock.time(compile_one, job)
                out.item_s.append(ref)
                out.host_s += host
            out.write_s = sum(out.item_s)
            for _ in range(self.read_passes):
                misses = cache.stats.full_misses
                served, ref, host = clock.time(serve)
                out.read_s.append(ref)
                out.host_s += host
                out.reads.append(
                    {label: self._fingerprint(c) for label, c in served.items()}
                )
                out.read_work += cache.stats.full_misses - misses
            out.kernel_samples = clock.samples

        _traced_region(tracer, timed, out)
        out.compile_stats = _counter_delta(compile_before, _compile_counters(cache))
        out.ii_total = sum(c.ii for c in out.outputs.values())
        return out

    @staticmethod
    def _summary(compiled) -> list:
        meta = compiled.schedule.meta
        return [meta["mii"], meta["ii_sms"]]

    @classmethod
    def _fingerprint(cls, compiled) -> list:
        return [compiled.ii, *cls._summary(compiled)]

    def check(self, outcomes: list[PassOutcome], report: CheckReport) -> None:
        pins = load_pins(self.name)
        for outcome in outcomes:
            for label, compiled in outcome.outputs.items():
                meta = compiled.schedule.meta
                problems = compiled.schedule.validate(compiled.ddg)
                report.item(
                    problems == []
                    and meta["mii"] <= compiled.ii <= meta["ii_sms"]
                    and pins.get(label) == self._summary(compiled),
                    f"{label}: ii={compiled.ii} meta={meta} pin={pins.get(label)} "
                    f"problems={[str(p) for p in problems][:3]}",
                )
            for served in outcome.reads:
                for label, got in served.items():
                    want = self._fingerprint(outcome.outputs[label])
                    report.item(
                        got == want,
                        f"{label}: read pass served [ii, mii, ii_sms] = {got}, "
                        f"write phase compiled {want}",
                    )
            report.item(
                outcome.read_work == 0,
                f"read passes compiled {outcome.read_work} loops (expected 0)",
            )

    def pin_values(self, outcome: PassOutcome) -> dict:
        return {
            label: self._summary(c) for label, c in sorted(outcome.outputs.items())
        }

    def close(self) -> None:
        drop_compile_cache(None)


# ----------------------------------------------------------------------
# grid-resweep: the full paper grid through the supervised executor
# ----------------------------------------------------------------------

#: The paper's grid: Table 1, Figures 5-7 and both ablations.
GRID_EXPERIMENTS = (
    experiments.table1,
    experiments.fig5,
    experiments.fig6,
    experiments.fig7,
    experiments.ablation_all_candidates,
    experiments.ablation_prefetch_distance,
)


class _RequestRecorder(Session):
    """Session stand-in that lists the requests the experiments issue.

    It returns a one-loop placeholder result for every request, so the
    experiment code can be walked without simulating anything.
    """

    def __init__(self, options: SimOptions) -> None:
        super().__init__(options=options)
        self.requests: dict[str, RunRequest] = {}

    def run(self, request: RunRequest) -> ProgramResult:
        self.requests.setdefault(request.key, request)
        loop = LoopResult("placeholder", 1, 1, 1, 1, 1, 0)
        return ProgramResult(
            request.benchmark, "placeholder", [loop], memory_stats=MemoryStats()
        )

    def run_many(self, requests) -> list[ProgramResult]:
        return [self.run(r) for r in requests]


@dataclass(frozen=True)
class Job:
    """One supervised job: a request plus whether the worker traces it."""

    request: RunRequest
    traced: bool
    parent_span: str | None

    @property
    def key(self) -> str:
        return self.request.key


def run_job(job: Job):
    """Worker-side job function (module level, so it pickles by name).

    Times the simulation on the worker side and, when traced, returns
    the worker's span and counter deltas with the result.  Workers are
    forked from a traced parent, so the wrappers are already installed;
    a worker started another way installs its own.
    """
    tracer = tracing.worker_tracer() if job.traced else None
    cache = get_compile_cache(job.request.options.compile_cache_dir)
    before = _compile_counters(cache)
    clock = SpeedClock()
    if tracer is None:
        result, ref, host = clock.time(execute_request, job.request)
    else:
        tracer.request = job.request.key[:16]
        result, ref, host = clock.time(
            tracer.span, "executor.job", "job", execute_request, job.request
        )
    stats = _counter_delta(before, _compile_counters(cache))
    stats["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snapshot = None
    if tracer is not None:
        snapshot = tracer.export()
        snapshot["spans"] = [
            s if s[1] is not None else (s[0], job.parent_span, *s[2:])
            for s in snapshot["spans"]
        ]
    return result, (ref, host, clock.samples), stats, snapshot


class JobExecutor:
    """``executor.map`` adapter that runs :func:`run_job` on the inner
    executor and keeps the worker-side timings, counters and spans."""

    def __init__(self, inner, out: PassOutcome, tracer, *, record_items: bool):
        self.inner = inner
        self.workers = inner.workers
        self.out = out
        self.tracer = tracer
        self.record_items = record_items

    def map(self, requests, fn=execute_request) -> list:
        if fn is not execute_request:
            raise ValueError("JobExecutor only runs simulation requests")
        parent = None
        if self.tracer is not None and self.tracer.stack:
            parent = self.tracer.stack[-1][2]
        jobs = [Job(r, self.tracer is not None, parent) for r in requests]
        results = []
        for result, timing, stats, snapshot in self.inner.map(jobs, fn=run_job):
            ref, host, samples = timing
            results.append(result)
            self.out.job_s.append(host)
            self.out.kernel_samples.extend(samples)
            if self.record_items:
                self.out.item_s.append(ref)
            rss_kb = stats.pop("rss_kb")
            self.out.worker_rss_kb = max(self.out.worker_rss_kb, rss_kb)
            for k, v in stats.items():
                self.out.compile_stats[k] = self.out.compile_stats.get(k, 0) + v
            if snapshot is not None:
                self.out.worker_snapshots.append(snapshot)
        return results


class GridResweep:
    """The full paper grid (119 distinct results) at the CI smoke cap,
    through ``SupervisedExecutor`` with two workers and on-disk stores."""

    name = "grid-resweep"
    read_passes = READ_PASSES

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._setups = 0
        self._passes = 0

    def setup(self) -> None:
        """List the grid's requests and fill a fresh compile store."""
        self._setups += 1
        compile_dir = self.work_dir / f"compile-{self._setups}"
        if self._setups > 1:
            shutil.rmtree(self.work_dir / f"compile-{self._setups - 1}")
        names = list(BENCHMARK_NAMES)
        rng = random.Random(self.seed)
        rng.shuffle(names)
        options = SimOptions(sim_cap=GRID_SIM_CAP, compile_cache_dir=str(compile_dir))
        recorder = _RequestRecorder(options)
        ctx = experiments.ExperimentContext(session=recorder, benchmarks=tuple(names))
        for experiment in GRID_EXPERIMENTS:
            experiment(ctx)
        requests = list(recorder.requests.values())

        # Mirrors how ``run_program`` compiles each loop of a request.
        drop_compile_cache(str(compile_dir))
        cache = get_compile_cache(str(compile_dir))
        for request in requests:
            compile_options = CompileOptions(
                scheduler=request.options.scheduler, **request.options.compile_kwargs
            )
            for spec in build(request.benchmark).loops:
                compilecache.compile_cached(
                    spec.loop, request.config, compile_options, cache=cache
                )
        cache.flush()
        drop_compile_cache(str(compile_dir))

        self.names = tuple(names)
        self.options = options
        self.compile_dir = str(compile_dir)
        self.requests = {request_label(r): r for r in requests}
        labels = sorted(self.requests)
        self.sample = [labels[i] for i in rng.sample(range(len(labels)), REFERENCE_SAMPLE)]

    def _context(self, result_dir: Path, out: PassOutcome, tracer, *, write: bool):
        executor = JobExecutor(
            SupervisedExecutor(GRID_WORKERS), out, tracer, record_items=write
        )
        session = Session(
            options=self.options, cache=ResultCache(result_dir), executor=executor
        )
        return experiments.ExperimentContext(session=session, benchmarks=self.names)

    def _served(self, session: Session) -> dict:
        return {
            label: session.cache.get(request.key)
            for label, request in self.requests.items()
        }

    def run_pass(self, tracer: tracing.Tracer | None) -> PassOutcome:
        self._passes += 1
        result_dir = self.work_dir / f"results-{self._passes}"
        drop_compile_cache(self.compile_dir)  # workers must read the disk store
        out = PassOutcome(workers=GRID_WORKERS)
        sessions = []

        def sweep(write: bool) -> Session:
            ctx = self._context(result_dir, out, tracer, write=write)
            for experiment in GRID_EXPERIMENTS:
                experiment(ctx)
            ctx.session.close()
            return ctx.session

        def timed():
            # The write phase runs on the workers, so its rescaling uses
            # the workers' kernel samples as well as the parent's.
            clock = SpeedClock()
            writer, _, host = clock.time(sweep, True)
            out.write_s = rescale(host, clock.samples + out.kernel_samples)
            out.host_s += host
            sessions.append(writer)
            for _ in range(self.read_passes):
                reader, ref, host = clock.time(sweep, False)
                out.read_s.append(ref)
                out.host_s += host
                sessions.append(reader)
            out.kernel_samples.extend(clock.samples)

        _traced_region(tracer, timed, out)
        writer, readers = sessions[0], sessions[1:]
        out.reads = [_digests(self._served(reader)) for reader in readers]
        out.read_work = sum(reader.simulations for reader in readers)
        out.outputs = self._served(writer)
        out.simulations = writer.simulations
        out.store_bytes = writer.cache.store.total_bytes()
        out.ii_total = sum(l.ii for r in out.outputs.values() for l in r.loops)
        shutil.rmtree(result_dir)
        return out

    def check(self, outcomes: list[PassOutcome], report: CheckReport) -> None:
        pins = load_pins(self.name)
        _check_results(pins, outcomes, report)
        last = outcomes[-1].outputs
        for label in self.sample:
            _check_reference(self.requests[label], last[label], pins, report)

    def pin_values(self, outcome: PassOutcome) -> dict:
        return {label: result_digest(r) for label, r in sorted(outcome.outputs.items())}

    def close(self) -> None:
        drop_compile_cache(self.compile_dir)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def _traced_region(tracer, timed, out: PassOutcome) -> None:
    """Run the timed region, under the root span when tracing."""
    if tracer is None:
        timed()
        return
    tracer.reset()
    tracer.span("bench", "unattributed", timed)
    out.profile = tracing.Profile(tracer.export())
    for snapshot in out.worker_snapshots:
        out.profile.add(snapshot)


def _digests(served: dict) -> dict:
    return {
        label: None if result is None else result_digest(result)
        for label, result in served.items()
    }


def _check_results(pins: dict, outcomes: list[PassOutcome], report) -> None:
    """Every write-phase and read-pass result against its pinned digest."""
    for outcome in outcomes:
        for label, result in outcome.outputs.items():
            got = None if result is None else result_digest(result)
            report.item(
                got is not None and pins.get(label) == got,
                f"{label}: digest {got} != pinned {pins.get(label)}",
            )
        for served in outcome.reads:
            for label, got in served.items():
                report.item(
                    got is not None and pins.get(label) == got,
                    f"{label}: read pass digest {got} != pinned {pins.get(label)}",
                )
        report.item(
            outcome.read_work == 0,
            f"read passes simulated {outcome.read_work} results (expected 0)",
        )


def _check_reference(request: RunRequest, result, pins: dict, report) -> None:
    """Re-simulate one result on the reference interpreter, directly:
    ``fast_sim`` is not part of the cache key, so the result cache must
    not be asked."""
    reference = run_program(
        build(request.benchmark),
        request.config,
        options=replace(request.options, fast_sim=False),
    )
    label = request_label(request)
    want = result_digest(reference)
    report.item(
        want == result_digest(result) == pins.get(label),
        f"{label}: reference interpreter digest {want} differs from the fast "
        f"path or the pin",
    )


WORKLOADS = {w.name: w for w in (L0Sweep, ExactCompile, GridResweep)}
