"""The unified memory hierarchy: centralized L1 (+L2) with optional
per-cluster L0 buffers — the paper's baseline and proposed architectures.

All memory systems in this package expose the same five-method interface
the executor drives:

* ``load(cluster, addr, width, hints, cycle) -> ready_cycle``
* ``store(cluster, addr, width, hints, cycle, is_primary=True)``
* ``prefetch(cluster, addr, width, cycle)`` (explicit software prefetch)
* ``invalidate_l0(cycle)`` (inter-loop flush)
* ``reset()``

Coherence auditing: every store records a per-byte timestamp; a load
served from an L0 entry older than the newest store to those bytes
increments ``coherence_violations``.  The compiler's coherence schemes
(NL0/1C/PSR + inter-loop invalidation) must keep this at zero — tests
assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.hints import AccessHint, BYPASS_HINTS, HintBundle, MapHint, PrefetchHint
from ..machine.config import MachineConfig
from .bus import BusStats, ClusterBus
from .l0buffer import L0Buffer, L0Entry, L0Stats, MapKind
from .l1cache import CacheStats, SetAssocCache


@dataclass
class MemoryStats:
    """Aggregated statistics across one simulation."""

    l0: L0Stats = field(default_factory=L0Stats)
    l1: CacheStats = field(default_factory=CacheStats)
    bus: BusStats = field(default_factory=BusStats)
    coherence_violations: int = 0
    seq_bus_conflicts: int = 0
    prefetch_requests: int = 0
    explicit_prefetches: int = 0
    dropped_prefetches: int = 0


class UnifiedMemory:
    """Unified L1 data cache with optional flexible L0 buffers."""

    def __init__(self, config: MachineConfig, *, with_l0: bool | None = None) -> None:
        self.config = config
        self.stats = MemoryStats()
        self.l1 = SetAssocCache(
            size=config.l1_size,
            assoc=config.l1_assoc,
            block=config.l1_block,
            stats=self.stats.l1,
        )
        if with_l0 is None:
            with_l0 = config.arch.value == "l0"
        self.l0: list[L0Buffer] | None = None
        if with_l0:
            self.l0 = [
                L0Buffer(
                    entries=config.l0_entries,
                    block_bytes=config.l1_block,
                    n_clusters=config.n_clusters,
                    stats=self.stats.l0,
                )
                for _ in range(config.n_clusters)
            ]
        self.buses = [
            ClusterBus(stats=self.stats.bus) for _ in range(config.n_clusters)
        ]
        self._last_store: dict[int, int] = {}
        # Bound copies of the hot-path latencies (config attribute reads
        # add up over hundreds of thousands of accesses).
        self._l0_latency = config.l0_latency
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _l1_load_latency(self, addr: int) -> int:
        hit = self.l1.load(addr)
        latency = self.config.l1_latency
        if not hit:
            latency += self.config.l2_latency
        return latency

    def _record_store(self, addr: int, width: int, cycle: int) -> None:
        for byte in range(addr, addr + width):
            self._last_store[byte] = cycle

    def _check_stale(self, entry: L0Entry, addr: int, width: int) -> None:
        last_store = self._last_store
        if not last_store:
            return
        newest = -1
        get = last_store.get
        for b in range(addr, addr + width):
            t = get(b, -1)
            if t > newest:
                newest = t
        if newest > entry.update_time:
            self.stats.coherence_violations += 1

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(
        self, cluster: int, addr: int, width: int, hints: HintBundle, cycle: int
    ) -> int:
        if self.l0 is None or hints.access is AccessHint.NO_ACCESS:
            grant = self.buses[cluster].grant(cycle)
            if self.l1.load(addr):
                return grant + self._l1_latency
            return grant + self._l1_latency + self._l2_latency

        buffer = self.l0[cluster]
        entry = buffer.access(addr, width, cycle)
        if entry is not None:
            self._check_stale(entry, addr, width)
            ready = entry.ready
            issue = cycle + self._l0_latency
            if issue > ready:
                ready = issue
            if hints.access is AccessHint.PAR_ACCESS:
                # Parallel L1 probe: real traffic, reply discarded.
                grant = self.buses[cluster].grant(cycle)
                if self.l1.probe(addr):
                    self.l1.load(addr)
            self._hint_prefetch(cluster, entry, addr, width, hints, cycle)
            return ready

        # L0 miss: forward to L1 — next cycle for SEQ (the compiler
        # guaranteed that slot free), same cycle for PAR.
        request = cycle + 1 if hints.access is AccessHint.SEQ_ACCESS else cycle
        bus = self.buses[cluster]
        if hints.access is AccessHint.SEQ_ACCESS and not bus.is_free(request):
            self.stats.seq_bus_conflicts += 1
        grant = bus.grant(request)
        latency = self._l1_latency
        if not self.l1.load(addr):
            latency += self._l2_latency
        if hints.mapping is MapHint.INTERLEAVED:
            arrival = grant + latency + self.config.interleave_penalty
            filled = self._distribute_block(cluster, addr, width, arrival, False)
        else:
            arrival = grant + latency
            filled = buffer.fill_linear(addr, arrival)
            filled.touched = True
        self._hint_prefetch(cluster, filled, addr, width, hints, cycle)
        return arrival

    def _distribute_block(
        self, cluster: int, addr: int, width: int, arrival: int, from_prefetch: bool
    ) -> L0Entry:
        """Interleaved fill: split the whole L1 block across all clusters.

        The subblock holding the accessed element lands in the accessing
        cluster; consecutive residues go to consecutive clusters.
        Returns the local entry.
        """
        assert self.l0 is not None
        n = self.config.n_clusters
        block = addr - (addr % self.config.l1_block)
        element = (addr - block) // width
        local_residue = element % n
        local_entry: L0Entry | None = None
        for target in range(n):
            residue = (local_residue + (target - cluster)) % n
            entry = self.l0[target].fill_interleaved(
                block, residue, width, arrival, from_prefetch=from_prefetch
            )
            if target == cluster:
                local_entry = entry
                if not from_prefetch:
                    entry.touched = True
        assert local_entry is not None
        return local_entry

    # ------------------------------------------------------------------
    # Prefetch (hint-triggered and explicit)
    # ------------------------------------------------------------------

    def _hint_prefetch(
        self,
        cluster: int,
        entry: L0Entry,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
    ) -> None:
        if hints.prefetch is PrefetchHint.NONE or self.l0 is None:
            return
        forward = hints.prefetch is PrefetchHint.POSITIVE
        if not self.l0[cluster].is_edge_element(entry, addr, width, last=forward):
            return
        distance = hints.prefetch_distance
        step = distance if forward else -distance
        buffer = self.l0[cluster]
        if entry.kind is MapKind.LINEAR:
            sub = buffer.subblock_bytes
            target = entry.block_addr + entry.position * sub + step * sub
            if target < 0 or buffer.find(target, 1) is not None:
                return
            # Prefetches are opportunistic: if the bus slot after the
            # access is taken by demand traffic, the prefetch is dropped
            # (no queueing hardware between the L0 and the bus).
            if not self.buses[cluster].is_free(cycle + 1):
                self.stats.dropped_prefetches += 1
                return
            self.stats.prefetch_requests += 1
            grant = self.buses[cluster].grant(cycle + 1)
            arrival = grant + self._l1_load_latency(target)
            buffer.fill_linear(target, arrival, from_prefetch=True)
            return
        target_block = entry.block_addr + step * self.config.l1_block
        if target_block < 0:
            return
        if (
            buffer.find_exact(
                MapKind.INTERLEAVED, target_block, entry.position, entry.granularity
            )
            is not None
        ):
            return
        if not self.buses[cluster].is_free(cycle + 1):
            self.stats.dropped_prefetches += 1
            return
        self.stats.prefetch_requests += 1
        grant = self.buses[cluster].grant(cycle + 1)
        arrival = (
            grant + self._l1_load_latency(target_block) + self.config.interleave_penalty
        )
        n = self.config.n_clusters
        for target in range(n):
            residue = (entry.position + (target - cluster)) % n
            self.l0[target].fill_interleaved(
                target_block,
                residue,
                entry.granularity,
                arrival,
                from_prefetch=True,
            )

    def prefetch(self, cluster: int, addr: int, width: int, cycle: int) -> None:
        """Explicit software prefetch: linear mapping into the local L0."""
        if self.l0 is None:
            return
        buffer = self.l0[cluster]
        if buffer.find(addr, width) is not None:
            return
        if not self.buses[cluster].is_free(cycle):
            self.stats.dropped_prefetches += 1
            return
        self.stats.explicit_prefetches += 1
        grant = self.buses[cluster].grant(cycle)
        arrival = grant + self._l1_load_latency(addr)
        buffer.fill_linear(addr, arrival, from_prefetch=True)

    # ------------------------------------------------------------------
    # Stores & invalidation
    # ------------------------------------------------------------------

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
        is_primary: bool = True,
    ) -> None:
        if self.l0 is not None and not is_primary:
            # PSR replica: invalidate local copies only; no L1 traffic.
            self.l0[cluster].invalidate_matching(addr, width)
            return
        self._record_store(addr, width, cycle)
        if self.l0 is not None and hints.access is AccessHint.PAR_ACCESS:
            self.l0[cluster].store_update(addr, width, cycle)
        self.buses[cluster].grant(cycle)
        self.l1.store(addr)

    def invalidate_l0(self, cycle: int) -> None:
        if self.l0 is None:
            return
        for buffer in self.l0:
            buffer.invalidate_all()

    def reset(self) -> None:
        self.__init__(self.config, with_l0=self.l0 is not None)

    # ------------------------------------------------------------------
    # Fast-path hooks: batch entry points + convergence certificate
    # ------------------------------------------------------------------

    def load_run(self, clusters, addrs, widths, hints_list, cycles) -> list[int]:
        """Issue a run of loads that cannot interlock with each other.

        Semantically identical to calling :meth:`load` element-wise in
        order; the trace executor uses it for statically stall-free
        stretches of a kernel window so one Python call covers the run.
        The no-L0 case (every load is a plain bus+L1 round trip) is
        unrolled here with bound locals — it is the unified baseline's
        entire load path.
        """
        if self.l0 is None:
            buses = self.buses
            l1_load = self.l1.load
            l1_latency = self._l1_latency
            miss_latency = l1_latency + self._l2_latency
            return [
                buses[clusters[k]].grant(cycles[k])
                + (l1_latency if l1_load(addrs[k]) else miss_latency)
                for k in range(len(addrs))
            ]
        load = self.load
        return [
            load(clusters[k], addrs[k], widths[k], hints_list[k], cycles[k])
            for k in range(len(addrs))
        ]

    def store_run(self, clusters, addrs, widths, hints_list, cycles, primaries) -> None:
        """Issue a run of stores, element-wise in order (see load_run)."""
        store = self.store
        for k in range(len(addrs)):
            store(
                clusters[k],
                addrs[k],
                widths[k],
                hints_list[k],
                cycles[k],
                is_primary=primaries[k],
            )

    def shift_time(self, delta: int) -> None:
        """Advance every internal timestamp by ``delta`` cycles.

        After the convergence early-exit fast-forwards ``m`` whole
        steady periods, the simulation clock jumps while the memory
        state was only evolved up to the skip point; shifting realigns
        fills-in-flight, store stamps, and bus occupancy with the clock
        so post-skip behaviour is byte-identical to the reference.
        """
        if self.l0 is not None:
            for buffer in self.l0:
                buffer.shift_time(delta)
        for bus in self.buses:
            bus.shift_time(delta)
        self._last_store = {b: t + delta for b, t in self._last_store.items()}

    def state_fingerprint(self, time_base: int, horizon: int = 4096) -> tuple:
        """Canonical decision-relevant state, times relative to ``time_base``.

        Equal fingerprints at two cycles with identical upcoming access
        streams certify that the simulation evolves identically from
        both points — the convergence early-exit's state-recurrence
        check.  Store stamps older than ``horizon`` are bucketed (they
        can only order against equally ancient L0 update stamps; see
        the architecture doc's soundness conditions).
        """
        ancient = time_base - horizon
        stamps = sorted(self._last_store.items())
        recent = tuple((b, t - time_base) for b, t in stamps if t >= ancient)
        old = tuple(b for b, t in stamps if t < ancient)
        return (
            self.l1.fingerprint(),
            tuple(
                buffer.fingerprint(time_base, horizon) for buffer in self.l0 or ()
            ),
            tuple(bus.fingerprint(time_base) for bus in self.buses),
            recent,
            old,
        )
