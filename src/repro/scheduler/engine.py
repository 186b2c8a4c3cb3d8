"""The cluster-aware modulo scheduling engine (paper sections 4.2-4.3).

One engine drives all four architectures; a :class:`MemoryPolicy`
(unified / L0 / MultiVLIW / word-interleaved) decides memory-instruction
latencies, cluster preferences and hints.  The engine implements the
BASE algorithm's skeleton: iterate the II upward from MII, order nodes
with the SMS heuristic, and place one instruction at a time in the
cluster that minimises inter-cluster communication while balancing
workload, inserting bus communication operations whenever a register
value crosses clusters.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..isa.instruction import Instruction
from ..isa.operations import FUClass
from ..ir.ddg import DDG, DepKind, Edge
from ..machine.config import MachineConfig
from ..machine.resources import BUS_SLOT, ResourceModel
from .mii import compute_mii
from .mrt import ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp, SchedulingError
from .sms import Direction, sms_order


class ClusterScheduler:
    """Schedules one loop for one machine configuration."""

    #: How many II values above MII to try before giving up.
    MAX_II_SLACK = 96

    def __init__(
        self,
        ddg: DDG,
        config: MachineConfig,
        policy: MemoryPolicy,
    ) -> None:
        self.ddg = ddg
        self.loop = ddg.loop
        self.config = config
        self.policy = policy
        self.resources = ResourceModel(config)
        #: Per uid: the MRT slot id of its FU class in each cluster, or
        #: ``None`` for ops that take no issue slot.
        self._fu_slots: dict[int, tuple[int, ...] | None] = {
            instr.uid: self._slots_of(instr.fu_class) for instr in self.loop.body
        }

        # Per-attempt state
        self._asap: dict[int, int] | None = None
        self._min_start: dict[int, int] = {}
        self.mrt: ModuloReservationTable | None = None
        self.placed: dict[int, PlacedOp] = {}
        self.comms: list[PlacedComm] = []
        self._comm_index: dict[tuple[int, int], PlacedComm] = {}
        self._cluster_ops: list[int] = []
        self._cluster_fu_ops: dict[tuple[int, FUClass], int] = {}

    def _slots_of(self, fu_class: FUClass) -> tuple[int, ...] | None:
        if fu_class is FUClass.NONE:
            return None
        return tuple(
            self.resources.fu_slot(fu_class, c) for c in range(self.config.n_clusters)
        )

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def schedule(self) -> ModuloSchedule:
        mii = compute_mii(self.loop, self.ddg, self.config, self.policy.planned_latency)
        for ii in range(mii, mii + self.MAX_II_SLACK + 1):
            result = self._attempt(ii)
            if result is None:
                # Dense dependence webs can defeat the SMS order + ejection
                # search; a plain top-down ASAP-topological pass is far
                # less efficient but essentially always placeable once the
                # II is large enough.
                result = self._attempt(ii, order_mode="asap")
            if result is not None:
                return result
        raise SchedulingError(
            f"no schedule for loop {self.loop.name!r} within II "
            f"[{mii}, {mii + self.MAX_II_SLACK}]"
        )

    # ------------------------------------------------------------------
    # One attempt at a fixed II
    # ------------------------------------------------------------------

    def _attempt(self, ii: int, order_mode: str = "sms") -> ModuloSchedule | None:
        self.mrt = ModuloReservationTable(ii, self.resources)
        self.current_ii = ii
        self.placed = {}
        self.comms = []
        self._comm_index = {}
        self._cluster_ops = [0] * self.config.n_clusters
        self._cluster_fu_ops = {}
        self._min_start = {}
        self.policy.begin_attempt(ii, self)

        # ASAP lower bounds for this attempt: placing any node earlier
        # than its longest incoming path (through *unscheduled* nodes
        # included) would wedge a later placement into an empty window.
        self._asap = self.ddg.earliest_times(ii, self.policy.planned_latency)
        if self._asap is None:
            return None  # II below RecMII under the current latency plan

        if order_mode == "sms":
            order = sms_order(self.ddg, ii, self.policy.planned_latency)
        else:
            order = [
                (uid, Direction.TOP_DOWN)
                for uid in sorted(
                    self.ddg.nodes, key=lambda u: (self._asap[u], u)
                )
            ]
        direction_of = dict(order)
        work = deque(order)
        ejection_budget = 12 * len(order)
        ejections = 0
        while work:
            uid, direction = work.popleft()
            if uid in self.placed:
                continue
            instr = self.ddg.instruction(uid)
            clusters = self._cluster_order(instr)
            if instr.is_memory:
                options = self.policy.options(instr, clusters)
            else:
                latency = self.config.latency_of(instr.opcode)
                options = [(c, latency) for c in clusters]
            placed_op = None
            for cluster, latency in options:
                attempt = self._try_place(instr, cluster, latency, direction, ii)
                if attempt is None:
                    continue
                op, new_comms = attempt
                if instr.is_memory and not self.policy.committed(instr, op, self):
                    self._undo_place(op, new_comms)
                    continue
                placed_op = op
                break
            if placed_op is not None:
                self._note_placement(placed_op)
                continue
            # Placement failed: eject the placed neighbours pinning this
            # node's window and retry (iterative modulo scheduling).
            victims = self._placed_neighbours(uid)
            ejections += len(victims) + 1
            if not victims or ejections > ejection_budget:
                return None
            for victim in victims:
                self._eject(victim)
                work.append((victim, direction_of[victim]))
            work.appendleft((uid, direction))

        schedule = ModuloSchedule(
            loop_name=self.loop.name,
            ii=ii,
            config=self.config,
            placed=dict(self.placed),
            comms=list(self.comms),
        )
        self.policy.finalize(schedule, self.ddg, self.mrt, self)
        self._normalize(schedule)
        return schedule

    def _note_placement(self, op: PlacedOp) -> None:
        self._cluster_ops[op.cluster] += 1
        key = (op.cluster, op.instr.fu_class)
        self._cluster_fu_ops[key] = self._cluster_fu_ops.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Cluster preference (BASE heuristic: comms then balance)
    # ------------------------------------------------------------------

    def _cluster_order(self, instr: Instruction) -> list[int]:
        uid = instr.uid
        scores: list[tuple[int, int, int, int]] = []
        for cluster in range(self.config.n_clusters):
            cross = 0
            for edge in self.ddg.preds[uid]:
                if edge.kind is not DepKind.REG:
                    continue
                src = self.placed.get(edge.src)
                if src is not None and src.cluster != cluster:
                    cross += 1
            for edge in self.ddg.succs[uid]:
                if edge.kind is not DepKind.REG:
                    continue
                dst = self.placed.get(edge.dst)
                if dst is not None and dst.cluster != cluster:
                    cross += 1
            fu_load = self._cluster_fu_ops.get((cluster, instr.fu_class), 0)
            scores.append((cross, fu_load, self._cluster_ops[cluster], cluster))
        scores.sort()
        return [cluster for (_, _, _, cluster) in scores]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _edge_latency(self, edge: Edge, pending_uid: int, pending_latency: int) -> int:
        if edge.fixed_latency is not None:
            return edge.fixed_latency
        if edge.src == pending_uid:
            return pending_latency
        src_op = self.placed.get(edge.src)
        if src_op is not None:
            return src_op.latency
        return self.policy.planned_latency(edge.src)

    def _window(
        self, instr: Instruction, cluster: int, latency: int, ii: int
    ) -> tuple[int | None, int | None]:
        """[earliest, latest] start bounds from already-placed neighbours."""
        bus = self.config.bus_latency
        earliest: int | None = None
        latest: int | None = None
        for edge in self.ddg.preds[instr.uid]:
            src_op = self.placed.get(edge.src)
            if src_op is None or edge.src == instr.uid:
                continue
            lat = self._edge_latency(edge, instr.uid, latency)
            low = src_op.start + lat - ii * edge.distance
            if edge.kind is DepKind.REG and src_op.cluster != cluster:
                existing = self._comm_index.get((edge.src, cluster))
                if existing is not None:
                    low = existing.start + existing.latency - ii * edge.distance
                else:
                    low = src_op.start + lat + bus - ii * edge.distance
            earliest = low if earliest is None else max(earliest, low)
        for edge in self.ddg.succs[instr.uid]:
            dst_op = self.placed.get(edge.dst)
            if dst_op is None or edge.dst == instr.uid:
                continue
            lat = self._edge_latency(edge, instr.uid, latency)
            high = dst_op.start + ii * edge.distance - lat
            if edge.kind is DepKind.REG and dst_op.cluster != cluster:
                high -= bus
            latest = high if latest is None else min(latest, high)
        return earliest, latest

    def _try_place(
        self,
        instr: Instruction,
        cluster: int,
        latency: int,
        direction: Direction,
        ii: int,
    ) -> tuple[PlacedOp, list[PlacedComm]] | None:
        assert self.mrt is not None
        earliest, latest = self._window(instr, cluster, latency, ii)
        asap = self._asap[instr.uid] if self._asap is not None else 0
        if latest is None:
            # Top-down: no placed successor constrains us.  Clamp to the
            # static ASAP so nodes with long *unscheduled* incoming paths
            # are not placed so early that those paths can never fit.
            earliest = asap if earliest is None else max(earliest, asap)
            latest = earliest + ii - 1
        elif earliest is None:
            # Bottom-up: scan downward from the successor bound.  Going
            # below the static ASAP is fine (times are relative until
            # normalisation), but clamp the drift to one II: every
            # reservation row is reachable within II consecutive cycles,
            # so deeper descent only feeds ejection livelock.
            earliest = max(latest - ii + 1, asap - ii)
        # Never scan more than II consecutive cycles: rows repeat mod II.
        latest = min(latest, earliest + ii - 1)
        if latest < earliest:
            return None

        if direction is Direction.TOP_DOWN:
            candidates: Sequence[int] = range(earliest, latest + 1)
        else:
            candidates = range(latest, earliest - 1, -1)

        slots = self._fu_slots[instr.uid]
        slot = None if slots is None else slots[cluster]
        for start in candidates:
            if slot is not None and not self.mrt.slot_can_place(start, slot):
                continue
            plan = self._plan_comms(instr, cluster, start, latency, ii)
            if plan is None:
                continue
            if slot is not None:
                self.mrt.slot_place(start, slot)
            for comm in plan:
                self.mrt.slot_place(comm.start, BUS_SLOT)
                self.comms.append(comm)
                self._comm_index[(comm.producer_uid, comm.dst_cluster)] = comm
            op = PlacedOp(instr=instr, cluster=cluster, start=start, latency=latency)
            self.placed[instr.uid] = op
            return op, plan
        return None

    def _undo_place(self, op: PlacedOp, new_comms: list[PlacedComm]) -> None:
        """Roll back a placement the policy vetoed."""
        assert self.mrt is not None
        self._free_fu(op)
        for comm in new_comms:
            self.mrt.slot_remove(comm.start, BUS_SLOT)
            self.comms.remove(comm)
            key = (comm.producer_uid, comm.dst_cluster)
            if self._comm_index.get(key) is comm:
                del self._comm_index[key]
        del self.placed[op.instr.uid]

    def _placed_neighbours(self, uid: int) -> list[int]:
        """Placed DDG neighbours of ``uid`` (the nodes pinning its window)."""
        neighbours: dict[int, None] = {}
        for edge in self.ddg.preds[uid]:
            if edge.src != uid and edge.src in self.placed:
                neighbours[edge.src] = None
        for edge in self.ddg.succs[uid]:
            if edge.dst != uid and edge.dst in self.placed:
                neighbours[edge.dst] = None
        return list(neighbours)

    def _eject(self, uid: int) -> None:
        """Unplace a node: free its FU slot and producer-side comms."""
        assert self.mrt is not None
        op = self.placed.pop(uid)
        self._free_fu(op)
        self._cluster_ops[op.cluster] -= 1
        key = (op.cluster, op.instr.fu_class)
        self._cluster_fu_ops[key] -= 1
        for comm in [c for c in self.comms if c.producer_uid == uid]:
            self.mrt.slot_remove(comm.start, BUS_SLOT)
            self.comms.remove(comm)
            index_key = (comm.producer_uid, comm.dst_cluster)
            if self._comm_index.get(index_key) is comm:
                del self._comm_index[index_key]
        if op.instr.is_memory:
            self.policy.ejected(op, self)

    def _free_fu(self, op: PlacedOp) -> None:
        """Release the FU slot a placed op holds (if it takes one)."""
        assert self.mrt is not None
        slots = self._fu_slots[op.instr.uid]
        if slots is not None:
            self.mrt.slot_remove(op.start, slots[op.cluster])

    def _plan_comms(
        self, instr: Instruction, cluster: int, start: int, latency: int, ii: int
    ) -> list[PlacedComm] | None:
        """Bus transfers needed if ``instr`` starts at ``start`` in ``cluster``.

        Returns the list of *new* comms (existing ones are reused when
        their arrival meets the deadline), or None if any transfer cannot
        be placed on a bus in time.
        """
        assert self.mrt is not None
        bus = self.config.bus_latency
        new_comms: dict[tuple[int, int], PlacedComm] = {}
        pending_bus_rows: dict[int, int] = {}

        def bus_free(cycle: int) -> bool:
            return self.mrt.bus_free(cycle) > pending_bus_rows.get(cycle % ii, 0)

        def reserve(comm: PlacedComm) -> None:
            row = comm.start % ii
            pending_bus_rows[row] = pending_bus_rows.get(row, 0) + 1
            new_comms[(comm.producer_uid, comm.dst_cluster)] = comm

        # Values arriving from producers in other clusters.
        for edge in self.ddg.preds[instr.uid]:
            if edge.kind is not DepKind.REG:
                continue
            src_op = self.placed.get(edge.src)
            if src_op is None or src_op.cluster == cluster:
                continue
            deadline = start + ii * edge.distance
            key = (edge.src, cluster)
            existing = self._comm_index.get(key)
            if existing is not None and existing.start + existing.latency <= deadline:
                continue
            planned = new_comms.get(key)
            if planned is not None and planned.start + planned.latency <= deadline:
                continue
            produce = src_op.start + self._edge_latency(edge, instr.uid, latency)
            comm = self._find_bus_slot(produce, deadline - bus, src_op.cluster, cluster,
                                       edge.src, ii, bus_free)
            if comm is None:
                return None
            reserve(comm)

        # Values this instruction produces for consumers in other clusters.
        if instr.dest is not None:
            for edge in self.ddg.succs[instr.uid]:
                if edge.kind is not DepKind.REG:
                    continue
                dst_op = self.placed.get(edge.dst)
                if dst_op is None or dst_op.cluster == cluster:
                    continue
                deadline = dst_op.start + ii * edge.distance
                key = (instr.uid, dst_op.cluster)
                planned = new_comms.get(key)
                if planned is not None and planned.start + planned.latency <= deadline:
                    continue
                produce = start + self._edge_latency(edge, instr.uid, latency)
                comm = self._find_bus_slot(produce, deadline - bus, cluster,
                                           dst_op.cluster, instr.uid, ii, bus_free)
                if comm is None:
                    return None
                reserve(comm)

        return list(new_comms.values())

    def _find_bus_slot(
        self,
        not_before: int,
        not_after: int,
        src_cluster: int,
        dst_cluster: int,
        producer_uid: int,
        ii: int,
        bus_free,
    ) -> PlacedComm | None:
        if not_after < not_before:
            return None
        # Scanning II consecutive cycles covers every kernel row.
        last = min(not_after, not_before + ii - 1)
        for cycle in range(not_before, last + 1):
            if bus_free(cycle):
                return PlacedComm(
                    producer_uid=producer_uid,
                    dst_cluster=dst_cluster,
                    src_cluster=src_cluster,
                    start=cycle,
                    latency=self.config.bus_latency,
                )
        return None

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def _normalize(self, schedule: ModuloSchedule) -> None:
        """Shift all times so the earliest op starts at cycle 0."""
        starts = [op.start for op in schedule.all_placed_ops()]
        starts.extend(c.start for c in schedule.comms)
        starts.extend(p.start for p in schedule.prefetches)
        shift = -min(starts)
        if shift == 0:
            return
        for op in schedule.all_placed_ops():
            op.start += shift
        for comm in schedule.comms:
            comm.start += shift
        for prefetch in schedule.prefetches:
            prefetch.start += shift
