"""Exact modulo scheduling: CP/branch-and-bound over the Roorda variables.

The heuristic engine (:class:`~repro.scheduler.engine.ClusterScheduler`)
iterates the II upward from MII and *hopes* SMS ordering plus ejection
finds a placement; nothing certifies that the II it settles on is
minimal.  This module adds the missing oracle: a complete backtracking
search over the decision variables of Roorda-style optimal software
pipelining — per instruction a kernel row, stage and cluster (folded
into one absolute start time) plus the bus placement of every
cross-cluster register transfer.  The formulation is *parametric in the
machine description* (Witterauf et al.'s symbolic-compilation argument):
cluster count, FU mix, latencies, bus count and the memory policy's
(cluster, latency) options all enter through the same
``MachineConfig``/``MemoryPolicy`` objects the heuristic uses, so one
searcher covers every cluster/L0 variant without per-config models.

Search strategy
---------------

* **SMS first.**  The heuristic schedule is computed up front; it is
  simultaneously the fallback result, the upper bound that terminates
  the deepening loop, and the span hint that sizes the stage horizon.
  ``MII <= II(exact) <= II(SMS)`` therefore holds *by construction*.
* **II deepening.**  For each candidate ``ii`` in
  ``[MII, II(SMS) - 1]`` (ascending), run a depth-first search; the
  first ``ii`` admitting a schedule is optimal provided every smaller
  ``ii`` was fully refuted (no budget exhaustion).
* **Anchored windows.**  Nodes are placed in SMS priority order (every
  node after the first of its weakly-connected component has a placed
  DDG neighbour).  A component's first node is anchored to ``ii``
  consecutive start cycles — any schedule can be shifted by a multiple
  of ``ii`` without changing rows, resources or dependences, so this
  loses no generality.  Every other node's window comes from its placed
  neighbours, clipped to ``anchor ± horizon``.
* **Budget / fallback.**  The search charges one unit per placement
  trial; when ``node_budget`` (or the optional wall-clock
  ``time_budget_s``) is exhausted the searcher abandons the deepening
  loop and returns the SMS schedule, marked ``fallback`` in
  ``schedule.meta``.

Exactness caveats (all recorded in ``meta`` where they matter):

* Optimality is relative to the stage horizon (``max_stages``), exactly
  as in Roorda's fixed-stage SMT formulation.  The default horizon
  covers the SMS span plus two extra stages.
* Bus rows for a needed transfer are taken greedily (earliest free
  slot), so completeness assumes buses are not the binding resource —
  on the paper's 4-bus machine they never are for these kernels.
* Stateful memory policies (the L0 candidate/coherence protocol) are
  driven through the same ``begin_attempt``/``options``/``committed``/
  ``ejected`` protocol as the heuristic engine, so the search is exact
  over the options the policy offers at each step, not over every
  conceivable candidate assignment.  Partial-store-replication
  placements cannot be backtracked through the policy protocol, so
  ``allow_psr`` compiles fall straight back to SMS.

The result is a plain :class:`ModuloSchedule` whose ``meta`` dict
records ``scheduler``, ``mii``, ``ii_sms``, ``improved``,
``proved_optimal``, ``fallback`` and ``nodes_explored`` — the eval
``schedcompare`` mode and the differential oracle tests read these.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..isa.operations import FUClass
from ..ir.ddg import DDG, DepKind
from ..ir.stride import is_candidate
from ..machine.config import ArchKind, MachineConfig
from ..machine.resources import BUS_SLOT
from .engine import ClusterScheduler
from .mii import compute_mii
from .mrt import ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp
from .sms import sms_order

#: Default number of placement trials before the search gives up and
#: falls back to the SMS schedule.  One trial ~ a few microseconds, so
#: the default bounds a single compile to well under a second of search.
DEFAULT_NODE_BUDGET = 60_000

#: How often (in placement trials) the optional wall-clock budget is
#: polled; node budgets alone keep the search deterministic.
_TIME_POLL = 1024


class BudgetExhausted(Exception):
    """Raised internally when the node/time budget runs out mid-search."""


#: A placed-neighbour constraint: ``(other_uid, fixed_latency, is_reg,
#: distance)``, where ``fixed_latency`` is ``None`` for a load-sourced
#: edge whose latency is the producer's placed (or pending) latency.
_Link = tuple[int, int | None, bool, int]


@dataclass(frozen=True, slots=True)
class _Node:
    """One instruction as the search sees it, resolved once per scheduler.

    ``_dfs`` and ``_bounds`` read these on every visit and trial instead
    of re-deriving them from the instruction, the DDG and the policy.
    """

    instr: Instruction
    #: MRT slot id of the op's FU class per cluster; ``None`` if it
    #: takes no issue slot.
    fu_slots: tuple[int, ...] | None
    is_memory: bool
    #: ``(cluster, latency)`` options of a non-memory op, which never
    #: change; a memory op asks the policy on every visit instead.
    options: tuple[tuple[int, int], ...]
    comp: int
    #: Incoming / outgoing dependences, self-loops dropped.
    preds: tuple[_Link, ...]
    succs: tuple[_Link, ...]
    #: Self-loops as ``(fixed_latency, distance)``.
    self_loops: tuple[tuple[int | None, int], ...]


class ExactScheduler(ClusterScheduler):
    """Branch-and-bound exact scheduler; falls back to SMS on budget.

    Subclasses the heuristic engine purely for its machinery — resource
    model, edge-latency resolution, bus-slot planning and final
    normalisation; :meth:`schedule` is replaced wholesale by the
    deepening search.
    """

    def __init__(
        self,
        ddg: DDG,
        config: MachineConfig,
        policy: MemoryPolicy,
        *,
        node_budget: int = DEFAULT_NODE_BUDGET,
        max_stages: int | None = None,
        time_budget_s: float | None = None,
    ) -> None:
        super().__init__(ddg, config, policy)
        self.node_budget = node_budget
        self.max_stages = max_stages
        self.time_budget_s = time_budget_s
        self.nodes_explored = 0
        self._deadline: float | None = None
        # Lower-bound load latencies for MII/ASAP/ordering purposes: the
        # smallest latency any (cluster, latency) option could assign.
        # Computed once, while the policy is still pristine.
        self._floor: dict[int, int] = {
            instr.uid: self._latency_floor(instr.uid)
            for instr in self.loop.body
            if instr.is_load
        }
        # Per-class op counts for the capacity check on entry to a search.
        self._fu_demand = Counter(
            instr.fu_class
            for instr in self.loop.body
            if instr.fu_class in (FUClass.INT, FUClass.MEM, FUClass.FP)
        )
        self._clusters = list(range(config.n_clusters))
        self._nodes = self._node_table()

    # ------------------------------------------------------------------
    # Top level: deepening loop around the SMS baseline
    # ------------------------------------------------------------------

    def schedule(self) -> ModuloSchedule:
        mii = compute_mii(self.loop, self.ddg, self.config, self.policy.planned_latency)
        baseline = ClusterScheduler.schedule(self)
        # A stateful policy (the L0 protocol) makes option enumeration
        # path-dependent: a refuted II may still be feasible under option
        # sequences the protocol no longer offers, so optimality proofs
        # are only claimed when the policy declares its options pure.
        search_exact = bool(getattr(self.policy, "SEARCH_EXACT", False))
        meta = {
            "scheduler": "exact",
            "mii": mii,
            "ii_sms": baseline.ii,
            "improved": False,
            "proved_optimal": False,
            "fallback": False,
            "search_exact": search_exact,
            "nodes_explored": 0,
        }
        if getattr(self.policy, "allow_psr", False):
            # PSR replica placement mutates policy/MRT state that the
            # committed/ejected protocol cannot roll back; searching
            # through it would corrupt the reservation table.
            meta["fallback"] = True
            meta["reason"] = "psr-unsupported"
            baseline.meta.update(meta)
            return baseline
        if baseline.ii <= mii:
            meta["proved_optimal"] = True
            baseline.meta.update(meta)
            return baseline

        self.nodes_explored = 0
        if self.time_budget_s is not None:
            # Deliberate: the wall-clock budget is opt-in, and such
            # artifacts bypass the compile cache entirely.
            self._deadline = time.monotonic() + self.time_budget_s  # analysis: allow(A102)
        exhausted = False
        found: ModuloSchedule | None = None
        for ii in range(mii, baseline.ii):
            try:
                found = self._search(ii, span_hint=baseline.span)
            except BudgetExhausted:
                exhausted = True
                break
            if found is not None:
                if found.validate(self.ddg):
                    # Defensive: a schedule that fails re-validation is a
                    # searcher bug; never hand it to the simulator.
                    found = None
                    exhausted = True
                break
        meta["nodes_explored"] = self.nodes_explored
        if found is not None:
            meta["improved"] = True
            # Optimal iff every smaller II was *completely* refuted.
            meta["proved_optimal"] = search_exact or found.ii <= mii
            found.meta.update(meta)
            return found
        meta["fallback"] = exhausted
        meta["proved_optimal"] = not exhausted and search_exact
        baseline.meta.update(meta)
        return baseline

    # ------------------------------------------------------------------
    # One complete search at a fixed II
    # ------------------------------------------------------------------

    def _search(self, ii: int, span_hint: int) -> ModuloSchedule | None:
        asap = self.ddg.earliest_times(ii, self._floor)
        if asap is None:
            return None  # ii below RecMII even under floor latencies
        self.mrt = ModuloReservationTable(ii, self.resources)
        self.current_ii = ii
        self.placed = {}
        self.comms = []
        self._comm_index = {}
        self._asap = asap
        self.policy.begin_attempt(ii, self)

        stages = self.max_stages
        if stages is None:
            span = max(span_hint, max(asap.values()) + 1)
            stages = -(-span // ii) + 2
        self._horizon = ii * max(1, stages)
        self._anchor: dict[int, int] = {}

        # FU capacity: more ops of a class than its ii rows of units can
        # hold refutes this II.  Placing an op never changes placed +
        # remaining per class, so this entry check is all FU counting
        # can prune.
        if any(
            demand > ii * self.resources.total_fu_slots(cls)
            for cls, demand in self._fu_demand.items()
        ):
            return None

        order = [uid for uid, _ in sms_order(self.ddg, ii, self._floor)]
        if not self._dfs(order, 0, ii):
            return None
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

    def _dfs(self, order: list[int], depth: int, ii: int) -> bool:
        if depth == len(order):
            return True
        node = self._nodes[order[depth]]
        instr = node.instr
        if node.is_memory:
            options = self.policy.options(instr, list(self._clusters))
        else:
            options = node.options
        tried: set[tuple[int, int]] = set()
        for cluster, latency in options:
            if (cluster, latency) in tried:
                continue
            tried.add((cluster, latency))
            if not self._self_loops_feasible(node, latency, ii):
                continue
            bounds = self._bounds(node, cluster, latency, ii)
            if bounds is None:
                continue
            lo, hi = bounds
            for start in range(lo, hi + 1):
                self._charge()
                applied = self._apply(node, cluster, latency, start, ii)
                if applied is None:
                    continue
                op, plan, replaced = applied
                anchored = node.comp not in self._anchor
                if anchored:
                    self._anchor[node.comp] = start
                if not node.is_memory or self.policy.committed(instr, op, self):
                    if self._dfs(order, depth + 1, ii):
                        return True
                    if node.is_memory:
                        self.policy.ejected(op, self)
                if anchored:
                    del self._anchor[node.comp]
                self._revert(node, op, plan, replaced)
        return False

    # ------------------------------------------------------------------
    # Placement bookkeeping (fully reversible, unlike the engine's)
    # ------------------------------------------------------------------

    def _apply(
        self, node: _Node, cluster: int, latency: int, start: int, ii: int
    ) -> tuple[PlacedOp, list[PlacedComm], list] | None:
        mrt = self.mrt
        assert mrt is not None
        slot = None if node.fu_slots is None else node.fu_slots[cluster]
        if slot is not None and not mrt.slot_can_place(start, slot):
            return None
        plan = self._plan_comms(node.instr, cluster, start, latency, ii)
        if plan is None:
            return None
        if slot is not None:
            mrt.slot_place(start, slot)
        replaced: list[tuple[tuple[int, int], PlacedComm | None]] = []
        for comm in plan:
            mrt.slot_place(comm.start, BUS_SLOT)
            self.comms.append(comm)
            key = (comm.producer_uid, comm.dst_cluster)
            replaced.append((key, self._comm_index.get(key)))
            self._comm_index[key] = comm
        op = PlacedOp(instr=node.instr, cluster=cluster, start=start, latency=latency)
        self.placed[node.instr.uid] = op
        return op, plan, replaced

    def _revert(
        self, node: _Node, op: PlacedOp, plan: list[PlacedComm], replaced: list
    ) -> None:
        mrt = self.mrt
        assert mrt is not None
        del self.placed[node.instr.uid]
        for key, old in reversed(replaced):
            if old is None:
                self._comm_index.pop(key, None)
            else:
                self._comm_index[key] = old
        if plan:
            for comm in plan:
                mrt.slot_remove(comm.start, BUS_SLOT)
            # The search is LIFO: this placement's comms are the newest.
            del self.comms[-len(plan):]
        if node.fu_slots is not None:
            mrt.slot_remove(op.start, node.fu_slots[op.cluster])

    # ------------------------------------------------------------------
    # Windows, pruning and budgets
    # ------------------------------------------------------------------

    def _bounds(
        self, node: _Node, cluster: int, latency: int, ii: int
    ) -> tuple[int, int] | None:
        """Complete start window for ``node`` under current placements."""
        anchor = self._anchor.get(node.comp)
        if anchor is None:
            # First node of its component: any schedule can be shifted by
            # a multiple of II, so II consecutive candidates suffice.
            base = self._asap[node.instr.uid] if self._asap is not None else 0
            return base, base + ii - 1
        bus = self.config.bus_latency
        placed = self.placed
        lo = anchor - self._horizon
        hi = anchor + self._horizon
        for src, fixed, is_reg, distance in node.preds:
            src_op = placed.get(src)
            if src_op is None:
                continue
            lat = src_op.latency if fixed is None else fixed
            low = src_op.start + lat - ii * distance
            if is_reg and src_op.cluster != cluster:
                # Optimistic: a fresh transfer can arrive at produce+bus;
                # _plan_comms verifies an actual bus slot exists.
                low += bus
            if low > lo:
                lo = low
        for dst, fixed, is_reg, distance in node.succs:
            dst_op = placed.get(dst)
            if dst_op is None:
                continue
            lat = latency if fixed is None else fixed
            high = dst_op.start + ii * distance - lat
            if is_reg and dst_op.cluster != cluster:
                high -= bus
            if high < hi:
                hi = high
        if hi < lo:
            return None
        return lo, hi

    @staticmethod
    def _self_loops_feasible(node: _Node, latency: int, ii: int) -> bool:
        for fixed, distance in node.self_loops:
            if (latency if fixed is None else fixed) > ii * distance:
                return False
        return True

    def _charge(self) -> None:
        """Count one placement trial, or stop the search before it."""
        if self.nodes_explored >= self.node_budget:
            raise BudgetExhausted
        self.nodes_explored += 1
        if (
            self._deadline is not None
            and self.nodes_explored % _TIME_POLL == 0
            and time.monotonic() > self._deadline  # analysis: allow(A102)
        ):
            raise BudgetExhausted

    # ------------------------------------------------------------------
    # Construction-time helpers
    # ------------------------------------------------------------------

    def _latency_floor(self, uid: int) -> int:
        """Smallest latency any option could schedule load ``uid`` with."""
        instr = self.ddg.instruction(uid)
        if self.config.arch is ArchKind.L0 and is_candidate(instr):
            return min(self.config.l0_latency, self.config.l1_latency)
        return self.policy.planned_latency(uid)

    def _node_table(self) -> dict[int, _Node]:
        comp = self._components()
        nodes: dict[int, _Node] = {}
        for instr in self.loop.body:
            uid = instr.uid
            options: tuple[tuple[int, int], ...] = ()
            if not instr.is_memory:
                latency = self.config.latency_of(instr.opcode)
                options = tuple((c, latency) for c in self._clusters)
            nodes[uid] = _Node(
                instr=instr,
                fu_slots=self._fu_slots[uid],
                is_memory=instr.is_memory,
                options=options,
                comp=comp[uid],
                preds=tuple(
                    (e.src, e.fixed_latency, e.kind is DepKind.REG, e.distance)
                    for e in self.ddg.preds[uid]
                    if e.src != uid
                ),
                succs=tuple(
                    (e.dst, e.fixed_latency, e.kind is DepKind.REG, e.distance)
                    for e in self.ddg.succs[uid]
                    if e.dst != uid
                ),
                self_loops=tuple(
                    (e.fixed_latency, e.distance)
                    for e in self.ddg.succs[uid]
                    if e.dst == uid
                ),
            )
        return nodes

    def _components(self) -> dict[int, int]:
        """Map uid -> weakly-connected component id of the DDG."""
        parent = {uid: uid for uid in self.ddg.nodes}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.ddg.edges:
            a, b = find(edge.src), find(edge.dst)
            if a != b:
                parent[a] = b
        return {uid: find(uid) for uid in self.ddg.nodes}
