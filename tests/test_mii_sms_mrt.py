"""Tests for MII computation, SMS ordering and the reservation table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import LoopBuilder, build_ddg, unroll
from repro.isa import FUClass
from repro.machine import BUS, ClusterResource, ResourceModel, unified_config
from repro.scheduler import (
    Direction,
    ModuloReservationTable,
    compute_mii,
    rec_mii,
    res_mii,
    sms_order,
)

from repro.workloads.kernels import make_dpcm, make_saxpy

CFG = unified_config()
L1 = lambda uid: 6  # noqa: E731
L0 = lambda uid: 1  # noqa: E731


class TestResMII:
    def test_saxpy(self, saxpy):
        # 3 memory ops over 4 slots -> 1; 2 FP ops over 4 slots -> 1.
        assert res_mii(saxpy, CFG) == 1

    def test_unrolled_saxpy(self, saxpy):
        wide = unroll(saxpy, 4)
        # 12 memory ops over 4 slots -> 3.
        assert res_mii(wide, CFG) == 3

    def test_memory_bound(self):
        b = LoopBuilder("memheavy", trip_count=4)
        a = b.array("a", 256, 4)
        for k in range(9):
            b.load(a, stride=1, offset=k)
        assert res_mii(b.build(), CFG) == 3  # ceil(9/4)


class TestRecMII:
    def test_no_recurrence(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        assert rec_mii(ddg, L1) == 1

    def test_dpcm_l1_vs_l0(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        # ld(6/1) + imul(2) + iadd(1) + store RAW edge(1), distance 1.
        assert rec_mii(ddg, L1) == 10
        assert rec_mii(ddg, L0) == 5

    def test_compute_mii_takes_max(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        assert compute_mii(dpcm, ddg, CFG, L1) == 10

    def test_upper_hint_never_clamps(self, dpcm):
        """A too-small ``upper`` is a probe hint, not a ceiling.

        The exact scheduler's deepening loop seeds from MII; if a caller
        passing ResMII (here 1) as the hint could clamp a recurrence
        whose RecMII (10) exceeds it, the deepening loop would start
        below the true lower bound and "prove" optimality of an
        infeasible II.
        """
        ddg = build_ddg(dpcm, CFG)
        assert res_mii(dpcm, CFG) == 1
        for upper in (1, 2, 5, 9, 10, 11, 1000):
            assert rec_mii(ddg, L1, upper=upper) == 10

    def test_default_upper_is_a_true_bound(self, dpcm):
        """The default probe bound must dominate the real RecMII.

        The recurrence's latency lives almost entirely on distance-0
        edges (load + imul + iadd) with only a cheap distance-1 back
        edge; a bound summing distance-carrying edges alone (the old
        default: 2) undercuts the true RecMII of 10 and survives only
        via the doubling rescue.  The fixed default sums every edge.
        """
        ddg = build_ddg(dpcm, CFG)
        distance_only = 1 + sum(
            e.latency(L1) for e in ddg.edges if e.distance
        )
        all_edges = 1 + sum(e.latency(L1) for e in ddg.edges)
        true_rec = rec_mii(ddg, L1)
        assert distance_only < true_rec  # the old "bound" really was wrong
        assert all_edges >= true_rec

    def test_recurrence_dominates_resources_end_to_end(self, dpcm):
        """RecMII > ResMII must surface unclamped through compute_mii and
        the compiled II (the exact backend's deepening seed)."""
        from repro.scheduler import compile_loop

        ddg = build_ddg(dpcm, CFG)
        mii = compute_mii(dpcm, ddg, CFG, L1)
        assert mii == rec_mii(ddg, L1) > res_mii(dpcm, CFG)
        compiled = compile_loop(dpcm, CFG, unroll_factor=1, scheduler="exact")
        assert compiled.schedule.meta["mii"] == 10
        assert compiled.ii >= 10


class TestSMSOrder:
    def test_all_nodes_ordered_once(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        order = sms_order(ddg, 2, L1)
        assert sorted(uid for uid, _ in order) == sorted(ddg.nodes)

    def test_neighbour_property(self, dpcm):
        """Every node except component seeds touches an earlier node."""
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 10, L1)
        seen: set[int] = set()
        seeds = 0
        for uid, _ in order:
            neighbours = {e.dst for e in ddg.succs[uid]}
            neighbours |= {e.src for e in ddg.preds[uid]}
            if not neighbours & seen:
                seeds += 1
            seen.add(uid)
        assert seeds <= 2  # dpcm has at most 2 weakly-connected components

    def test_most_critical_node_first(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 10, L1)
        slack = ddg.slack(10, L1)
        first_uid = order[0][0]
        assert slack[first_uid] == min(slack.values())

    def test_directions_assigned(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        directions = {d for _, d in sms_order(ddg, 2, L1)}
        assert directions <= {Direction.TOP_DOWN, Direction.BOTTOM_UP}

    def test_infeasible_ii_still_produces_order(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 1, L1)  # below RecMII
        assert len(order) == len(ddg.nodes)


class TestMRT:
    def test_capacity_enforced(self):
        mrt = ModuloReservationTable(2, ResourceModel(CFG))
        mrt.fu_place(0, FUClass.MEM, 0)
        assert not mrt.fu_can_place(0, FUClass.MEM, 0)
        assert mrt.fu_can_place(1, FUClass.MEM, 0)
        assert mrt.fu_can_place(0, FUClass.MEM, 1)
        with pytest.raises(ValueError):
            mrt.fu_place(0, FUClass.MEM, 0)

    def test_modulo_wrapping(self):
        mrt = ModuloReservationTable(3, ResourceModel(CFG))
        mrt.fu_place(7, FUClass.INT, 2)  # row 1
        assert not mrt.fu_can_place(1, FUClass.INT, 2)
        assert not mrt.fu_can_place(4, FUClass.INT, 2)
        assert mrt.fu_can_place(2, FUClass.INT, 2)

    def test_negative_cycles_wrap(self):
        mrt = ModuloReservationTable(4, ResourceModel(CFG))
        mrt.fu_place(-1, FUClass.INT, 0)  # row 3
        assert not mrt.fu_can_place(3, FUClass.INT, 0)

    def test_bus_pool(self):
        mrt = ModuloReservationTable(1, ResourceModel(CFG))
        for _ in range(4):
            mrt.bus_place(0)
        assert not mrt.bus_can_place(0)
        mrt.bus_remove(0)
        assert mrt.bus_can_place(0)

    def test_remove_unplaced_raises(self):
        mrt = ModuloReservationTable(2, ResourceModel(CFG))
        with pytest.raises(ValueError):
            mrt.fu_remove(0, FUClass.INT, 0)

    def test_bad_ii_rejected(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(0, ResourceModel(CFG))


# ----------------------------------------------------------------------
# Differential test: the dense table against a dict-of-counts model
# ----------------------------------------------------------------------

#: Two clusters, two INT units, three buses: capacities above one so the
#: model's counting is exercised, not just occupancy.
MRT_CFG = unified_config(n_clusters=2, int_units_per_cluster=2, n_buses=3)

#: Resources the machine has, then ones it lacks (zero capacity).
KNOWN = [BUS] + [
    ClusterResource(fu, c)
    for c in range(2)
    for fu in (FUClass.INT, FUClass.MEM, FUClass.FP)
]
UNKNOWN = [
    "nonsense",
    ClusterResource(FUClass.INT, 2),
    ClusterResource(FUClass.BUS, 0),
    ClusterResource(FUClass.NONE, 1),
]
MODEL_CAPACITY = {BUS: 3} | {
    r: (2 if r.fu_class is FUClass.INT else 1) for r in KNOWN if r is not BUS
}

mrt_ops = st.lists(
    st.tuples(
        st.sampled_from(["place", "remove", "slot_place", "slot_remove"]),
        st.integers(min_value=-40, max_value=40),
        st.sampled_from(KNOWN + UNKNOWN),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ii=st.integers(min_value=1, max_value=5), ops=mrt_ops)
def test_dense_mrt_matches_count_model(ii, ops):
    resources = ResourceModel(MRT_CFG)
    mrt = ModuloReservationTable(ii, resources)
    model: dict[tuple[int, object], int] = {}
    for op, cycle, resource in ops:
        slot = resources.slot_of(resource)
        if op.startswith("slot_"):
            if slot is None:
                continue  # unknown resources have no slot id
            op = op.removeprefix("slot_")
            act = getattr(mrt, f"slot_{op}")
            arg = slot
        else:
            act = getattr(mrt, op)
            arg = resource
        key = (cycle % ii, resource)
        count = model.get(key, 0)
        capacity = MODEL_CAPACITY.get(resource, 0)
        allowed = count < capacity if op == "place" else count > 0
        if allowed:
            act(cycle, arg)
            model[key] = count + (1 if op == "place" else -1)
        else:
            with pytest.raises(ValueError):
                act(cycle, arg)
        for row in range(ii):
            for probe in KNOWN + UNKNOWN:
                want = model.get((row, probe), 0)
                # Any cycle in the row reads the same counts.
                probe_cycle = row - ii * (cycle % 3)
                assert mrt.used(probe_cycle, probe) == want
                free = MODEL_CAPACITY.get(probe, 0) - want
                assert mrt.free(probe_cycle, probe) == free
                assert mrt.can_place(probe_cycle, probe) == (free > 0)
                probe_slot = resources.slot_of(probe)
                if probe_slot is not None:
                    assert mrt.slot_can_place(probe_cycle, probe_slot) == (free > 0)
            assert mrt.bus_free(row) == 3 - model.get((row, BUS), 0)
