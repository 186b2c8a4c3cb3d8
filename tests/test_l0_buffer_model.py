"""Differential model test: the indexed ``L0Buffer`` against a list-LRU model.

The fast and reference executors share ``L0Buffer``, so their
differential check cannot see an L0 bug.  This test is the oracle that
can: ``ListL0`` below is the buffer's original algorithm (one Python
list in LRU order, every operation a full scan), and Hypothesis drives
both with the same operation sequences.  After every operation the
returned entry, the statistics, the resident entries in LRU order and
the convergence fingerprint must all agree.
"""

from dataclasses import astuple, asdict

from hypothesis import given, settings, strategies as st

from repro.memory import L0Buffer, L0Entry, L0Stats, MapKind

BLOCK = 32
N_BLOCKS = 3  # a small address space, so replicas of one block overlap


class ListL0:
    """The list-LRU buffer the index replaced (index 0 = oldest)."""

    def __init__(self, entries, block_bytes, n_clusters):
        self.capacity = entries
        self.block_bytes = block_bytes
        self.n_clusters = n_clusters
        self.sub = block_bytes // n_clusters
        self.stats = L0Stats()
        self.list: list[L0Entry] = []

    def covers(self, e, addr, width):
        block = addr - addr % self.block_bytes
        if block != e.block_addr:
            return False
        offset = addr - block
        if e.kind is MapKind.LINEAR:
            lo = e.position * self.sub
            return lo <= offset and offset + width <= lo + self.sub
        g = e.granularity
        if width > g or offset % g:
            return False
        return (offset // g) % self.n_clusters == e.position

    def find(self, addr, width):
        for e in reversed(self.list):
            if self.covers(e, addr, width):
                return e
        return None

    def access(self, addr, width, cycle):
        e = self.find(addr, width)
        if e is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.late_hits += e.ready > cycle
        e.touched = True
        self.list.remove(e)
        self.list.append(e)
        return e

    def find_exact(self, kind, block, position, granularity):
        for e in self.list:
            if (e.kind, e.block_addr, e.position, e.granularity) == (
                kind,
                block,
                position,
                granularity,
            ):
                return e
        return None

    def fill(self, kind, block, position, granularity, ready, from_prefetch):
        e = self.find_exact(kind, block, position, granularity)
        if e is not None:
            e.ready = min(e.ready, ready)
            return e
        while self.capacity is not None and len(self.list) >= self.capacity:
            victim = self.list.pop(0)
            self.stats.evictions += 1
            if victim.from_prefetch and not victim.touched:
                self.stats.evicted_untouched_prefetches += 1
        e = L0Entry(kind, block, position, granularity, ready, 0, from_prefetch)
        self.list.append(e)
        if kind is MapKind.LINEAR:
            self.stats.linear_fills += 1
        else:
            self.stats.interleaved_fills += 1
        return e

    def fill_linear(self, addr, ready, *, from_prefetch=False):
        block = addr - addr % self.block_bytes
        position = (addr - block) // self.sub
        return self.fill(
            MapKind.LINEAR, block, position, self.sub, ready, from_prefetch
        )

    def fill_interleaved(self, block, residue, g, ready, *, from_prefetch=False):
        return self.fill(MapKind.INTERLEAVED, block, residue, g, ready, from_prefetch)

    def store_update(self, addr, width, cycle):
        matches = [e for e in self.list if self.covers(e, addr, width)]
        if matches:
            keep = matches[-1]
            keep.update_time = max(keep.update_time, cycle)
            self.stats.store_updates += 1
            for e in matches[:-1]:
                self.list.remove(e)
                self.stats.store_invalidations += 1

    def invalidate_matching(self, addr, width):
        matches = [e for e in self.list if self.covers(e, addr, width)]
        for e in matches:
            self.list.remove(e)
            self.stats.store_invalidations += 1
        return len(matches)

    def invalidate_all(self):
        self.list.clear()
        self.stats.invalidate_alls += 1

    def shift_time(self, delta):
        for e in self.list:
            e.ready += delta
            e.update_time += delta

    def entries(self):
        return list(self.list)


addrs = st.integers(min_value=0, max_value=N_BLOCKS * BLOCK - 1)
blocks = st.integers(min_value=0, max_value=N_BLOCKS - 1).map(lambda b: b * BLOCK)
widths = st.sampled_from([1, 2, 4, 8])
cycles = st.integers(min_value=0, max_value=60)


def operations(n_clusters):
    return st.one_of(
        st.tuples(st.just("fill_linear"), addrs, cycles, st.booleans()),
        st.tuples(
            st.just("fill_interleaved"),
            blocks,
            st.integers(min_value=0, max_value=n_clusters - 1),
            widths,
            cycles,
            st.booleans(),
        ),
        st.tuples(st.just("access"), addrs, widths, cycles),
        st.tuples(st.just("find"), addrs, widths),
        st.tuples(
            st.just("find_exact"),
            st.sampled_from(list(MapKind)),
            blocks,
            st.integers(min_value=0, max_value=n_clusters - 1),
            widths,
        ),
        st.tuples(st.just("store_update"), addrs, widths, cycles),
        st.tuples(st.just("invalidate_matching"), addrs, widths),
        st.tuples(st.just("invalidate_all")),
        st.tuples(st.just("shift_time"), st.integers(min_value=0, max_value=20)),
    )


def apply(buf, op):
    name, *args = op
    if name in ("fill_linear", "fill_interleaved"):
        *args, from_prefetch = args
        return getattr(buf, name)(*args, from_prefetch=from_prefetch)
    return getattr(buf, name)(*args)


def observe(result):
    return astuple(result) if isinstance(result, L0Entry) else result


def check_invariants(buf):
    """The index's own invariants (see the architecture doc)."""
    order = list(buf._lru)
    for block, bucket in buf._blocks.items():
        assert bucket, "empty buckets are dropped"
        assert bucket == [e for e in order if e.block_addr == block]
    assert sum(len(b) for b in buf._blocks.values()) == len(order)
    assert sorted(map(id, buf._exact.values())) == sorted(map(id, order))
    for (is_linear, block, position, g), e in buf._exact.items():
        assert (is_linear, block, position, g) == (
            e.kind is MapKind.LINEAR,
            e.block_addr,
            e.position,
            e.granularity,
        )


@st.composite
def scenarios(draw):
    n_clusters = draw(st.sampled_from([2, 4]))
    capacity = draw(st.sampled_from([1, 2, 4, 8, 16, None]))
    ops = draw(st.lists(operations(n_clusters), max_size=80))
    return n_clusters, capacity, ops


def model_fingerprint(model, time_base, horizon):
    """The original ``fingerprint``: list order, ancient stamps bucketed."""

    def rel(t):
        return t - time_base if t - time_base >= -horizon else -horizon - 1

    return tuple(
        (e.kind.value, e.block_addr, e.position, e.granularity)
        + (rel(e.ready), rel(e.update_time), e.from_prefetch, e.touched)
        for e in model.list
    )


def assert_same(buf, model, context):
    assert asdict(buf.stats) == asdict(model.stats), context
    assert [astuple(e) for e in buf.entries()] == [
        astuple(e) for e in model.entries()
    ], context
    assert len(buf) == len(model.list), context
    assert buf.fingerprint(40, 25) == model_fingerprint(model, 40, 25), context
    check_invariants(buf)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_indexed_buffer_matches_list_model(scenario):
    n_clusters, capacity, ops = scenario
    buf = L0Buffer(entries=capacity, block_bytes=BLOCK, n_clusters=n_clusters)
    model = ListL0(capacity, BLOCK, n_clusters)
    for step, op in enumerate(ops):
        got, want = apply(buf, op), apply(model, op)
        assert observe(got) == observe(want), (step, op)
        assert_same(buf, model, (step, op))


def test_store_to_overlapping_replicas_keeps_most_recent():
    """Linear and two interleaved replicas of one element: the store
    keeps the most recently used copy, whichever its mapping."""
    buf = L0Buffer(entries=4, block_bytes=BLOCK, n_clusters=4)
    model = ListL0(4, BLOCK, 4)
    ops = [
        ("fill_interleaved", 0, 0, 2, 5, False),
        ("fill_linear", 0, 3, True),
        ("fill_interleaved", 0, 0, 4, 7, False),
        ("access", 4, 4, 9),  # only the linear copy covers: it becomes MRU
        ("fill_linear", 64, 1, False),
        ("store_update", 0, 2, 11),  # keeps the linear copy, drops two
        ("fill_linear", 32, 2, True),
        ("fill_linear", 40, 2, True),
        ("fill_linear", 72, 2, False),  # evicts the linear copy of block 0
        ("invalidate_matching", 32, 1),
    ]
    for op in ops:
        assert observe(apply(buf, op)) == observe(apply(model, op)), op
        assert_same(buf, model, op)
    assert buf.stats.store_invalidations == 3
    assert buf.stats.evictions == 1
    assert buf.find(0, 1) is None
