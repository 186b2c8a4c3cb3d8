"""The flexible compiler-managed L0 buffer (paper section 3).

Each cluster owns one buffer of a few *subblock* entries (an L1 block
split by the number of clusters: 32/4 = 8 bytes).  Entries are fully
associative with LRU replacement and can hold either

* a **linear** subblock — 8 consecutive bytes of an L1 block, or
* an **interleaved** subblock — the elements ``j`` of an L1 block with
  ``j mod N == residue`` at granularity ``g`` (the access width of the
  load that triggered the fill).

The buffer is write-through and inclusive: replacements and
invalidations simply drop entries.  A store that hits several replicated
copies (same data cached under different mapping functions) updates one
and invalidates the rest, matching the paper's single-write-port design.

Timing: entries carry a ``ready`` cycle so fills in flight are visible —
a load that touches an entry before its data arrives counts as a hit but
completes only at ``ready`` (the processor stalls on use).

Data structure: a recency map of every entry (oldest first), a bucket
per L1 block holding that block's entries in the same recency order,
and an exact-key map ``(is_linear, block, position, granularity) ->
entry``.  Only an address's own block can cover it, so lookups, fills
and store invalidations touch a handful of entries, not the whole
buffer (invariants in the architecture doc).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass


class MapKind(enum.Enum):
    LINEAR = "linear"
    INTERLEAVED = "interleaved"


LINEAR = MapKind.LINEAR


@dataclass(eq=False)
class L0Entry:
    """One resident subblock.  Identity equality and hashing
    (``eq=False``): entries are mutable runtime objects that key the
    buffer's recency map, and removing one must drop *this* entry, not
    a value-equal twin.  The mapping fields (``kind`` to
    ``granularity``) also key the buffer's block and exact indexes, so
    they stay fixed while the entry is resident."""

    kind: MapKind
    block_addr: int  # base address of the owning L1 block
    #: linear: subblock index within the block; interleaved: element residue.
    position: int
    granularity: int  # interleaved element size (bytes); block bytes for linear
    ready: int  # cycle the data arrives from L1
    #: Last cycle the entry's data was made consistent with L1 (fill or
    #: local store update) — used by the staleness checker.
    update_time: int = 0
    from_prefetch: bool = False
    touched: bool = False  # has any demand access hit this entry?

    def __post_init__(self) -> None:
        if self.update_time == 0:
            self.update_time = self.ready


@dataclass
class L0Stats:
    hits: int = 0
    misses: int = 0
    late_hits: int = 0  # hit on an in-flight fill (stall on use)
    linear_fills: int = 0
    interleaved_fills: int = 0
    evictions: int = 0
    evicted_untouched_prefetches: int = 0
    store_updates: int = 0
    store_invalidations: int = 0
    invalidate_alls: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0

    def merge(self, other: "L0Stats") -> None:
        for name in (
            "hits",
            "misses",
            "late_hits",
            "linear_fills",
            "interleaved_fills",
            "evictions",
            "evicted_untouched_prefetches",
            "store_updates",
            "store_invalidations",
            "invalidate_alls",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class L0Buffer:
    """One cluster's L0 buffer."""

    def __init__(
        self,
        entries: int | None,
        block_bytes: int,
        n_clusters: int,
        stats: L0Stats | None = None,
    ) -> None:
        self.capacity = entries  # None = unbounded
        self.block_bytes = block_bytes
        self.n_clusters = n_clusters
        self.subblock_bytes = block_bytes // n_clusters
        self.stats = stats if stats is not None else L0Stats()
        #: Every entry in recency order: first = least recently used.
        self._lru: OrderedDict[L0Entry, None] = OrderedDict()
        #: block_addr -> that block's entries, in the same recency order.
        self._blocks: dict[int, list[L0Entry]] = {}
        #: (is_linear, block_addr, position, granularity) -> entry.
        self._exact: dict[tuple[bool, int, int, int], L0Entry] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def _covers(self, entry: L0Entry, offset: int, width: int) -> bool:
        """Does ``entry`` hold [offset, offset+width) of its own block?"""
        if entry.kind is LINEAR:
            sub = self.subblock_bytes
            lo = entry.position * sub
            return lo <= offset and offset + width <= lo + sub
        # Interleaved: the entry holds elements with index % N == residue
        # at granularity g.  Wider accesses spill into other clusters and
        # must miss (paper section 3.3, fourth bullet).
        g = entry.granularity
        if width > g or offset % g:
            return False
        return (offset // g) % self.n_clusters == entry.position

    def _matches(self, addr: int, width: int) -> list[L0Entry]:
        """Entries covering [addr, addr+width), least recently used first."""
        offset = addr % self.block_bytes
        bucket = self._blocks.get(addr - offset, ())
        return [e for e in bucket if self._covers(e, offset, width)]

    # ------------------------------------------------------------------
    # Lookup / fill / replacement
    # ------------------------------------------------------------------

    def find(self, addr: int, width: int) -> L0Entry | None:
        """Most-recently-used entry covering [addr, addr+width), no side effects."""
        offset = addr % self.block_bytes
        for entry in reversed(self._blocks.get(addr - offset, ())):
            if self._covers(entry, offset, width):
                return entry
        return None

    def find_exact(
        self, kind: MapKind, block: int, position: int, granularity: int
    ) -> L0Entry | None:
        """The entry filled under exactly this mapping, if resident."""
        return self._exact.get((kind is LINEAR, block, position, granularity))

    def access(self, addr: int, width: int, cycle: int) -> L0Entry | None:
        """Demand access: updates LRU and hit/miss statistics.

        Inlined MRU-first cover scan of the block's bucket (this is the
        simulator's hottest memory loop); semantically identical to
        ``find`` + LRU bump.
        """
        offset = addr % self.block_bytes
        bucket = self._blocks.get(addr - offset)
        stats = self.stats
        if bucket is None:
            stats.misses += 1
            return None
        sub = self.subblock_bytes
        last = len(bucket) - 1
        for idx in range(last, -1, -1):
            entry = bucket[idx]
            if entry.kind is LINEAR:
                lo = entry.position * sub
                if lo <= offset and offset + width <= lo + sub:
                    break
            else:
                g = entry.granularity
                if (
                    width <= g
                    and not offset % g
                    and (offset // g) % self.n_clusters == entry.position
                ):
                    break
        else:
            stats.misses += 1
            return None
        stats.hits += 1
        if entry.ready > cycle:
            stats.late_hits += 1
        entry.touched = True
        self._lru.move_to_end(entry)
        if idx != last:
            del bucket[idx]
            bucket.append(entry)
        return entry

    def _fill(
        self,
        kind: MapKind,
        block: int,
        position: int,
        granularity: int,
        ready: int,
        from_prefetch: bool,
    ) -> L0Entry:
        key = (kind is LINEAR, block, position, granularity)
        existing = self._exact.get(key)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            return existing
        stats = self.stats
        if self.capacity is not None:
            while len(self._lru) >= self.capacity:
                # The LRU head, which is also the head of its bucket.
                victim = next(iter(self._lru))
                self._remove(victim)
                stats.evictions += 1
                if victim.from_prefetch and not victim.touched:
                    stats.evicted_untouched_prefetches += 1
        entry = L0Entry(kind, block, position, granularity, ready, 0, from_prefetch)
        self._lru[entry] = None
        self._blocks.setdefault(block, []).append(entry)
        self._exact[key] = entry
        if kind is LINEAR:
            stats.linear_fills += 1
        else:
            stats.interleaved_fills += 1
        return entry

    def _remove(self, entry: L0Entry) -> None:
        del self._lru[entry]
        bucket = self._blocks[entry.block_addr]
        bucket.remove(entry)
        if not bucket:
            del self._blocks[entry.block_addr]
        del self._exact[
            (entry.kind is LINEAR, entry.block_addr, entry.position, entry.granularity)
        ]

    def fill_linear(
        self, addr: int, ready: int, *, from_prefetch: bool = False
    ) -> L0Entry:
        """Insert the linear subblock containing ``addr`` (idempotent)."""
        offset = addr % self.block_bytes
        sub = self.subblock_bytes
        return self._fill(
            LINEAR, addr - offset, offset // sub, sub, ready, from_prefetch
        )

    def fill_interleaved(
        self,
        block_addr: int,
        residue: int,
        granularity: int,
        ready: int,
        *,
        from_prefetch: bool = False,
    ) -> L0Entry:
        return self._fill(
            MapKind.INTERLEAVED, block_addr, residue, granularity, ready, from_prefetch
        )

    # ------------------------------------------------------------------
    # Stores & invalidation
    # ------------------------------------------------------------------

    def store_update(self, addr: int, width: int, cycle: int) -> None:
        """Local store with PAR_ACCESS: refresh one copy, drop the others.

        The paper keeps a single write port per buffer, so when the same
        data is replicated under different mapping functions only one
        entry is written; the rest are invalidated (section 4.1).
        """
        matches = self._matches(addr, width)
        if not matches:
            return
        keep = matches.pop()  # most recently used copy
        keep.update_time = max(keep.update_time, cycle)
        self.stats.store_updates += 1
        for entry in matches:
            self._remove(entry)
            self.stats.store_invalidations += 1

    def invalidate_matching(self, addr: int, width: int) -> int:
        """Drop every entry covering the address (PSR replica behaviour)."""
        matches = self._matches(addr, width)
        for entry in matches:
            self._remove(entry)
            self.stats.store_invalidations += 1
        return len(matches)

    def invalidate_all(self) -> None:
        self._lru.clear()
        self._blocks.clear()
        self._exact.clear()
        self.stats.invalidate_alls += 1

    # ------------------------------------------------------------------
    # Prefetch-trigger geometry
    # ------------------------------------------------------------------

    def is_edge_element(
        self, entry: L0Entry, addr: int, width: int, last: bool
    ) -> bool:
        """Is ``addr`` the last (or first) element of ``entry``'s subblock?"""
        offset = addr - entry.block_addr
        if entry.kind is LINEAR:
            sub = self.subblock_bytes
            within = offset - entry.position * sub
            return within + width == sub if last else within == 0
        g = entry.granularity
        residue = entry.position
        elements_per_block = self.block_bytes // g
        if not 0 <= residue < elements_per_block:
            raise ValueError(
                f"residue {residue} owns no {g}-byte element of a "
                f"{self.block_bytes}-byte block"
            )
        if not last:
            return offset // g == residue
        n = self.n_clusters
        return offset // g == residue + (elements_per_block - 1 - residue) // n * n

    def __len__(self) -> int:
        return len(self._lru)

    def entries(self) -> list[L0Entry]:
        """Resident entries, least recently used first."""
        return list(self._lru)

    # ------------------------------------------------------------------
    # Fast-path hooks (convergence early-exit)
    # ------------------------------------------------------------------

    def shift_time(self, delta: int) -> None:
        """Advance every entry's fill/update stamp by ``delta`` cycles."""
        for entry in self._lru:
            entry.ready += delta
            entry.update_time += delta

    def fingerprint(self, time_base: int, horizon: int) -> tuple:
        """Canonical content + LRU order, times relative to ``time_base``.

        Stamps older than ``horizon`` cycles are bucketed as "ancient":
        their exact value can no longer change a stall (fills completed
        long ago) and only orders against equally ancient store stamps —
        the documented soundness condition of the early-exit.
        """

        def rel(t: int) -> int:
            d = t - time_base
            return d if d >= -horizon else -horizon - 1

        return tuple(
            (
                e.kind.value,
                e.block_addr,
                e.position,
                e.granularity,
                rel(e.ready),
                rel(e.update_time),
                e.from_prefetch,
                e.touched,
            )
            for e in self._lru
        )
