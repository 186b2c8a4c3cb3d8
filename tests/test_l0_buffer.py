"""Tests for the flexible L0 buffer model."""

import pytest

from repro.memory import L0Buffer, MapKind


def make_buffer(entries=4):
    return L0Buffer(entries=entries, block_bytes=32, n_clusters=4)


class TestLinearMapping:
    def test_fill_covers_subblock_only(self):
        buf = make_buffer()
        buf.fill_linear(0x100 + 8, ready=0)  # subblock 1 of block 0x100
        assert buf.find(0x108, 4) is not None
        assert buf.find(0x10C, 4) is not None
        assert buf.find(0x100, 4) is None  # subblock 0 not present
        assert buf.find(0x110, 4) is None  # subblock 2 not present

    def test_access_crossing_subblock_misses(self):
        buf = make_buffer()
        buf.fill_linear(0x100, ready=0)
        assert buf.find(0x10C, 8) is None  # spills into subblock 1

    def test_fill_idempotent(self):
        buf = make_buffer()
        a = buf.fill_linear(0x100, ready=5)
        b = buf.fill_linear(0x102, ready=9)  # same subblock
        assert a is b
        assert len(buf) == 1
        assert a.ready == 5  # earliest arrival kept

    def test_hit_miss_statistics(self):
        buf = make_buffer()
        assert buf.access(0x100, 4, cycle=0) is None
        buf.fill_linear(0x100, ready=1)
        assert buf.access(0x100, 4, cycle=2) is not None
        assert buf.stats.hits == 1
        assert buf.stats.misses == 1

    def test_late_hit_counted(self):
        buf = make_buffer()
        buf.fill_linear(0x100, ready=50)
        buf.access(0x100, 4, cycle=10)
        assert buf.stats.late_hits == 1


class TestInterleavedMapping:
    def test_residue_coverage(self):
        buf = make_buffer()
        # Block at 0x200, 2-byte elements, residue 1: elements 1, 5, 9, 13.
        buf.fill_interleaved(0x200, residue=1, granularity=2, ready=0)
        for element in (1, 5, 9, 13):
            assert buf.find(0x200 + 2 * element, 2) is not None
        for element in (0, 2, 4, 6):
            assert buf.find(0x200 + 2 * element, 2) is None

    def test_wider_access_than_granularity_misses(self):
        """Paper section 3.3: data partly mapped elsewhere => miss."""
        buf = make_buffer()
        buf.fill_interleaved(0x200, residue=0, granularity=1, ready=0)
        assert buf.find(0x200, 1) is not None
        assert buf.find(0x200, 4) is None

    def test_misaligned_access_misses(self):
        buf = make_buffer()
        buf.fill_interleaved(0x200, residue=0, granularity=4, ready=0)
        assert buf.find(0x201, 4) is None

    def test_same_data_two_mappings_coexist(self):
        """Intra-cluster replication (paper section 4.1)."""
        buf = make_buffer()
        buf.fill_linear(0x200, ready=0)
        buf.fill_interleaved(0x200, residue=0, granularity=2, ready=0)
        assert len(buf) == 2
        assert buf.find(0x200, 2) is not None


class TestReplacement:
    def test_lru_eviction(self):
        buf = make_buffer(entries=2)
        buf.fill_linear(0x100, ready=0)
        buf.fill_linear(0x200, ready=0)
        buf.access(0x100, 4, cycle=1)  # make 0x100 most recent
        buf.fill_linear(0x300, ready=2)  # evicts 0x200
        assert buf.find(0x100, 4) is not None
        assert buf.find(0x200, 4) is None
        assert buf.stats.evictions == 1

    def test_unbounded_never_evicts(self):
        buf = L0Buffer(entries=None, block_bytes=32, n_clusters=4)
        for i in range(100):
            buf.fill_linear(0x1000 + 32 * i, ready=0)
        assert len(buf) == 100
        assert buf.stats.evictions == 0

    def test_untouched_prefetch_eviction_tracked(self):
        buf = make_buffer(entries=1)
        buf.fill_linear(0x100, ready=0, from_prefetch=True)
        buf.fill_linear(0x200, ready=0)
        assert buf.stats.evicted_untouched_prefetches == 1


class TestStoresAndInvalidation:
    def test_store_updates_one_copy_invalidates_rest(self):
        buf = make_buffer()
        buf.fill_linear(0x200, ready=0)
        buf.fill_interleaved(0x200, residue=0, granularity=2, ready=0)
        buf.store_update(0x200, 2, cycle=7)
        assert len(buf) == 1  # one copy invalidated
        assert buf.stats.store_updates == 1
        assert buf.stats.store_invalidations == 1
        remaining = buf.entries()[0]
        assert remaining.update_time == 7

    def test_store_miss_is_noop(self):
        buf = make_buffer()
        buf.store_update(0x400, 4, cycle=0)
        assert buf.stats.store_updates == 0

    def test_invalidate_matching(self):
        buf = make_buffer()
        buf.fill_linear(0x100, ready=0)
        buf.fill_linear(0x200, ready=0)
        assert buf.invalidate_matching(0x100, 4) == 1
        assert buf.find(0x100, 4) is None
        assert buf.find(0x200, 4) is not None

    def test_invalidate_all(self):
        buf = make_buffer()
        buf.fill_linear(0x100, ready=0)
        buf.fill_linear(0x200, ready=0)
        buf.invalidate_all()
        assert len(buf) == 0
        assert buf.stats.invalidate_alls == 1


class TestEdgeElements:
    def test_linear_edges(self):
        buf = make_buffer()
        entry = buf.fill_linear(0x100, ready=0)
        assert buf.is_edge_element(entry, 0x104, 4, last=True)
        assert not buf.is_edge_element(entry, 0x100, 4, last=True)
        assert buf.is_edge_element(entry, 0x100, 4, last=False)

    def test_interleaved_edges(self):
        buf = make_buffer()
        # residue 2, granularity 2: elements 2, 6, 10, 14 of the block.
        entry = buf.fill_interleaved(0x200, residue=2, granularity=2, ready=0)
        assert buf.is_edge_element(entry, 0x200 + 2 * 14, 2, last=True)
        assert buf.is_edge_element(entry, 0x200 + 2 * 2, 2, last=False)
        assert not buf.is_edge_element(entry, 0x200 + 2 * 6, 2, last=True)

    @pytest.mark.parametrize("n_clusters", [2, 4])
    @pytest.mark.parametrize("granularity", [1, 2, 4, 8, 16, 32])
    def test_interleaved_closed_form_matches_owned_list(self, granularity, n_clusters):
        """The closed-form first/last owned element equals the one read
        off the explicit list of owned elements, for every residue."""
        buf = L0Buffer(entries=None, block_bytes=32, n_clusters=n_clusters)
        elements_per_block = 32 // granularity
        for residue in range(n_clusters):
            entry = buf.fill_interleaved(0x200, residue, granularity, ready=0)
            owned = [
                j for j in range(elements_per_block) if j % n_clusters == residue
            ]
            for last in (False, True):
                for element in range(elements_per_block):
                    addr = 0x200 + element * granularity
                    if not owned:
                        with pytest.raises(ValueError, match="owns no"):
                            buf.is_edge_element(entry, addr, granularity, last)
                        continue
                    expected = element == (owned[-1] if last else owned[0])
                    assert (
                        buf.is_edge_element(entry, addr, granularity, last)
                        == expected
                    )
