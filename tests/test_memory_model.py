"""Unit tests for the simulated heap, arenas, and memory dumps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryModelError
from repro.memory import BumpArena, MemoryDump, SimulatedHeap


class TestHeapBasics:
    def test_alloc_write_read(self):
        heap = SimulatedHeap()
        addr = heap.malloc(16, tag="test")
        heap.write(addr, b"hello")
        assert heap.read(addr, 5) == b"hello"
        assert heap.block_tag(addr) == "test"

    def test_alloc_bytes_helper(self):
        heap = SimulatedHeap()
        addr = heap.alloc_bytes(b"payload")
        assert heap.read(addr) == b"payload"

    def test_alloc_str_helper(self):
        heap = SimulatedHeap()
        addr = heap.alloc_str("SELECT 1")
        assert heap.read(addr) == b"SELECT 1"

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryModelError):
            SimulatedHeap().malloc(0)

    def test_overflow_write_rejected(self):
        heap = SimulatedHeap()
        addr = heap.malloc(4)
        with pytest.raises(MemoryModelError):
            heap.write(addr, b"toolong")

    def test_double_free_rejected(self):
        heap = SimulatedHeap()
        addr = heap.malloc(4)
        heap.free(addr)
        with pytest.raises(MemoryModelError):
            heap.free(addr)

    def test_use_after_free_rejected(self):
        heap = SimulatedHeap()
        addr = heap.malloc(4)
        heap.free(addr)
        with pytest.raises(MemoryModelError):
            heap.read(addr)

    def test_unknown_address_rejected(self):
        with pytest.raises(MemoryModelError):
            SimulatedHeap().free(123)


class TestNoSecureDeletion:
    """The Section 5 property: freed bytes persist."""

    def test_freed_bytes_persist_in_snapshot(self):
        heap = SimulatedHeap()
        addr = heap.alloc_str("SELECT secret FROM t")
        heap.free(addr)
        assert b"SELECT secret FROM t" in heap.snapshot()

    def test_secure_delete_zeroes(self):
        heap = SimulatedHeap(secure_delete=True)
        addr = heap.alloc_str("SELECT secret FROM t")
        heap.free(addr)
        assert b"SELECT secret FROM t" not in heap.snapshot()

    def test_exact_size_reuse_overwrites(self):
        heap = SimulatedHeap()
        addr = heap.alloc_bytes(b"AAAA")
        heap.free(addr)
        addr2 = heap.malloc(4)
        assert addr2 == addr  # same slot reused
        heap.write(addr2, b"BBBB")
        assert b"AAAA" not in heap.snapshot()

    def test_different_size_not_reused(self):
        heap = SimulatedHeap()
        addr = heap.alloc_bytes(b"AAAA")
        heap.free(addr)
        addr2 = heap.malloc(5)
        assert addr2 != addr
        assert b"AAAA" in heap.snapshot()

    def test_reuse_counts_tracked(self):
        heap = SimulatedHeap()
        a = heap.malloc(8)
        heap.free(a)
        heap.malloc(8)
        assert heap.stats.reused_blocks == 1


class TestBumpArena:
    def test_alloc_and_reset_keeps_bytes(self):
        heap = SimulatedHeap()
        arena = BumpArena(heap, chunk_size=128)
        arena.alloc_str("the marker query text")
        arena.reset()
        # Rewound, not zeroed.
        assert b"the marker query text" in heap.snapshot()

    def test_next_alloc_overwrites_prefix_only(self):
        heap = SimulatedHeap()
        arena = BumpArena(heap, chunk_size=128)
        arena.alloc(b"LONG-OLD-CONTENT-WITH-TAIL")
        arena.reset()
        arena.alloc(b"new")
        snap = heap.snapshot()
        assert b"new" in snap
        assert b"OLD-CONTENT-WITH-TAIL" in snap  # tail survives
        assert b"LONG-OLD" not in snap  # prefix overwritten ("newG-OLD...")

    def test_overflow_allocates_chunks(self):
        heap = SimulatedHeap()
        arena = BumpArena(heap, chunk_size=16)
        for _ in range(5):
            arena.alloc(b"x" * 10)
        assert arena.num_chunks > 1
        arena.reset()
        assert arena.num_chunks == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.binary(max_size=40), max_size=6),
                st.booleans(),
            ),
            max_size=12,
        ),
        st.booleans(),
    )
    def test_alloc_many_equals_consecutive_allocs(self, runs, secure):
        """One ``alloc_many`` leaves what its parts' ``alloc`` calls would:
        same bytes, addresses, chunks and heap counters, whether the run
        fits the chunk, crosses it, or holds a part bigger than a chunk."""
        def replay(batched):
            heap = SimulatedHeap(secure_delete=secure)
            arena = BumpArena(heap, chunk_size=64)
            for parts, reset in runs:
                if batched:
                    arena.alloc_many(parts)
                else:
                    for part in parts:
                        arena.alloc(part)
                if reset:
                    arena.reset()
            return heap.snapshot(), heap.stats, arena.num_chunks, arena.alloc(b"!")

        assert replay(True) == replay(False)

    def test_oversized_allocation_gets_own_chunk(self):
        heap = SimulatedHeap()
        arena = BumpArena(heap, chunk_size=16)
        arena.alloc(b"y" * 100)
        assert b"y" * 100 in heap.snapshot()

    def test_release_frees_all(self):
        heap = SimulatedHeap()
        arena = BumpArena(heap, chunk_size=16)
        arena.alloc(b"data")
        arena.release()
        assert arena.num_chunks == 0
        # Still unzeroed after release.
        assert b"data" in heap.snapshot()

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(MemoryModelError):
            BumpArena(SimulatedHeap(), chunk_size=0)


class TestMemoryDump:
    def test_find_all(self):
        dump = MemoryDump(b"xxNEEDLExxNEEDLExx")
        assert dump.find_all(b"NEEDLE") == [2, 10]

    def test_find_all_empty_needle(self):
        assert MemoryDump(b"abc").find_all(b"") == []

    def test_count_locations(self):
        dump = MemoryDump("query A query B query".encode())
        assert dump.count_locations("query") == 3

    def test_locations_containing_only(self):
        # One standalone marker and one embedded in the full query.
        query = "SELECT xyzzy FROM t"
        data = f"{query}||xyzzy||junk".encode()
        dump = MemoryDump(data)
        assert dump.count_locations("xyzzy") == 2
        assert dump.locations_containing_only("xyzzy", query) == 1

    def test_extract_strings(self):
        dump = MemoryDump(b"\x00\x01printable string here\x02\x03ok\x00")
        strings = [s for _, s in dump.extract_strings(min_length=6)]
        assert "printable string here" in strings
        assert "ok" not in strings  # below min length

    def test_carve_sql(self):
        data = b"\x00garbage\x00SELECT * FROM customers WHERE id = 1\x00more"
        carved = MemoryDump(data).carve_sql()
        assert any("SELECT * FROM customers" in text for _, text in carved)

    def test_carve_sql_case_insensitive(self):
        carved = MemoryDump(b"..insert into t values (1)..").carve_sql()
        assert len(carved) == 1

    @given(st.binary(max_size=100), st.binary(min_size=1, max_size=8))
    def test_find_all_matches_stdlib_count_lower_bound(self, haystack, needle):
        dump = MemoryDump(haystack)
        # Overlapping count is >= non-overlapping stdlib count.
        assert len(dump.find_all(needle)) >= haystack.count(needle)
