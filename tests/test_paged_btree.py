import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.paged import (
    BufferPoolManager,
    PagedBTree,
    PagedTable,
    PageFile,
)
from repro.storage.paged.node import NO_PAGE, NEG_INF, InternalNode, LeafNode


def make_tree(capacity=64, payload_bytes=200):
    pool = BufferPoolManager(capacity=capacity)
    file = PageFile(None, "t", space_id=1)
    tree = PagedBTree(pool, file)
    return tree, pool, file


def big(value, payload_bytes=200):
    return (str(value) * payload_bytes)[:payload_bytes].encode()


def check_structure(tree, pool, file, expected_keys):
    """Walk the tree verifying separators, key ranges, and leaf chain."""

    def walk(pid, lo, hi):
        node = pool.read_node(file, pid)
        if isinstance(node, LeafNode):
            keys = [k for k, _ in node.entries]
            assert keys == sorted(keys)
            for k in keys:
                assert lo <= k and (hi is None or k < hi)
            return keys
        seps = [s for s, _ in node.entries]
        assert seps == sorted(seps), f"unsorted separators in page {pid}"
        collected = []
        for i, (sep, child) in enumerate(node.entries):
            child_hi = node.entries[i + 1][0] if i + 1 < len(node.entries) else hi
            collected += walk(child, max(lo, sep), child_hi)
        return collected

    assert walk(tree.root_page_id, NEG_INF, None) == sorted(expected_keys)
    # The leaf chain must agree with the in-order walk.
    chained = [k for k, _ in tree.scan()]
    assert chained == sorted(expected_keys)


class TestBasicOps:
    def test_insert_get(self):
        tree, pool, file = make_tree()
        tree.insert(5, b"five")
        payload, path = tree.get(5)
        assert payload == b"five"
        assert path.page_ids

    def test_get_missing(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"v")
        payload, _ = tree.get(2)
        assert payload is None

    def test_duplicate_rejected(self):
        tree, pool, _ = make_tree()
        tree.insert(1, b"v")
        with pytest.raises(StorageError, match="duplicate key 1"):
            tree.insert(1, b"w")
        assert pool.pinned_frames == 0

    def test_update(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"old")
        old, _ = tree.update(1, b"new")
        assert old == b"old"
        assert tree.get(1)[0] == b"new"

    def test_update_missing_rejected(self):
        tree, pool, _ = make_tree()
        with pytest.raises(StorageError, match="update of missing key 9"):
            tree.update(9, b"v")
        assert pool.pinned_frames == 0

    def test_delete(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"v")
        old, _ = tree.delete(1)
        assert old == b"v"
        assert tree.get(1)[0] is None
        assert tree.size == 0

    def test_delete_missing_rejected(self):
        tree, pool, _ = make_tree()
        with pytest.raises(StorageError, match="delete of missing key 3"):
            tree.delete(3)
        assert pool.pinned_frames == 0

    def test_no_pins_leak(self):
        tree, pool, _ = make_tree()
        for k in range(200):
            tree.insert(k, big(k))
        for k in range(0, 200, 3):
            tree.delete(k)
        for k in range(0, 200, 7):
            if k % 3:
                tree.update(k, b"u")
        tree.range(10, 150)
        assert pool.pinned_frames == 0


class TestSplitsAndStructure:
    def test_byte_budget_splits_grow_height(self):
        tree, pool, file = make_tree()
        for k in range(200):
            tree.insert(k, big(k))
        assert tree.height >= 2
        check_structure(tree, pool, file, list(range(200)))

    def test_random_order_inserts(self):
        tree, pool, file = make_tree()
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.insert(k, big(k))
        check_structure(tree, pool, file, keys)
        for k in keys:
            assert tree.get(k)[0] == big(k)

    def test_leaf_chain_bidirectional(self):
        tree, pool, file = make_tree()
        for k in range(300):
            tree.insert(k, big(k))
        # Forward walk via next_page, then check prev_page back-links.
        node = pool.read_node(file, tree.root_page_id)
        while isinstance(node, InternalNode):
            node = pool.read_node(file, node.entries[0][1])
        chain = [node.page_id]
        while node.next_page != NO_PAGE:
            prev_id = node.page_id
            node = pool.read_node(file, node.next_page)
            assert node.prev_page == prev_id
            chain.append(node.page_id)
        assert len(chain) == len(set(chain)) > 1

    def test_range_scan(self):
        tree, _, _ = make_tree()
        for k in range(0, 300, 2):
            tree.insert(k, big(k))
        results, path = tree.range(10, 40)
        assert [k for k, _ in results] == list(range(10, 41, 2))
        assert path.page_ids
        assert [k for k, _ in tree.range(None, 8)[0]] == [0, 2, 4, 6, 8]
        assert [k for k, _ in tree.range(294, None)[0]] == [294, 296, 298]


class TestDeletionReclaim:
    def test_emptied_leaf_unlinked_from_chain(self):
        tree, pool, file = make_tree()
        for k in range(100):
            tree.insert(k, big(k))
        height = tree.height
        assert height >= 2
        for k in range(100):
            tree.delete(k)
        assert tree.size == 0
        assert tree.height == 1
        assert tree.min_key() is None
        # All index pages except the root leaf went to the free list.
        free = set(file.free_list())
        assert len(free) >= 2
        assert tree.root_page_id not in free

    def test_churn_preserves_invariants(self):
        tree, pool, file = make_tree(capacity=32)
        rng = random.Random(5)
        live = {}
        for _ in range(1500):
            if live and rng.random() < 0.5:
                k = rng.choice(list(live))
                old, _ = tree.delete(k)
                assert old == live.pop(k)
            else:
                k = rng.randrange(250)
                if k in live:
                    continue
                tree.insert(k, big(k))
                live[k] = big(k)
        check_structure(tree, pool, file, list(live))
        assert pool.pinned_frames == 0

    def test_leftmost_spine_regression(self):
        # Regression for the unlink bug: removing the leftmost child of an
        # internal node (or promoting a non-leftmost node to root) must
        # rewrite the NEG_INF separator down the new leftmost spine,
        # otherwise later inserts land out of order.
        tree, pool, file = make_tree()
        for k in range(400):
            tree.insert(k, big(k))
        # Empty the leftmost leaves to force slot-0 unlinks.
        for k in range(150):
            tree.delete(k)
        for k in range(150):
            tree.insert(k, big(k))
        check_structure(tree, pool, file, list(range(400)))


class TestBulkLoad:
    def test_bulk_load_and_lookup(self):
        tree, pool, file = make_tree()
        n = 5000
        loaded = tree.bulk_load((k, big(k, 64)) for k in range(n))
        assert loaded == n
        assert tree.size == n
        for k in (0, 1, n // 2, n - 1):
            assert tree.get(k)[0] == big(k, 64)
        assert tree.get(n)[0] is None
        check_structure(tree, pool, file, list(range(n)))

    def test_bulk_load_requires_empty(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"v")
        with pytest.raises(StorageError, match="empty"):
            tree.bulk_load([(2, b"w")])

    def test_bulk_load_requires_sorted_unique(self):
        tree, _, _ = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(2, b"a"), (1, b"b")])

    def test_mutations_after_bulk_load(self):
        tree, pool, file = make_tree()
        tree.bulk_load((k, big(k, 64)) for k in range(0, 2000, 2))
        tree.insert(1, b"odd")
        old, _ = tree.delete(100)
        assert old == big(100, 64)
        keys = set(range(0, 2000, 2)) - {100} | {1}
        check_structure(tree, pool, file, list(keys))


class TestPersistence:
    def test_reopen_from_disk(self, tmp_path):
        path = str(tmp_path / "t.ibd")
        pool = BufferPoolManager(capacity=32)
        file = PageFile(path, "t", space_id=4)
        table = PagedTable(pool, file)
        for k in range(300):
            table.insert(k, big(k))
        pool.checkpoint()
        file.close()

        pool2 = BufferPoolManager(capacity=32)
        file2 = PageFile(path, "t")
        table2 = PagedTable(pool2, file2)
        assert table2.row_count == 300
        for k in (0, 150, 299):
            assert table2.get(k)[0] == big(k)
        file2.verify_all()
        file2.close()

    def test_secondary_index_survives_reopen(self, tmp_path):
        path = str(tmp_path / "t.ibd")
        pool = BufferPoolManager(capacity=32)
        file = PageFile(path, "t", space_id=4)
        table = PagedTable(pool, file)
        for k in range(100):
            table.insert(k, big(k))
        table.create_secondary_index("mod", lambda row: len(row) % 7)
        pool.checkpoint()
        file.close()

        pool2 = BufferPoolManager(capacity=32)
        file2 = PageFile(path, "t")
        table2 = PagedTable(pool2, file2)
        table2.create_secondary_index("mod", lambda row: len(row) % 7)
        pks, _ = table2.secondary_lookup("mod", 200 % 7)
        assert pks == list(range(100))
        file2.close()


class TestSecondaryIndexes:
    def extractor(self, row):
        return len(row)

    def test_postings_follow_mutations(self):
        tree, pool, file = make_tree()
        table = PagedTable(pool, file)
        table.create_secondary_index("by_len", self.extractor)
        table.insert(1, b"aa")
        table.insert(2, b"bb")
        table.insert(3, b"ccc")
        assert table.secondary_lookup("by_len", 2)[0] == [1, 2]
        assert table.secondary_lookup("by_len", 3)[0] == [3]

        table.update(1, b"dddd")
        assert table.secondary_lookup("by_len", 2)[0] == [2]
        assert table.secondary_lookup("by_len", 4)[0] == [1]

        table.delete(2)
        assert table.secondary_lookup("by_len", 2)[0] == []

    def test_backfill_on_existing_rows(self):
        tree, pool, file = make_tree()
        table = PagedTable(pool, file)
        for k in range(50):
            table.insert(k, b"x" * (k % 5 + 1))
        table.create_secondary_index("by_len", self.extractor)
        assert table.secondary_lookup("by_len", 3)[0] == list(range(2, 50, 5))

    def test_duplicate_index_name_rejected(self):
        tree, pool, file = make_tree()
        table = PagedTable(pool, file)
        table.create_secondary_index("i", self.extractor)
        with pytest.raises(StorageError):
            table.create_secondary_index("i", self.extractor)

    def test_secondary_range(self):
        tree, pool, file = make_tree()
        table = PagedTable(pool, file)
        table.create_secondary_index("by_len", self.extractor)
        for k in range(30):
            table.insert(k, b"y" * (k % 6 + 1))
        hits, _ = table.secondary_range("by_len", 2, 3)
        expected = [
            (length, [pk for pk in range(30) if pk % 6 + 1 == length])
            for length in (2, 3)
        ]
        assert hits == expected


def _linear_route(entries, key):
    """Reference router: scan the separators for the last one ``<= key``."""
    child = entries[0][1]
    for sep, candidate in entries:
        if key >= sep:
            child = candidate
        else:
            break
    return child


_I64 = st.integers(-(1 << 63), (1 << 63) - 1)


class TestInternalRoute:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_I64, max_size=260, unique=True),
        st.booleans(),
        st.data(),
    )
    def test_route_matches_linear_scan(self, separators, neg_inf_first, data):
        separators = sorted(set(separators) - {NEG_INF})
        if neg_inf_first or not separators:
            separators.insert(0, NEG_INF)
        entries = [(sep, 1000 + i) for i, sep in enumerate(separators)]
        node = InternalNode(page_id=1, level=1, entries=entries)
        near = [sep + d for sep in separators for d in (-1, 0, 1)]
        keys = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(near),
                    _I64,
                    # Outside the i64 range: below NEG_INF and above the top.
                    st.integers(-(1 << 70), -(1 << 63) - 1),
                    st.integers(1 << 63, 1 << 70),
                ),
                min_size=1,
                max_size=30,
            )
        )
        for key in keys + [separators[0] - 1, separators[-1] + 1]:
            assert node.route(key) == _linear_route(entries, key), key

    def test_lookups_touch_the_same_pages(self, monkeypatch):
        def lookups():
            tree, pool, file = make_tree(capacity=16)
            tree.bulk_load((k, big(k, 64)) for k in range(0, 75000, 3))
            assert tree.height >= 3
            rng = random.Random(7)
            out = []
            for key in [rng.randrange(-10, 75010) for _ in range(400)]:
                payload, path = tree.get(key)
                out.append((key, payload, tuple(path.page_ids)))
            return out, pool.stats

        bisected = lookups()
        monkeypatch.setattr(
            InternalNode, "route", lambda node, key: _linear_route(node.entries, key)
        )
        assert lookups() == bisected
