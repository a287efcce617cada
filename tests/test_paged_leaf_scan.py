"""Leaf-page decoding and leaf-chain range scans of the paged B+-tree.

``LeafNode.decode`` must round-trip what ``serialize`` wrote and keep its
two ``PageError`` messages. ``PagedBTree.range`` appends whole leaves that
lie inside the bounds in one step; ``reference_range`` below is the
per-entry loop it must match in results, access path, pool statistics and
buffer-pool dump order.
"""

import random

import pytest

from repro.errors import PageError
from repro.storage.btree import AccessPath
from repro.storage.paged import BufferPoolManager, PagedBTree, PageFile
from repro.storage.paged.format import PageImage, PagedPageType, unpack_page
from repro.storage.paged.node import (
    LEAF_ENTRY_OVERHEAD,
    NEG_INF,
    NO_PAGE,
    InternalNode,
    LeafNode,
)

# -- leaf decode ------------------------------------------------------------


def leaf_image(payload, n_entries, page_id=7):
    return PageImage(
        page_id=page_id,
        page_type=PagedPageType.INDEX_LEAF,
        level=0,
        page_lsn=0,
        prev_page=NO_PAGE,
        next_page=NO_PAGE,
        n_entries=n_entries,
        payload=payload,
    )


@pytest.mark.parametrize("seed", range(5))
def test_leaf_round_trip(seed):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(-(2**40), 2**40), rng.randint(0, 40)))
    entries = [(k, rng.randbytes(rng.randint(0, 80))) for k in keys]
    node = LeafNode(3, entries, prev_page=11, next_page=12)
    decoded = LeafNode.decode(unpack_page(node.serialize(page_lsn=9)))
    assert decoded.page_id == 3
    assert decoded.entries == entries
    assert (decoded.prev_page, decoded.next_page) == (11, 12)
    assert decoded.used_bytes == node.used_bytes == sum(
        LEAF_ENTRY_OVERHEAD + len(p) for _, p in entries
    )
    assert all(type(p) is bytes for _, p in decoded.entries)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_non_bytes_payload_decodes_to_bytes(wrap):
    node = LeafNode(4, [(1, b"one"), (2, b"")])
    image = unpack_page(node.serialize())
    image = leaf_image(wrap(image.payload), image.n_entries, page_id=4)
    decoded = LeafNode.decode(image)
    assert decoded.entries == [(1, b"one"), (2, b"")]
    assert all(type(p) is bytes for _, p in decoded.entries)


def test_full_page_round_trip():
    node = LeafNode(5)
    while not node.overflowing:
        node.insert_entry(len(node.entries), len(node.entries), bytes(200))
    node.pop_entry(len(node.entries) - 1)
    decoded = LeafNode.decode(unpack_page(node.serialize()))
    assert decoded.entries == node.entries
    assert decoded.used_bytes == node.used_bytes


def test_truncated_entry_message():
    entry = LeafNode(7, [(1, b"abc")]).serialize()
    payload = unpack_page(entry).payload[: LEAF_ENTRY_OVERHEAD + 3]
    # The second entry's 12-byte header does not fit.
    for cut in (0, 5, LEAF_ENTRY_OVERHEAD - 1):
        with pytest.raises(PageError) as excinfo:
            LeafNode.decode(leaf_image(payload + b"\x00" * cut, 2))
        assert str(excinfo.value) == "truncated leaf entry on page 7"


def test_overrunning_entry_message():
    payload = unpack_page(LeafNode(7, [(1, b"abcdef")]).serialize()).payload
    for cut in (LEAF_ENTRY_OVERHEAD, LEAF_ENTRY_OVERHEAD + 5):
        with pytest.raises(PageError) as excinfo:
            LeafNode.decode(leaf_image(payload[:cut], 1))
        assert str(excinfo.value) == "leaf entry on page 7 overruns the page"


def test_exact_fit_is_not_an_overrun():
    payload = unpack_page(LeafNode(7, [(1, b"abcdef")]).serialize()).payload
    decoded = LeafNode.decode(leaf_image(payload[: LEAF_ENTRY_OVERHEAD + 6], 1))
    assert decoded.entries == [(1, b"abcdef")]


def test_wrong_page_type_message():
    image = unpack_page(InternalNode(8, 1, [(NEG_INF, 2)]).serialize())
    with pytest.raises(PageError, match="page 8 is INDEX_INTERNAL, not a leaf"):
        LeafNode.decode(image)


# -- range scans --------------------------------------------------------------


def reference_range(tree, low, high):
    """The per-entry range scan: every entry checked against both bounds."""
    pool = tree._pool
    path = AccessPath()
    start_key = low if low is not None else NEG_INF + 1
    frame = tree._descend(start_key, path)
    results = []
    while True:
        for entry_key, payload in frame.node.entries:
            if low is not None and entry_key < low:
                continue
            if high is not None and entry_key > high:
                pool.unpin(frame)
                return results, path
            results.append((entry_key, payload))
        next_page = frame.node.next_page
        pool.unpin(frame)
        if next_page == NO_PAGE:
            return results, path
        frame = tree._fetch(next_page, path)


POOL_FRAMES = 8


def build_tree(seed):
    """~5x the pool in leaves, with a few leaves emptied and unlinked."""
    rng = random.Random(seed)
    pool = BufferPoolManager(capacity=POOL_FRAMES)
    tree = PagedBTree(pool, PageFile(None, "t", space_id=1))
    keys = list(range(0, 2700, 3))
    rng.shuffle(keys)
    for k in keys:
        tree.insert(k, rng.randbytes(rng.randint(60, 200)))
    live = set(keys)
    doomed = set(rng.sample(keys, 40))
    for start in rng.sample(keys, 4):
        doomed.update(range(start, start + 150, 3))
    for k in sorted(doomed & live):
        tree.delete(k)
    return tree, pool


def leaf_edges(tree):
    """First and last key of every live leaf, read without touching the pool."""
    pool, file = tree._pool, tree._file
    node = pool.read_node(file, tree.root_page_id)
    while isinstance(node, InternalNode):
        node = pool.read_node(file, node.entries[0][1])
    edges = []
    while True:
        if node.entries:
            edges += [node.entries[0][0], node.entries[-1][0]]
        if node.next_page == NO_PAGE:
            return edges
        node = pool.read_node(file, node.next_page)


def bound(rng, edges):
    choice = rng.random()
    if choice < 0.2:
        return None
    if choice < 0.7:
        return rng.choice(edges) + rng.choice((-1, 0, 0, 1))
    return rng.randint(-10, 2710)


@pytest.mark.parametrize("seed", range(4))
def test_range_matches_per_entry_reference(seed):
    tree, pool = build_tree(seed)
    ref_tree, ref_pool = build_tree(seed)
    edges = leaf_edges(tree)
    assert len(edges) // 2 >= 4 * POOL_FRAMES
    assert tree._file.free_list()  # emptied leaves were unlinked and freed
    assert pool.dump() == ref_pool.dump()
    rng = random.Random(100 + seed)
    for _ in range(60):
        low, high = bound(rng, edges), bound(rng, edges)
        results, path = tree.range(low, high)
        expected, expected_path = reference_range(ref_tree, low, high)
        assert results == expected, (low, high)
        assert path.page_ids == expected_path.page_ids, (low, high)
        assert pool.stats == ref_pool.stats
        assert pool.dump() == ref_pool.dump()
    assert pool.pinned_frames == 0


def test_full_scan_and_empty_ranges():
    tree, pool = build_tree(9)
    ref_tree, ref_pool = build_tree(9)
    for low, high in [(None, None), (5, 4), (-50, -1), (2800, None), (None, -1)]:
        assert tree.range(low, high)[0] == reference_range(ref_tree, low, high)[0]
        assert pool.stats == ref_pool.stats
        assert pool.dump() == ref_pool.dump()
    keys = [k for k, _ in tree.range(None, None)[0]]
    assert keys == sorted(keys) and len(keys) == tree.size


def test_empty_tree_range():
    pool = BufferPoolManager(capacity=POOL_FRAMES)
    tree = PagedBTree(pool, PageFile(None, "t", space_id=1))
    results, path = tree.range(None, None)
    assert results == [] and path.page_ids == [tree.root_page_id]
