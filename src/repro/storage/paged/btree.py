"""Paged B+-tree: every page access pins a frame in the buffer pool.

Mirrors the API of the seed's :class:`repro.storage.btree.BTree` (same
operation set, same :class:`~repro.storage.btree.AccessPath` result shape,
same error messages) but over real 4 KB page files:

* descents pin one frame per level, releasing the parent as soon as the
  child is pinned (lock-crabbing without the locks — single-threaded per
  shard);
* leaves form a doubly-linked chain (``prev_page``/``next_page``), so range
  scans follow sibling pointers instead of re-walking parents;
* splits are byte-budget driven (a node splits when its serialized form
  exceeds the 4 KB payload area), not entry-count driven;
* **deletion unlinks**: a leaf emptied by a delete is spliced out of the
  chain, removed from its parent, and its page goes to the free list
  (payload residue intact — see :mod:`.page_file`); empty internal nodes
  cascade, and a one-child internal root collapses into its child.

``bulk_load`` is the sorted-build fast path: it writes leaves and internal
levels straight to the file at ~90% fill, bypassing the pool the way a real
engine's sorted index build bypasses the buffer pool.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ...errors import StorageError
from ..btree import AccessPath
from .buffer_pool import BufferPoolManager, Frame
from .format import NO_PAGE, PAGE_CAPACITY
from .node import (
    INTERNAL_ENTRY_SIZE,
    LEAF_ENTRY_OVERHEAD,
    NEG_INF,
    InternalNode,
    LeafNode,
)
from .page_file import PageFile

MetaCallback = Callable[[int, int], None]
"""``(root_page_id, size)`` notification whenever either changes."""

#: Bulk-load fill target — leaves ~10% slack for follow-up inserts.
BULK_FILL_BYTES = PAGE_CAPACITY * 9 // 10


def _leaf_slot(entries: List[Tuple[int, bytes]], key: int) -> int:
    """bisect_left over leaf entries without materializing a key list."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class PagedBTree:
    """B+-tree over one :class:`PageFile`, cached by one pool.

    Parameters
    ----------
    pool / file:
        The buffer pool all page I/O goes through and the tablespace that
        owns the pages.
    root_page_id / size:
        Persisted tree metadata (from the tablespace header); ``NO_PAGE``
        root means "create a fresh empty tree".
    on_meta:
        Callback persisting ``(root_page_id, size)`` back into the header
        whenever either changes.
    """

    def __init__(
        self,
        pool: BufferPoolManager,
        file: PageFile,
        root_page_id: int = NO_PAGE,
        size: int = 0,
        on_meta: Optional[MetaCallback] = None,
    ) -> None:
        self._pool = pool
        self._file = file
        self._on_meta = on_meta
        self._root_id = root_page_id
        self._size = size
        if self._root_id == NO_PAGE:
            frame = pool.new_page(file, lambda pid: LeafNode(pid))
            self._root_id = frame.page_id
            pool.unpin(frame)
            self._meta_changed()

    # -- plumbing ----------------------------------------------------------

    @property
    def root_page_id(self) -> int:
        return self._root_id

    @property
    def size(self) -> int:
        """Number of live keys."""
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaf (1 for a single leaf)."""
        return self._pool.read_node(self._file, self._root_id).level + 1

    def _meta_changed(self) -> None:
        if self._on_meta is not None:
            self._on_meta(self._root_id, self._size)

    def _fetch(self, page_id: int, path: Optional[AccessPath] = None) -> Frame:
        frame = self._pool.fetch(self._file, page_id)
        if path is not None:
            path.touch(page_id)
        return frame

    def _unpin_all(self, frames: List[Frame]) -> None:
        while frames:
            self._pool.unpin(frames.pop())

    # -- descent -----------------------------------------------------------

    def _descend(self, key: int, path: Optional[AccessPath]) -> Frame:
        """Pin the leaf covering ``key``; parents are released on the way."""
        frame = self._fetch(self._root_id, path)
        while isinstance(frame.node, InternalNode):
            try:
                child = self._fetch(frame.node.route(key), path)
            except BaseException:
                self._pool.unpin(frame)
                raise
            self._pool.unpin(frame)
            frame = child
        return frame

    def _descend_with_stack(
        self, key: int, path: Optional[AccessPath]
    ) -> List[Frame]:
        """Pin the whole root-to-leaf path (split/unlink propagation)."""
        stack = [self._fetch(self._root_id, path)]
        try:
            while isinstance(stack[-1].node, InternalNode):
                stack.append(self._fetch(stack[-1].node.route(key), path))
        except BaseException:
            self._unpin_all(stack)
            raise
        return stack

    # -- public operations -------------------------------------------------

    def get(self, key: int) -> Tuple[Optional[bytes], AccessPath]:
        """Point lookup; returns ``(payload or None, access path)``."""
        path = AccessPath()
        frame = self._descend(key, path)
        entries = frame.node.entries
        slot = _leaf_slot(entries, key)
        payload = None
        if slot < len(entries) and entries[slot][0] == key:
            payload = entries[slot][1]
        self._pool.unpin(frame)
        return payload, path

    def insert(self, key: int, payload: bytes) -> AccessPath:
        """Insert ``(key, payload)``; raises on duplicate key."""
        path = AccessPath()
        stack = self._descend_with_stack(key, path)
        leaf = stack[-1].node
        slot = _leaf_slot(leaf.entries, key)
        if slot < len(leaf.entries) and leaf.entries[slot][0] == key:
            self._unpin_all(stack)
            raise StorageError(f"duplicate key {key}")
        try:
            leaf.insert_entry(slot, key, payload)
        except BaseException:
            # insert_entry validates before mutating, so the leaf is
            # untouched and the whole pinned path can be released clean.
            self._unpin_all(stack)
            raise
        self._pool.mark_dirty(stack[-1])
        self._size += 1
        self._split_up(stack)
        self._meta_changed()
        return path

    def update(self, key: int, payload: bytes) -> Tuple[bytes, AccessPath]:
        """Replace the payload for ``key``; returns ``(old payload, path)``."""
        path = AccessPath()
        frame = self._descend(key, path)
        entries = frame.node.entries
        slot = _leaf_slot(entries, key)
        if slot >= len(entries) or entries[slot][0] != key:
            self._pool.unpin(frame)
            raise StorageError(f"update of missing key {key}")
        try:
            old_payload = frame.node.replace_entry(slot, key, payload)
        except BaseException:
            # replace_entry validates before mutating: unpin clean.
            self._pool.unpin(frame)
            raise
        self._pool.unpin(frame, dirty=True)
        return old_payload, path

    def delete(self, key: int) -> Tuple[bytes, AccessPath]:
        """Remove ``key``; returns ``(old payload, path)``.

        Unlike the seed tree's historic behaviour, a leaf emptied here is
        unlinked from the chain and freed immediately (with cascading
        removal of empty ancestors and root collapse), so range scans and
        the buffer-pool dump never see dead pages.
        """
        path = AccessPath()
        stack = self._descend_with_stack(key, path)
        frame = stack.pop()
        leaf = frame.node
        slot = _leaf_slot(leaf.entries, key)
        if slot >= len(leaf.entries) or leaf.entries[slot][0] != key:
            self._pool.unpin(frame)
            self._unpin_all(stack)
            raise StorageError(f"delete of missing key {key}")
        _, old_payload = leaf.pop_entry(slot)
        self._pool.mark_dirty(frame)
        self._size -= 1

        if not leaf.entries and stack:
            self._unlink_leaf(leaf)
            self._pool.unpin(frame)
            self._remove_from_ancestors(leaf.page_id, stack)
            self._collapse_root()
        else:
            self._pool.unpin(frame)
            self._unpin_all(stack)
        self._meta_changed()
        return old_payload, path

    def range(
        self, low: Optional[int], high: Optional[int]
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        """Inclusive range scan following the leaf sibling chain."""
        path = AccessPath()
        start_key = low if low is not None else NEG_INF + 1
        frame = self._descend(start_key, path)
        results: List[Tuple[int, bytes]] = []
        while True:
            entries = frame.node.entries
            if (
                entries
                and (low is None or entries[0][0] >= low)
                and (high is None or entries[-1][0] <= high)
            ):
                # The whole leaf lies inside the bounds.
                results.extend(entries)
            else:
                for entry_key, payload in entries:
                    if low is not None and entry_key < low:
                        continue
                    if high is not None and entry_key > high:
                        self._pool.unpin(frame)
                        return results, path
                    results.append((entry_key, payload))
            next_page = frame.node.next_page
            self._pool.unpin(frame)
            if next_page == NO_PAGE:
                return results, path
            frame = self._fetch(next_page, path)

    def scan(self) -> Iterator[Tuple[int, bytes]]:
        """Full in-order iteration without touching the buffer pool.

        Maintenance/forensics path: resident (possibly dirty) frames are
        read in place, absent pages come straight off disk uncached, and
        neither stats nor recency move.
        """
        node = self._pool.read_node(self._file, self._root_id)
        while isinstance(node, InternalNode):
            node = self._pool.read_node(self._file, node.entries[0][1])
        while True:
            yield from node.entries
            if node.next_page == NO_PAGE:
                return
            node = self._pool.read_node(self._file, node.next_page)

    def min_key(self) -> Optional[int]:
        """Smallest live key (``None`` when empty); no buffer-pool touches."""
        for key, _ in self.scan():
            return key
        return None

    # -- split machinery ---------------------------------------------------

    def _split_up(self, stack: List[Frame]) -> None:
        """Split overflowing nodes from leaf upward; stack is fully pinned."""
        frame = stack.pop()
        while frame.node.overflowing:
            node = frame.node
            if isinstance(node, LeafNode):
                moved = node.take_upper_half()
                right_frame = self._pool.new_page(
                    self._file,
                    lambda pid: LeafNode(
                        pid,
                        moved,  # noqa: B023 - consumed before next iteration
                        prev_page=node.page_id,
                        next_page=node.next_page,
                    ),
                )
                if node.next_page != NO_PAGE:
                    try:
                        successor = self._fetch(node.next_page)
                    except BaseException:
                        self._pool.unpin(right_frame)
                        self._pool.unpin(frame)
                        self._unpin_all(stack)
                        raise
                    successor.node.prev_page = right_frame.page_id
                    self._pool.unpin(successor, dirty=True)
                node.next_page = right_frame.page_id
                sep_key = moved[0][0]
            else:
                moved = node.take_upper_half()
                right_frame = self._pool.new_page(
                    self._file,
                    lambda pid: InternalNode(pid, node.level, moved),  # noqa: B023
                )
                sep_key = moved[0][0]
            self._pool.mark_dirty(frame)

            if stack:
                parent_frame = stack.pop()
                parent = parent_frame.node
                slot = parent.child_slot(node.page_id)
                parent.entries.insert(slot + 1, (sep_key, right_frame.page_id))
                self._pool.mark_dirty(parent_frame)
                self._pool.unpin(right_frame)
                self._pool.unpin(frame)
                frame = parent_frame
            else:
                try:
                    root_frame = self._pool.new_page(
                        self._file,
                        lambda pid: InternalNode(
                            pid,
                            node.level + 1,
                            [
                                (NEG_INF, node.page_id),  # noqa: B023
                                (sep_key, right_frame.page_id),  # noqa: B023
                            ],
                        ),
                    )
                except BaseException:
                    self._pool.unpin(right_frame)
                    self._pool.unpin(frame)
                    raise
                self._root_id = root_frame.page_id
                self._pool.unpin(root_frame)
                self._pool.unpin(right_frame)
                self._pool.unpin(frame)
                return
        self._pool.unpin(frame)
        self._unpin_all(stack)

    # -- deletion machinery ------------------------------------------------

    def _unlink_leaf(self, leaf: LeafNode) -> None:
        """Splice an empty leaf out of the doubly-linked sibling chain."""
        if leaf.prev_page != NO_PAGE:
            prev_frame = self._fetch(leaf.prev_page)
            prev_frame.node.next_page = leaf.next_page
            self._pool.unpin(prev_frame, dirty=True)
        if leaf.next_page != NO_PAGE:
            next_frame = self._fetch(leaf.next_page)
            next_frame.node.prev_page = leaf.prev_page
            self._pool.unpin(next_frame, dirty=True)

    def _remove_from_ancestors(self, dead_id: int, stack: List[Frame]) -> None:
        """Drop ``dead_id`` from its parent, cascading through empties.

        Every frame on ``stack`` is pinned and gets released here; the dead
        page (already unpinned) is freed after its parent stops routing to
        it, so a concurrent-looking read can never follow a stale pointer
        into a freed page.
        """
        while stack:
            parent_frame = stack.pop()
            parent = parent_frame.node
            slot = parent.child_slot(dead_id)
            parent.remove_child(dead_id)
            self._pool.mark_dirty(parent_frame)
            self._pool.free_page(self._file, dead_id)
            if parent.entries or not stack:
                new_first = (
                    parent.entries[0][1] if slot == 0 and parent.entries else NO_PAGE
                )
                self._pool.unpin(parent_frame)
                self._unpin_all(stack)
                if new_first != NO_PAGE:
                    self._fix_leftmost_spine(new_first)
                return
            dead_id = parent.page_id
            self._pool.unpin(parent_frame)

    def _collapse_root(self) -> None:
        """An internal root with a single child hands the tree to it."""
        while True:
            node = self._pool.read_node(self._file, self._root_id)
            if isinstance(node, InternalNode) and len(node.entries) == 1:
                old_root = self._root_id
                self._root_id = node.entries[0][1]
                self._pool.free_page(self._file, old_root)
                continue
            break
        self._fix_leftmost_spine(self._root_id)

    def _fix_leftmost_spine(self, page_id: int) -> None:
        """Restore the leftmost-spine invariant below ``page_id``.

        Internal nodes on the leftmost spine must carry the ``NEG_INF``
        separator in slot 0 (descent routes keys below the first real
        separator into the first child). A node that *becomes* leftmost —
        promoted to root, or made the first child after its left sibling was
        unlinked — may still carry the real slot-0 separator it got when
        split off; without this rewrite, keys below that separator route
        into its first subtree and later splits emit out-of-order parent
        separators. Stops once it finds ``NEG_INF``: by induction everything
        below is already leftmost-clean.
        """
        while True:
            frame = self._fetch(page_id)
            node = frame.node
            if isinstance(node, LeafNode):
                self._pool.unpin(frame)
                return
            sep, first_child = node.entries[0]
            if sep == NEG_INF:
                self._pool.unpin(frame)
                return
            node.entries[0] = (NEG_INF, first_child)
            self._pool.unpin(frame, dirty=True)
            page_id = first_child

    # -- bulk load ---------------------------------------------------------

    def bulk_load(self, items: Iterable[Tuple[int, bytes]]) -> int:
        """Build the tree bottom-up from sorted ``(key, payload)`` pairs.

        Pages are written straight to the file at ~90% fill (the pool is
        bypassed, as in a real engine's sorted index build), so loading a
        million rows costs one serialize+write per page instead of a
        root-to-leaf descent per row. The tree must be empty. Returns the
        number of rows loaded.
        """
        if self._size:
            raise StorageError("bulk_load requires an empty tree")
        chunks: List[List[Tuple[int, bytes]]] = []
        current: List[Tuple[int, bytes]] = []
        used = 0
        last_key: Optional[int] = None
        for key, payload in items:
            if last_key is not None and key <= last_key:
                raise StorageError(
                    f"bulk_load keys must be strictly increasing "
                    f"({key} after {last_key})"
                )
            last_key = key
            need = LEAF_ENTRY_OVERHEAD + len(payload)
            if current and used + need > BULK_FILL_BYTES:
                chunks.append(current)
                current = []
                used = 0
            current.append((key, payload))
            used += need
        if current:
            chunks.append(current)
        if not chunks:
            return 0

        old_root = self._root_id
        leaf_ids = [self._file.allocate() for _ in chunks]
        total = 0
        for idx, (page_id, chunk) in enumerate(zip(leaf_ids, chunks)):
            total += len(chunk)
            leaf = LeafNode(
                page_id,
                chunk,
                prev_page=leaf_ids[idx - 1] if idx > 0 else NO_PAGE,
                next_page=leaf_ids[idx + 1] if idx + 1 < len(leaf_ids) else NO_PAGE,
            )
            self._file.write_page(page_id, leaf.serialize())

        per_node = BULK_FILL_BYTES // INTERNAL_ENTRY_SIZE
        children = [
            (chunk[0][0], page_id) for page_id, chunk in zip(leaf_ids, chunks)
        ]
        level = 1
        while len(children) > 1:
            children[0] = (NEG_INF, children[0][1])
            groups = [
                children[i:i + per_node]
                for i in range(0, len(children), per_node)
            ]
            group_ids = [self._file.allocate() for _ in groups]
            for page_id, group in zip(group_ids, groups):
                self._file.write_page(
                    page_id, InternalNode(page_id, level, group).serialize()
                )
            children = [
                (group[0][0], page_id)
                for page_id, group in zip(group_ids, groups)
            ]
            level += 1

        self._root_id = children[0][1]
        self._size = total
        self._pool.free_page(self._file, old_root)
        self._meta_changed()
        return total
