"""Decoded B+-tree node representations for 4 KB pages.

Frames in the paged buffer pool hold these decoded nodes; serialization to
the raw page image happens on write-back only (and decoding on fetch), so
the hot path never re-parses a resident page.

Entry encodings inside the page payload area:

* leaf entry — ``i64 key (LE) + u32 payload_len + payload`` (12-byte
  fixed overhead per entry);
* internal entry — ``i64 separator (LE) + u32 child_page_id`` (12 bytes).

Both node kinds track their serialized byte usage incrementally so split
decisions are made against the real 4 KB budget, not an entry count.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from math import inf
from typing import List, Optional, Tuple, Union

from ...errors import PageError, StorageError
from .format import (
    NO_PAGE,
    PAGE_CAPACITY,
    PageImage,
    PagedPageType,
    pack_page,
)

#: Fixed serialized overhead of one leaf entry (key + length prefix).
LEAF_ENTRY_OVERHEAD = 12

#: Fixed serialized size of one internal entry.
INTERNAL_ENTRY_SIZE = 12

#: Separator for the leftmost child of an internal node (smaller than any
#: encodable key; mirrors :data:`repro.storage.btree._NEG_INF`).
NEG_INF = -(1 << 63)

_LEAF_ENTRY = struct.Struct("<qI")
_INTERNAL_ENTRY = struct.Struct("<qI")

#: Largest row payload that fits a leaf page.
MAX_LEAF_PAYLOAD = PAGE_CAPACITY - LEAF_ENTRY_OVERHEAD


class LeafNode:
    """A decoded leaf page: sorted ``(key, payload)`` rows plus the chain."""

    __slots__ = ("page_id", "entries", "prev_page", "next_page", "_used")

    level = 0
    page_type = PagedPageType.INDEX_LEAF

    def __init__(
        self,
        page_id: int,
        entries: List[Tuple[int, bytes]] = None,
        prev_page: int = NO_PAGE,
        next_page: int = NO_PAGE,
        used_bytes: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.entries: List[Tuple[int, bytes]] = entries if entries is not None else []
        self.prev_page = prev_page
        self.next_page = next_page
        # ``decode`` knows the byte usage from its final offset.
        if used_bytes is None:
            used_bytes = sum(LEAF_ENTRY_OVERHEAD + len(p) for _, p in self.entries)
        self._used = used_bytes

    # -- capacity ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def overflowing(self) -> bool:
        return self._used > PAGE_CAPACITY

    def insert_entry(self, slot: int, key: int, payload: bytes) -> None:
        if len(payload) > MAX_LEAF_PAYLOAD:
            raise StorageError(
                f"row of {len(payload)} bytes cannot fit a "
                f"{PAGE_CAPACITY}-byte page"
            )
        self.entries.insert(slot, (key, payload))
        self._used += LEAF_ENTRY_OVERHEAD + len(payload)

    def replace_entry(self, slot: int, key: int, payload: bytes) -> bytes:
        if len(payload) > MAX_LEAF_PAYLOAD:
            raise StorageError(
                f"row of {len(payload)} bytes cannot fit a "
                f"{PAGE_CAPACITY}-byte page"
            )
        _, old = self.entries[slot]
        self.entries[slot] = (key, payload)
        self._used += len(payload) - len(old)
        return old

    def pop_entry(self, slot: int) -> Tuple[int, bytes]:
        key, payload = self.entries.pop(slot)
        self._used -= LEAF_ENTRY_OVERHEAD + len(payload)
        return key, payload

    def take_upper_half(self) -> List[Tuple[int, bytes]]:
        """Remove and return the upper half of the entries (split support)."""
        mid = len(self.entries) // 2
        moved = self.entries[mid:]
        del self.entries[mid:]
        self._used -= sum(LEAF_ENTRY_OVERHEAD + len(p) for _, p in moved)
        return moved

    # -- serialization -----------------------------------------------------

    def serialize(self, page_lsn: int = 0) -> bytes:
        parts = []
        for key, payload in self.entries:
            parts.append(_LEAF_ENTRY.pack(key, len(payload)))
            parts.append(payload)
        return pack_page(
            self.page_id,
            PagedPageType.INDEX_LEAF,
            0,
            page_lsn,
            self.prev_page,
            self.next_page,
            len(self.entries),
            b"".join(parts),
        )

    @classmethod
    def decode(cls, image: PageImage) -> "LeafNode":
        if image.page_type is not PagedPageType.INDEX_LEAF:
            raise PageError(
                f"page {image.page_id} is {image.page_type.name}, not a leaf"
            )
        # One pass with explicit bounds checks; entries slice a ``bytes``
        # payload, so every stored payload is ``bytes``.
        payload = image.payload
        if type(payload) is not bytes:
            payload = bytes(payload)
        size = len(payload)
        unpack = _LEAF_ENTRY.unpack_from
        entries: List[Tuple[int, bytes]] = []
        append = entries.append
        offset = 0
        for _ in range(image.n_entries):
            start = offset + LEAF_ENTRY_OVERHEAD
            if start > size:
                raise PageError(f"truncated leaf entry on page {image.page_id}")
            key, length = unpack(payload, offset)
            offset = start + length
            if offset > size:
                raise PageError(
                    f"leaf entry on page {image.page_id} overruns the page"
                )
            append((key, payload[start:offset]))
        return cls(
            image.page_id,
            entries,
            prev_page=image.prev_page,
            next_page=image.next_page,
            used_bytes=offset,
        )


class InternalNode:
    """A decoded internal page: sorted ``(separator, child_page_id)`` rows."""

    __slots__ = ("page_id", "level", "entries")

    page_type = PagedPageType.INDEX_INTERNAL

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: List[Tuple[int, int]] = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: List[Tuple[int, int]] = entries if entries is not None else []

    @property
    def used_bytes(self) -> int:
        return len(self.entries) * INTERNAL_ENTRY_SIZE

    @property
    def overflowing(self) -> bool:
        return self.used_bytes > PAGE_CAPACITY

    def take_upper_half(self) -> List[Tuple[int, int]]:
        mid = len(self.entries) // 2
        moved = self.entries[mid:]
        del self.entries[mid:]
        return moved

    def route(self, key: int) -> int:
        """The child page that covers ``key`` (last separator ``<= key``;
        the first child when ``key`` is below every separator)."""
        entries = self.entries
        # (key, inf) sorts after every (separator <= key, child) entry; no
        # ``key=`` argument, which bisect only takes from Python 3.10.
        slot = bisect_right(entries, (key, inf))
        return entries[slot - 1 if slot else 0][1]

    def child_slot(self, child_page_id: int) -> int:
        for slot, (_, child) in enumerate(self.entries):
            if child == child_page_id:
                return slot
        raise StorageError(
            f"internal page {self.page_id} has no entry for child "
            f"{child_page_id}"
        )

    def remove_child(self, child_page_id: int) -> None:
        """Drop the entry routing to ``child_page_id`` (empty-node unlink).

        When the removed entry was the leftmost, the new first entry takes
        over the ``NEG_INF`` separator so the node still covers the full
        key range of its subtree.
        """
        slot = self.child_slot(child_page_id)
        del self.entries[slot]
        if slot == 0 and self.entries:
            self.entries[0] = (NEG_INF, self.entries[0][1])

    # -- serialization -----------------------------------------------------

    def serialize(self, page_lsn: int = 0) -> bytes:
        payload = b"".join(
            _INTERNAL_ENTRY.pack(sep, child) for sep, child in self.entries
        )
        return pack_page(
            self.page_id,
            PagedPageType.INDEX_INTERNAL,
            self.level,
            page_lsn,
            NO_PAGE,
            NO_PAGE,
            len(self.entries),
            payload,
        )

    @classmethod
    def decode(cls, image: PageImage) -> "InternalNode":
        if image.page_type is not PagedPageType.INDEX_INTERNAL:
            raise PageError(
                f"page {image.page_id} is {image.page_type.name}, "
                "not an internal node"
            )
        entries: List[Tuple[int, int]] = []
        offset = 0
        for _ in range(image.n_entries):
            try:
                sep, child = _INTERNAL_ENTRY.unpack_from(image.payload, offset)
            except struct.error:
                raise PageError(
                    f"truncated internal entry on page {image.page_id}"
                ) from None
            entries.append((sep, child))
            offset += INTERNAL_ENTRY_SIZE
        return cls(image.page_id, image.level, entries)


Node = Union[LeafNode, InternalNode]


def decode_node(image: PageImage) -> Node:
    """Decode a tree page image into the matching node class."""
    if image.page_type is PagedPageType.INDEX_LEAF:
        return LeafNode.decode(image)
    if image.page_type is PagedPageType.INDEX_INTERNAL:
        return InternalNode.decode(image)
    raise PageError(
        f"page {image.page_id} ({image.page_type.name}) is not a B+-tree page"
    )
