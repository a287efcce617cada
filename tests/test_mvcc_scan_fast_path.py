"""Snapshot scans roll back only the rows that carry a version chain.

``StorageEngine._snapshot_entries`` returns a scan's entries untouched when
the table has no chains, and otherwise calls ``read_row`` for the chained
keys only. These tests check that the result still equals the reader's
snapshot, against both a hand-written expectation and the earlier
implementation (``read_row`` on every entry), kept here as a reference.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.engine.mvcc import MVCCManager
from repro.errors import WriteConflictError

STORAGE_MODES = ("memory", "paged")


def value_of(key):
    return f"v{key}".encode()


def make_engine(storage, rows=10):
    engine = StorageEngine(storage=storage, wal_sync=False)
    engine.register_table("t")
    setup = engine.begin()
    for key in range(rows):
        engine.insert(setup, "t", key, value_of(key))
    engine.commit(setup)
    return engine


def reference_snapshot(engine, low, high, txn):
    """The earlier ``_snapshot_entries``: every entry through ``read_row``."""
    mvcc = engine.mvcc
    entries, _ = engine.btree("t").range(low, high)
    out, present = [], set()
    for key, value in entries:
        present.add(key)
        visible = mvcc.read_row("t", key, value, txn)
        if visible is not None:
            out.append((key, visible))
    extras = mvcc.visible_extra_rows("t", low, high, present, txn)
    return sorted(out + extras)


@pytest.fixture
def read_row_calls(monkeypatch):
    calls = []
    original = MVCCManager.read_row

    def counting(self, table, key, current, txn=None):
        calls.append(key)
        return original(self, table, key, current, txn)

    monkeypatch.setattr(MVCCManager, "read_row", counting)
    return calls


@pytest.mark.parametrize("storage", STORAGE_MODES)
class TestSnapshotUnderConcurrentWriters:
    def test_scan_and_range_keep_the_readers_snapshot(self, storage):
        engine = make_engine(storage)
        reader = engine.begin()
        updater, deleter, inserter = engine.begin(), engine.begin(), engine.begin()
        engine.update(updater, "t", 2, b"new2")
        engine.delete(deleter, "t", 3)
        engine.delete(deleter, "t", 7)
        engine.insert(inserter, "t", 42, b"new42")
        # A delete that commits after the reader's snapshot is still
        # invisible to the reader.
        late = engine.begin()
        engine.delete(late, "t", 5)
        engine.commit(late)

        before = [(k, value_of(k)) for k in range(10)]
        assert engine.full_scan("t", txn=reader)[0] == before
        assert engine.range("t", 2, 7, txn=reader)[0] == before[2:8]
        assert engine.range("t", None, 3, txn=reader)[0] == before[:4]
        # Autocommit readers see the latest committed state: only the
        # committed delete of row 5 shows.
        latest = [kv for kv in before if kv[0] != 5]
        assert engine.full_scan("t")[0] == latest
        # Each writer sees its own changes on top of its snapshot.
        deleted = engine.full_scan("t", txn=deleter)[0]
        assert [k for k, _ in deleted] == [0, 1, 2, 4, 5, 6, 8, 9]
        assert (2, b"new2") in engine.full_scan("t", txn=updater)[0]
        assert engine.range("t", 40, None, txn=inserter)[0] == [(42, b"new42")]

    def test_matches_the_per_entry_reference(self, storage):
        engine = make_engine(storage)
        reader = engine.begin()
        writer = engine.begin()
        engine.update(writer, "t", 1, b"w1")
        engine.delete(writer, "t", 8)
        for txn in (reader, writer, None):
            for low, high in ((None, None), (0, 4), (5, None), (8, 8)):
                got = engine.range("t", low, high, txn=txn)[0]
                assert got == reference_snapshot(engine, low, high, txn)


@pytest.mark.parametrize("storage", STORAGE_MODES)
class TestReadRowCalls:
    def test_no_chains_no_read_row(self, storage, read_row_calls):
        engine = make_engine(storage)
        assert engine.mvcc.chained_keys("t") == set()
        reader = engine.begin()
        engine.full_scan("t", txn=reader)
        engine.range("t", 2, 6)
        assert read_row_calls == []

    def test_only_chained_keys_are_rolled_back(self, storage, read_row_calls):
        engine = make_engine(storage)
        writer = engine.begin()
        engine.update(writer, "t", 3, b"w3")
        engine.update(writer, "t", 6, b"w6")
        assert set(engine.mvcc.chained_keys("t")) == {3, 6}
        entries, _ = engine.full_scan("t")
        assert entries == [(k, value_of(k)) for k in range(10)]
        assert sorted(read_row_calls) == [3, 6]
        del read_row_calls[:]
        engine.range("t", 4, 9)
        assert read_row_calls == [6]

    def test_chains_vanish_after_commit(self, storage, read_row_calls):
        engine = make_engine(storage)
        writer = engine.begin()
        engine.update(writer, "t", 3, b"w3")
        engine.commit(writer)
        assert not engine.mvcc.chained_keys("t")
        assert engine.full_scan("t")[0][3] == (3, b"w3")
        assert read_row_calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_interleavings_match_the_reference(seed):
    rng = random.Random(seed)
    engine = make_engine("memory", rows=12)
    open_txns = []
    for _ in range(rng.randint(1, 14)):
        action = rng.random()
        if action < 0.2 or not open_txns:
            open_txns.append(engine.begin())
            continue
        txn = rng.choice(open_txns)
        if action < 0.3:
            open_txns.remove(txn)
            (engine.commit if rng.random() < 0.6 else engine.rollback)(txn)
            continue
        key = rng.randrange(16)
        in_tree = any(k == key for k, _ in engine.scan("t"))
        try:
            if in_tree and action < 0.65:
                engine.update(txn, "t", key, f"u{rng.randrange(99)}".encode())
            elif in_tree:
                engine.delete(txn, "t", key)
            else:
                engine.insert(txn, "t", key, f"i{rng.randrange(99)}".encode())
        except WriteConflictError:
            pass  # first-writer-wins rejects before touching the tree
    for txn in [None, *open_txns]:
        for low, high in ((None, None), (3, 9), (None, 5), (10, None)):
            got = engine.range("t", low, high, txn=txn)[0]
            assert got == reference_snapshot(engine, low, high, txn)
