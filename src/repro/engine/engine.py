"""The storage-engine facade.

Glues together tablespaces, B+ trees, the buffer pool, the redo/undo logs,
and the binlog — the full set of InnoDB artifacts the paper's Section 3
forensics consumes. The server layer (:mod:`repro.server`) drives this with
parsed SQL; everything here works in terms of ``(table, key, row bytes)``.
"""

from __future__ import annotations

import enum
import os
import shutil
import tempfile
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..clock import SimClock
from ..errors import ConcurrentTransactionError, EngineError, TransactionError
from ..obs.instrumentation import NO_OP_INSTRUMENTATION, Instrumentation
from ..storage import BTree, BufferPool, Tablespace
from ..storage.btree import AccessPath
from ..storage.paged import BufferPoolManager, PagedTable, PageFile
from ..wal.log_manager import DEFAULT_SEGMENT_BYTES, LogManager
from .binlog import Binlog
from .mvcc import MVCCManager
from .redo_log import DEFAULT_CAPACITY, RedoLog, RedoRecord
from .transaction import Transaction
from .undo_log import UndoLog, UndoRecord


class ChangeOp(enum.Enum):
    """Row-change kinds shared by logs and forensics."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class StorageEngine:
    """An InnoDB-like engine instance.

    Parameters
    ----------
    clock:
        Simulated clock used for binlog timestamps.
    buffer_pool_capacity:
        Resident-page budget of the shared buffer pool.
    redo_capacity / undo_capacity:
        Circular-log byte budgets (the paper's "default size (50 Mb)"
        combined is the default here: 25 MB each).
    binlog_enabled:
        Production deployments enable it; default mirrors MySQL (off).
    btree_fanout:
        Split threshold of the per-table B+ trees.
    instrumentation:
        Observability handle (:mod:`repro.obs`); storage operations and log
        appends emit spans/counters through it. Defaults to the shared
        no-op handle, which keeps the hot paths allocation-free.
    mvcc:
        When ``True`` (the default) the engine runs MVCC: concurrent
        transactions interleave under snapshot isolation with
        first-writer-wins conflicts. When ``False`` the engine keeps the
        seed's single-client semantics but *fails loudly*
        (:class:`~repro.errors.ConcurrentTransactionError`) if a second
        transaction begins before the first finishes — the old silent
        corruption is no longer reachable.
    space_id_base:
        Offset added to tablespace ids; sharded deployments give each
        shard a disjoint space-id range so combined buffer-pool dumps stay
        unambiguous (and leak which shard served each page).
    storage:
        ``"memory"`` (the seed's dict-backed tablespaces, the default) or
        ``"paged"`` — single-file 4 KB-page tablespaces behind the
        frame-based :class:`~repro.storage.paged.BufferPoolManager`
        (:mod:`repro.storage.paged`). Both modes expose the same
        operation surface; the paged mode adds secondary indexes,
        checkpoints, bulk loading, and real on-disk artifacts.
    data_dir:
        Paged mode only: directory holding the ``<table>.ibd`` files. When
        ``None`` a private temporary directory is created and removed when
        the engine is garbage-collected (or :meth:`close`\\ d).
    buffer_pool_policy:
        Paged mode only: frame eviction policy, ``"lru"`` or ``"clock"``.
    wal_segment_bytes:
        Roll threshold for on-disk WAL segments (paged mode writes them
        under ``<data_dir>/wal/``; memory mode keeps them resident).
    wal_sync:
        When ``True`` (default) every group flush ``fsync``\\ s the active
        WAL segment. Crash tests that drive thousands of transactions turn
        this off for speed; the flush boundary semantics are identical.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        buffer_pool_capacity: int = BufferPool.DEFAULT_CAPACITY,
        redo_capacity: int = DEFAULT_CAPACITY,
        undo_capacity: int = DEFAULT_CAPACITY,
        binlog_enabled: bool = False,
        btree_fanout: int = 64,
        instrumentation: Optional[Instrumentation] = None,
        mvcc: bool = True,
        space_id_base: int = 0,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        buffer_pool_policy: str = "lru",
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        wal_sync: bool = True,
    ) -> None:
        if storage not in ("memory", "paged"):
            raise EngineError(
                f"unknown storage mode {storage!r} (expected 'memory' or 'paged')"
            )
        self.clock = clock or SimClock()
        self.obs = instrumentation or NO_OP_INSTRUMENTATION
        self.storage_mode = storage
        self._data_dir: Optional[str] = None
        self._dir_finalizer = None
        if storage == "paged":
            if data_dir is None:
                data_dir = tempfile.mkdtemp(prefix="repro-paged-")
                self._dir_finalizer = weakref.finalize(
                    self, shutil.rmtree, data_dir, True
                )
            else:
                os.makedirs(data_dir, exist_ok=True)
            self._data_dir = data_dir
        self.wal = LogManager(
            wal_dir=(
                os.path.join(self._data_dir, "wal") if storage == "paged" else None
            ),
            redo_capacity=redo_capacity,
            undo_capacity=undo_capacity,
            segment_bytes=wal_segment_bytes,
            sync=wal_sync,
            instrumentation=self.obs,
        )
        self.lsn = self.wal.lsn
        self.redo_log = RedoLog(manager=self.wal)
        self.undo_log = UndoLog(manager=self.wal)
        self.binlog = Binlog(enabled=binlog_enabled)
        if storage == "paged":
            self.buffer_pool = BufferPoolManager(
                buffer_pool_capacity,
                policy=buffer_pool_policy,
                lsn_source=lambda: self.lsn.current,
                log_flusher=self.wal.flush_to,
                instrumentation=self.obs,
            )
        else:
            self.buffer_pool = BufferPool(
                buffer_pool_capacity, instrumentation=self.obs
            )
        #: Set by :func:`repro.wal.recovery.recover_engine` on an engine it
        #: rebuilt; ``None`` on a cleanly started engine.
        self.last_recovery_report = None
        self._crashed = False
        self._btree_fanout = btree_fanout
        self._tables: Dict[str, Tuple] = {}
        self._next_space_id = space_id_base + 1
        self._next_txn_id = 1
        self.mvcc: Optional[MVCCManager] = MVCCManager() if mvcc else None
        #: txn ids begun but not yet committed/rolled back.
        self._active_txn_ids: set = set()

    # -- table management ----------------------------------------------------

    def register_table(self, name: str) -> None:
        """Create the tablespace and clustered index for ``name``.

        In paged mode the tablespace is one ``<name>.ibd`` file under
        ``data_dir``; an existing file is reopened (its header carries the
        index roots), which is how a restarted engine finds its data.
        """
        if name in self._tables:
            raise EngineError(f"table {name!r} already registered")
        if self.storage_mode == "paged":
            path = os.path.join(self._data_dir, f"{name}.ibd")
            page_file = PageFile(path, name, space_id=self._next_space_id)
            self._next_space_id = max(self._next_space_id, page_file.space_id) + 1
            table = PagedTable(self.buffer_pool, page_file)
            self._tables[name] = (page_file, table)
            self.wal.append_table_register(name)
            # DDL is rare: flush so the registration is durable alongside
            # the .ibd file it just created. A crash before any other
            # flush would otherwise leave a tablespace recovery never
            # scans or moves aside — a later re-registration of the same
            # name could resurrect its stale pages.
            self.wal.flush()
            return
        space = Tablespace(self._next_space_id, name)
        self._next_space_id += 1
        tree = BTree(space, max_entries=self._btree_fanout, on_touch=self.buffer_pool.touch)
        self._tables[name] = (space, tree)
        self.wal.append_table_register(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def tablespace(self, name: str):
        """The table's :class:`Tablespace` (memory) or :class:`PageFile`
        (paged); both expose ``space_id``/``name``/``to_bytes()``."""
        return self._lookup(name)[0]

    def btree(self, name: str):
        """The table's :class:`BTree` (memory) or :class:`PagedTable`
        (paged); both expose the same operation surface."""
        return self._lookup(name)[1]

    def _lookup(self, name: str) -> Tuple:
        try:
            return self._tables[name]
        except KeyError:
            raise EngineError(f"unknown table {name!r}") from None

    # -- transactions ----------------------------------------------------------

    def begin(self, txn_id: Optional[int] = None) -> Transaction:
        """Start a transaction.

        ``txn_id`` lets a sharded coordinator impose a globally-unique id;
        plain callers leave it ``None``. Without MVCC a second concurrent
        transaction fails loudly instead of silently corrupting rollback
        state (the seed's unchecked single-client assumption).
        """
        if self.mvcc is None and self._active_txn_ids:
            raise ConcurrentTransactionError(
                f"engine is running without MVCC and transaction(s) "
                f"{sorted(self._active_txn_ids)} are still active; "
                "interleaved transactions would corrupt rollback state"
            )
        if txn_id is None:
            txn_id = self._next_txn_id
        self._next_txn_id = max(self._next_txn_id, txn_id) + 1
        txn = Transaction(txn_id=txn_id, snapshot_lsn=self.lsn.current)
        self.wal.append_begin(txn_id)
        self._active_txn_ids.add(txn.txn_id)
        if self.mvcc is not None:
            self.mvcc.begin(txn)
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit: binlog every statement of a write transaction."""
        txn.mark_committed()
        self._active_txn_ids.discard(txn.txn_id)
        if self.mvcc is not None:
            self.mvcc.commit(txn, commit_lsn=self.lsn.current)
        if txn.is_write and self.binlog.enabled:
            timestamp = self.clock.timestamp()
            for statement in txn.statements or ["<unlogged statement>"]:
                self.binlog.log(timestamp, txn.txn_id, statement, self.lsn.current)
        self.wal.append_commit(txn.txn_id)
        if txn.is_write:
            # Group commit: the commit record and everything before it
            # become durable here — the transaction's durability point.
            self.wal.flush()

    def rollback(self, txn: Transaction) -> None:
        """Undo every change in reverse order using the before-images."""
        for change in reversed(txn.changes):
            _, tree = self._lookup(change.table)
            # Compensation record first (WAL discipline: log before apply);
            # replay then repeats history — forward changes *and* their
            # undo — so aborted transactions need no work at restart.
            if change.op == ChangeOp.INSERT.value:
                self.wal.append_clr(
                    RedoRecord(txn.txn_id, change.table, "delete", change.key, b"")
                )
                tree.delete(change.key)
            elif change.op == ChangeOp.UPDATE.value:
                self.wal.append_clr(
                    RedoRecord(
                        txn.txn_id,
                        change.table,
                        "update",
                        change.key,
                        change.before_image,
                    )
                )
                tree.update(change.key, change.before_image)
            elif change.op == ChangeOp.DELETE.value:
                self.wal.append_clr(
                    RedoRecord(
                        txn.txn_id,
                        change.table,
                        "insert",
                        change.key,
                        change.before_image,
                    )
                )
                tree.insert(change.key, change.before_image)
            else:  # pragma: no cover - ops are engine-generated
                raise TransactionError(f"unknown change op {change.op!r}")
        self.wal.append_abort(txn.txn_id)
        txn.mark_rolled_back()
        self._active_txn_ids.discard(txn.txn_id)
        if self.mvcc is not None:
            self.mvcc.rollback(txn)

    def log_ddl(self, timestamp: int, statement: str) -> None:
        """Binlog a DDL statement (no row changes, no open transaction).

        DDL replicates like any statement but must not register an active
        transaction — a CREATE TABLE issued while another session's
        transaction is open would otherwise trip the non-MVCC loud-failure
        path.
        """
        if not self.binlog.enabled:
            return
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self.binlog.log(timestamp, txn_id, statement, self.lsn.current)

    # -- writes ----------------------------------------------------------------

    def insert(self, txn: Transaction, table: str, key: int, row: bytes) -> AccessPath:
        """Insert a row, logging redo (after) and undo (empty before)."""
        _, tree = self._lookup(table)
        if self.mvcc is not None:
            self.mvcc.check_write(txn, table, key)
        with self.obs.span("storage.insert", table=table):
            path = tree.insert(key, row)
        self.obs.count("engine.rows_written", label=table)
        self.undo_log.log(
            UndoRecord(txn.txn_id, table, ChangeOp.INSERT.value, key, b"")
        )
        txn.note_lsn(
            self.redo_log.log(
                RedoRecord(txn.txn_id, table, ChangeOp.INSERT.value, key, row)
            )
        )
        if self.mvcc is not None:
            self.mvcc.record_write(
                txn, table, key, ChangeOp.INSERT.value, b"", self.lsn.current
            )
        txn.record_change(table, ChangeOp.INSERT.value, key, b"", row)
        return path

    def update(self, txn: Transaction, table: str, key: int, row: bytes) -> AccessPath:
        """Update a row, logging before- and after-images."""
        _, tree = self._lookup(table)
        if self.mvcc is not None:
            self.mvcc.check_write(txn, table, key)
        with self.obs.span("storage.update", table=table):
            before, path = tree.update(key, row)
        self.obs.count("engine.rows_written", label=table)
        self.undo_log.log(
            UndoRecord(txn.txn_id, table, ChangeOp.UPDATE.value, key, before)
        )
        txn.note_lsn(
            self.redo_log.log(
                RedoRecord(txn.txn_id, table, ChangeOp.UPDATE.value, key, row)
            )
        )
        if self.mvcc is not None:
            self.mvcc.record_write(
                txn, table, key, ChangeOp.UPDATE.value, before, self.lsn.current
            )
        txn.record_change(table, ChangeOp.UPDATE.value, key, before, row)
        return path

    def delete(self, txn: Transaction, table: str, key: int) -> AccessPath:
        """Delete a row, logging its before-image."""
        _, tree = self._lookup(table)
        if self.mvcc is not None:
            self.mvcc.check_write(txn, table, key)
        with self.obs.span("storage.delete", table=table):
            before, path = tree.delete(key)
        self.obs.count("engine.rows_written", label=table)
        self.undo_log.log(
            UndoRecord(txn.txn_id, table, ChangeOp.DELETE.value, key, before)
        )
        txn.note_lsn(
            self.redo_log.log(
                RedoRecord(txn.txn_id, table, ChangeOp.DELETE.value, key, b"")
            )
        )
        if self.mvcc is not None:
            self.mvcc.record_write(
                txn, table, key, ChangeOp.DELETE.value, before, self.lsn.current
            )
        txn.record_change(table, ChangeOp.DELETE.value, key, before, b"")
        return path

    # -- reads --------------------------------------------------------------------

    def get(
        self, table: str, key: int, txn: Optional[Transaction] = None
    ) -> Tuple[Optional[bytes], AccessPath]:
        """Point lookup through the clustered index (touches the pool).

        Under MVCC the tree's current value is rolled back to ``txn``'s
        snapshot (``txn=None`` reads latest committed).
        """
        _, tree = self._lookup(table)
        with self.obs.span("storage.get", table=table):
            value, path = tree.get(key)
        self.obs.count("engine.rows_read", label=table)
        if self.mvcc is not None:
            value = self.mvcc.read_row(table, key, value, txn)
        return value, path

    def range(
        self,
        table: str,
        low: Optional[int],
        high: Optional[int],
        txn: Optional[Transaction] = None,
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        """Range scan through the clustered index (touches the pool)."""
        _, tree = self._lookup(table)
        with self.obs.span("storage.range", table=table):
            entries, path = tree.range(low, high)
        self.obs.count("engine.rows_read", n=len(entries), label=table)
        if self.mvcc is not None:
            entries = self._snapshot_entries(table, low, high, entries, txn)
        return entries, path

    def scan(self, table: str) -> List[Tuple[int, bytes]]:
        """Full scan via the maintenance path (no buffer-pool touches).

        Deliberately *not* snapshot-filtered: forensics and maintenance see
        the raw tree, uncommitted writes included — that is the leakage.
        """
        _, tree = self._lookup(table)
        return list(tree.scan())

    def full_scan(
        self, table: str, txn: Optional[Transaction] = None
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        """Full scan as query execution does it: touches every page."""
        _, tree = self._lookup(table)
        with self.obs.span("storage.scan", table=table):
            entries, path = tree.range(None, None)
        self.obs.count("engine.rows_read", n=len(entries), label=table)
        if self.mvcc is not None:
            entries = self._snapshot_entries(table, None, None, entries, txn)
        return entries, path

    def _snapshot_entries(
        self,
        table: str,
        low: Optional[int],
        high: Optional[int],
        entries: List[Tuple[int, bytes]],
        txn: Optional[Transaction],
    ) -> List[Tuple[int, bytes]]:
        """Roll a scan's entries back to the reader's snapshot.

        Only rows with a version chain can differ from the tree, so a table
        without chains returns ``entries`` untouched and otherwise only the
        chained keys are rolled back.
        """
        assert self.mvcc is not None
        chained = self.mvcc.chained_keys(table)
        if not chained:
            return entries
        out: List[Tuple[int, bytes]] = []
        present = set()
        for key, value in entries:
            if key in chained:
                present.add(key)
                value = self.mvcc.read_row(table, key, value, txn)
                if value is None:
                    continue
            out.append((key, value))
        extras = self.mvcc.visible_extra_rows(table, low, high, present, txn)
        if extras:
            out.extend(extras)
            out.sort(key=lambda kv: kv[0])
        return out

    # -- paged-storage extras --------------------------------------------------

    def _paged_table(self, name: str) -> PagedTable:
        if self.storage_mode != "paged":
            raise EngineError(
                "operation requires storage='paged' "
                f"(engine is running storage={self.storage_mode!r})"
            )
        return self._lookup(name)[1]

    def checkpoint(self) -> int:
        """Fuzzy checkpoint: log the dirty-page table + active txns, force
        the WAL, then (paged mode) flush frames and stamp file headers.

        In memory mode the tablespaces are always "durable", so only the
        checkpoint record is emitted and the current LSN returned.
        """
        active = tuple(sorted(self._active_txn_ids))
        if self.storage_mode != "paged":
            self.wal.append_checkpoint((), active)
            self.wal.flush()
            return self.lsn.current
        self.wal.append_checkpoint(self.buffer_pool.dirty_page_table(), active)
        self.wal.flush()
        return self.buffer_pool.checkpoint()

    def close(self) -> None:
        """Checkpoint and close every page file; remove a private tempdir."""
        if self._crashed:
            return
        self.checkpoint()
        self.wal.close()
        if self.storage_mode == "paged":
            for page_file, _ in self._tables.values():
                page_file.close()
        if self._dir_finalizer is not None:
            self._dir_finalizer()

    def simulate_crash(self) -> None:
        """Kill the engine at this instant — the failure-injection hook.

        Staged (unflushed) WAL frames vanish, dirty frames never reach
        disk, and tablespace headers stay at their last checkpoint; the
        data directory is left exactly as a ``kill -9`` would, ready for
        :func:`repro.wal.recovery.recover_engine`. A private tempdir's
        cleanup finalizer is detached so the "disk" survives this object.
        """
        self._crashed = True
        self.wal.crash()
        if self.storage_mode == "paged":
            for page_file, _ in self._tables.values():
                page_file.crash_close()
        if self._dir_finalizer is not None:
            self._dir_finalizer.detach()
            self._dir_finalizer = None

    def wal_segments(self) -> Dict[str, bytes]:
        """Flushed WAL segment bytes by name — the disk-snapshot surface."""
        return self.wal.segments()

    def dirty_page_table(self):
        """The pool's current dirty-page table (paged; empty otherwise)."""
        if self.storage_mode != "paged":
            return ()
        return self.buffer_pool.dirty_page_table()

    @property
    def data_dir(self) -> Optional[str]:
        return self._data_dir

    def bulk_load(self, table: str, items: Iterable[Tuple[int, bytes]]) -> int:
        """Sorted bottom-up load into an empty paged table.

        A loader fast path, not a transaction: redo/undo/binlog/MVCC are
        deliberately bypassed (as in a real engine's sorted index build),
        so the logs carry no trace of the loaded rows. Returns the row
        count loaded.
        """
        with self.obs.span("storage.bulk_load", table=table):
            return self._paged_table(table).bulk_load(items)

    def register_secondary_index(
        self,
        table: str,
        index_name: str,
        extractor: Callable[[bytes], Optional[int]],
    ) -> None:
        """Create (or reattach) a secondary index on a paged table."""
        self._paged_table(table).create_secondary_index(index_name, extractor)

    def secondary_lookup(
        self, table: str, index_name: str, value: int
    ) -> Tuple[List[int], AccessPath]:
        """Primary keys matching ``value`` via a secondary index (paged)."""
        return self._paged_table(table).secondary_lookup(index_name, value)

    def free_list_info(self) -> Dict[str, List[int]]:
        """Freed-page chains per table (paged mode; empty otherwise)."""
        if self.storage_mode != "paged":
            return {}
        return {
            name: self._tables[name][0].free_list() for name in self.table_names
        }

    def checkpoint_lsns(self) -> Dict[str, int]:
        """Per-table header checkpoint LSNs (paged mode; empty otherwise)."""
        if self.storage_mode != "paged":
            return {}
        return {
            name: self._tables[name][0].checkpoint_lsn
            for name in self.table_names
        }

    # -- introspection / artifacts --------------------------------------------

    def tablespace_images(self) -> Dict[str, bytes]:
        """Serialized bytes of every tablespace, keyed by table name.

        Polymorphic with :class:`~repro.server.sharding.ShardedEngine`, which
        returns per-shard-qualified names; snapshot capture calls this
        instead of walking ``table_names`` so both engine shapes work.
        """
        return {
            name: self.tablespace(name).to_bytes() for name in self.table_names
        }

    def mvcc_chain_stats(self):
        """Version-chain summaries (empty tuple when MVCC is off)."""
        if self.mvcc is None:
            return ()
        return self.mvcc.chain_stats()
