"""The MySQL-like server facade.

``MySQLServer.execute`` runs one statement end-to-end and — deliberately —
leaves behind every artifact the paper catalogs:

* statement text copied into the session's **net buffer** and **mem_root
  arena** (plus lexer/parser/executor string copies) — Section 5;
* **redo/undo** byte-level change records and **binlog** events for writes —
  Section 3;
* **general** / **slow** query log entries — Section 3;
* **performance_schema** current/history/digest rows and
  **information_schema.processlist** visibility — Section 4;
* **buffer pool** page touches along B+-tree access paths — Section 3;
* **query cache** and **adaptive hash index** state — Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..clock import SimClock
from ..engine import StorageEngine
from ..engine.query_logs import GeneralQueryLog, QueryLogEntry, SlowQueryLog
from ..errors import (
    CatalogError,
    DuplicateKeyError,
    LexerError,
    ServerError,
    StorageError,
)
from ..memory import SimulatedHeap
from ..obs import Instrumentation
from ..sql import parse
from ..sql.digest import digest as compute_digest
from ..sql.ast import (
    BeginTxn,
    CommitTxn,
    CreateTable,
    Delete,
    Insert,
    Literal,
    RollbackTxn,
    Select,
    Update,
)
from ..sql.lexer import tokenize
from ..sql.shape import ShapeMemo, token_spill
from ..sql.planner import PlanKind, plan_select
from ..storage import BufferPool, encode_row
from ..storage.buffer_pool import BufferPoolDump
from .adaptive_hash import AdaptiveHashIndex
from .catalog import Catalog, TableSchema
from .executor import (
    aggregate_grouped,
    aggregate_rows,
    filter_rows,
    project,
    result_columns,
    validate_select,
    where_matches,
)
from .information_schema import InformationSchema
from .performance_schema import DEFAULT_HISTORY_SIZE, PerformanceSchema
from .query_cache import QueryCache
from .session import Session

Row = Tuple[Literal, ...]


@dataclass(frozen=True)
class ServerConfig:
    """Tunable server configuration (defaults mirror production MySQL).

    ``binlog_enabled`` defaults ``True`` because the paper's threat analysis
    targets production servers, where the binlog "will be present on the
    disk" (Section 3); flip it off to model a fresh install.
    """

    binlog_enabled: bool = True
    general_log_enabled: bool = False
    slow_log_enabled: bool = True
    long_query_time: float = 1.0
    query_cache_enabled: bool = False
    query_cache_size: int = 1024
    perf_schema_enabled: bool = True
    perf_schema_history_size: int = DEFAULT_HISTORY_SIZE
    buffer_pool_capacity: int = BufferPool.DEFAULT_CAPACITY
    redo_capacity: int = 25 * 1000 * 1000
    undo_capacity: int = 25 * 1000 * 1000
    btree_fanout: int = 64
    secure_delete: bool = False
    ahi_enabled: bool = True
    ahi_threshold: int = 16
    base_cost_seconds: float = 1e-4
    row_cost_seconds: float = 1e-6
    obs_enabled: bool = False
    obs_trace_capacity: int = 512
    #: Number of hash shards; 1 = the classic single engine.
    num_shards: int = 1
    #: MVCC on the engine(s); off restores the single-client engine, which
    #: now fails loudly (ConcurrentTransactionError) on interleaving.
    mvcc_enabled: bool = True
    #: Storage backend: "memory" (seed dict-backed tablespaces) or "paged"
    #: (single-file 4 KB-page tablespaces behind the frame-based pool).
    storage: str = "memory"
    #: Paged mode: directory for the .ibd files (None = private tempdir).
    data_dir: Optional[str] = None
    #: Paged mode: frame eviction policy, "lru" or "clock".
    buffer_pool_policy: str = "lru"
    #: WAL segment roll threshold (None = engine default, 1 MiB).
    wal_segment_bytes: Optional[int] = None
    #: fsync the active WAL segment on every group flush.
    wal_sync: bool = True


@dataclass(frozen=True)
class QueryResult:
    """What the client gets back from one statement."""

    statement: str
    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]
    rows_examined: int
    rows_affected: int
    duration: float
    from_cache: bool = False

    @property
    def rows_sent(self) -> int:
        return len(self.rows)


class MySQLServer:
    """A single simulated DBMS instance."""

    def __init__(
        self, config: Optional[ServerConfig] = None, clock: Optional[SimClock] = None
    ) -> None:
        self.config = config or ServerConfig()
        self.clock = clock or SimClock()
        self.heap = SimulatedHeap(secure_delete=self.config.secure_delete)
        # Observability: spans/metrics for every statement when enabled.
        # The trace ring allocates from the server heap, so span records
        # (and their eviction residue) are part of any memory dump.
        self.obs = Instrumentation(
            enabled=self.config.obs_enabled,
            clock=self.clock,
            heap=self.heap,
            trace_capacity=self.config.obs_trace_capacity,
        )
        engine_wal_kwargs = {"wal_sync": self.config.wal_sync}
        if self.config.wal_segment_bytes is not None:
            engine_wal_kwargs["wal_segment_bytes"] = self.config.wal_segment_bytes
        if self.config.num_shards > 1:
            from .sharding import ShardedEngine

            self.engine = ShardedEngine(
                num_shards=self.config.num_shards,
                clock=self.clock,
                buffer_pool_capacity=self.config.buffer_pool_capacity,
                redo_capacity=self.config.redo_capacity,
                undo_capacity=self.config.undo_capacity,
                binlog_enabled=self.config.binlog_enabled,
                btree_fanout=self.config.btree_fanout,
                instrumentation=self.obs,
                mvcc=self.config.mvcc_enabled,
                storage=self.config.storage,
                data_dir=self.config.data_dir,
                buffer_pool_policy=self.config.buffer_pool_policy,
                **engine_wal_kwargs,
            )
        else:
            self.engine = StorageEngine(
                clock=self.clock,
                buffer_pool_capacity=self.config.buffer_pool_capacity,
                redo_capacity=self.config.redo_capacity,
                undo_capacity=self.config.undo_capacity,
                binlog_enabled=self.config.binlog_enabled,
                btree_fanout=self.config.btree_fanout,
                instrumentation=self.obs,
                mvcc=self.config.mvcc_enabled,
                storage=self.config.storage,
                data_dir=self.config.data_dir,
                buffer_pool_policy=self.config.buffer_pool_policy,
                **engine_wal_kwargs,
            )
        self.catalog = Catalog()
        self.general_log = GeneralQueryLog(enabled=self.config.general_log_enabled)
        self.slow_log = SlowQueryLog(
            enabled=self.config.slow_log_enabled,
            long_query_time=self.config.long_query_time,
        )
        self.query_cache = QueryCache(
            self.heap,
            enabled=self.config.query_cache_enabled,
            max_entries=self.config.query_cache_size,
        )
        self.perf_schema = PerformanceSchema(
            self.heap,
            history_size=self.config.perf_schema_history_size,
            enabled=self.config.perf_schema_enabled,
        )
        self.info_schema = InformationSchema()
        #: Parse/digest/spill work memoized per statement shape; simulator
        #: bookkeeping outside the simulated heap, read by no snapshot.
        self.shapes = ShapeMemo()
        self.adaptive_hash = AdaptiveHashIndex(
            enabled=self.config.ahi_enabled,
            promotion_threshold=self.config.ahi_threshold,
        )
        self._sessions: Dict[int, Session] = {}
        self._udfs: Dict[str, object] = {}
        self._next_session_id = 1
        self._buffer_pool_dump: Optional[BufferPoolDump] = None
        #: Attached session scheduler (set by ServerFrontend); its queue
        #: telemetry becomes the ``scheduler_queue`` snapshot artifact.
        self.frontend = None

    def attach_frontend(self, frontend) -> None:
        """Register the connection front end serving this server."""
        self.frontend = frontend

    # -- connections -----------------------------------------------------------

    def register_udf(self, name: str, fn) -> None:
        """Install a server-side UDF predicate (CryptDB-style extension)."""
        if not name or not name.isidentifier():
            raise ServerError(f"bad UDF name {name!r}")
        self._udfs[name.lower()] = fn

    def connect(self, user: str = "app") -> Session:
        """Open a client connection."""
        session = Session(self._next_session_id, user, self.heap)
        session.connected_at = self.clock.timestamp()
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self.info_schema.register_session(session)
        return session

    def disconnect(self, session: Session) -> None:
        """Close a client connection (buffers freed, not zeroed).

        An open transaction is rolled back first — MySQL semantics: a
        dropped connection implicitly aborts its transaction. Leaving it
        live would hold MVCC versions and undo records for a session that
        can never commit.
        """
        if session.active_txn is not None:
            self.engine.rollback(session.active_txn)
            session.active_txn = None
        session.close()
        self.info_schema.unregister_session(session.session_id)
        self._sessions.pop(session.session_id, None)

    @property
    def sessions(self) -> List[Session]:
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    # -- statement execution -------------------------------------------------------

    def execute(self, session: Session, sql: str) -> QueryResult:
        """Run one SQL statement on ``session``."""
        timestamp = self.clock.timestamp()
        # Lexed exactly once; parse, digest and spill all reuse the tokens
        # and, when the statement's shape parses, its memoized shape.
        tokens = shape = lex_error = None
        try:
            tokens = tokenize(sql)
        except LexerError as exc:
            lex_error = exc  # surfaces where parse errors do, below
        else:
            shape = self.shapes.lookup(sql, tokens)
        session.begin_statement(
            sql, timestamp, self._spill_statement_strings(tokens, shape)
        )
        query_span = self.obs.begin_span("query")
        try:
            with self.obs.span("parse"):
                if lex_error is not None:
                    raise lex_error
                stmt = parse(sql, tokens=tokens, shape=shape)
            with self.obs.span("execute", detail=type(stmt).__name__):
                if isinstance(stmt, Select):
                    result = self._execute_select(session, stmt)
                elif isinstance(stmt, Insert):
                    result = self._execute_insert(session, stmt)
                elif isinstance(stmt, Update):
                    result = self._execute_update(session, stmt)
                elif isinstance(stmt, Delete):
                    result = self._execute_delete(session, stmt)
                elif isinstance(stmt, CreateTable):
                    result = self._execute_create(stmt)
                elif isinstance(stmt, BeginTxn):
                    result = self._execute_begin(session, stmt)
                elif isinstance(stmt, CommitTxn):
                    result = self._execute_commit(session, stmt)
                elif isinstance(stmt, RollbackTxn):
                    result = self._execute_rollback(session, stmt)
                else:  # pragma: no cover - parse() only returns the above
                    raise ServerError(f"unhandled statement {type(stmt).__name__}")
        except Exception:
            # Failed statements still leave their trace (MySQL instruments
            # errored statements too), then surface the error. The session
            # must recover even if the accounting itself trips.
            try:
                self._account_statement(
                    session, sql, timestamp, rows_examined=0, rows_sent=0,
                    tokens=tokens, shape=shape,
                )
            finally:
                self.obs.end_span(query_span, detail="error")
                self.obs.count("server.errors")
                session.abort_statement()
            raise
        duration, digest_value = self._account_statement(
            session,
            sql,
            timestamp,
            rows_examined=result.rows_examined,
            rows_sent=result.rows_sent,
            tokens=tokens,
            shape=shape,
        )
        # The root span closes after accounting so its duration covers the
        # whole statement; its detail is the digest — the "query type"
        # identifier the trace-store forensics recovers.
        self.obs.end_span(query_span, detail=digest_value)
        session.end_statement()
        return QueryResult(
            statement=result.statement,
            columns=result.columns,
            rows=result.rows,
            rows_examined=result.rows_examined,
            rows_affected=result.rows_affected,
            duration=duration,
            from_cache=result.from_cache,
        )

    # -- memory spill of statement strings (Section 5 mechanisms) -----------------

    @staticmethod
    def _spill_statement_strings(tokens, shape) -> Sequence[bytes]:
        """The token copies the lexer and parser leave in the session arena.

        The lexer keeps the raw token text, the parser keeps the parsed
        value: two independent copies per identifier/string literal, both
        living in the statement arena until overwritten. Lexically invalid
        input (``tokens`` is ``None``) never reaches the parser and spills
        nothing.
        """
        if shape is not None:
            return shape.spill(tokens)
        if tokens is None:
            return ()
        return token_spill(tokens)

    def _account_statement(
        self,
        session: Session,
        sql: str,
        timestamp: int,
        rows_examined: int,
        rows_sent: int,
        tokens=None, shape=None,
    ) -> Tuple[float, str]:
        """Clock, logs, and performance-schema bookkeeping for a statement.

        Returns ``(duration, digest)``; the digest comes for free from the
        performance-schema event (computed once), or is computed directly
        when only the observability layer wants it ("" if it did not lex).
        """
        duration = (
            self.config.base_cost_seconds
            + rows_examined * self.config.row_cost_seconds
        )
        self.clock.advance(duration)
        entry = QueryLogEntry(
            timestamp=timestamp,
            session_id=session.session_id,
            statement=sql,
            duration=duration,
            rows_examined=rows_examined,
        )
        self.general_log.log(entry)
        self.slow_log.log(entry)
        self.obs.count("server.statements")
        event = self.perf_schema.record_statement(
            thread_id=session.session_id,
            sql_text=sql,
            timestamp=timestamp,
            duration=duration,
            rows_examined=rows_examined,
            rows_sent=rows_sent,
            tokens=tokens,
            shape=shape,
        )
        if event is not None:
            digest_value = event.digest
        elif self.obs.enabled and tokens is not None:
            digest_value = compute_digest(sql, tokens=tokens, shape=shape)
        else:
            digest_value = ""
        return duration, digest_value

    # -- SELECT ---------------------------------------------------------------------

    def _execute_select(self, session: Session, stmt: Select) -> QueryResult:
        if stmt.table.startswith(("information_schema.", "performance_schema.")):
            return self._execute_virtual_select(stmt)

        schema = self.catalog.table(stmt.table)
        validate_select(schema, stmt)

        cached = self.query_cache.lookup(stmt.raw)
        if cached is not None:
            return QueryResult(
                statement=stmt.raw,
                columns=tuple(result_columns(schema, stmt)),
                rows=cached.rows,
                rows_examined=0,
                rows_affected=0,
                duration=0.0,
                from_cache=True,
            )

        candidates = self._fetch_candidates(schema, stmt, txn=session.active_txn)
        candidate_rows = [row for _, row in candidates]
        rows_examined = len(candidates)
        # Executor string copies: the comparison constants of the WHERE
        # clause are materialized once per query (Item::val_str style).
        if stmt.where is not None:
            for cond in stmt.where.conditions:
                for value in _condition_literals(cond):
                    session.query_arena.alloc_str(value)

        matching = filter_rows(
            schema, candidate_rows, stmt.where, self._udfs, instr=self.obs
        )
        if stmt.order_by is not None:
            order_idx = schema.column_index(stmt.order_by)
            matching.sort(key=lambda r: (r[order_idx] is None, r[order_idx]))
        if stmt.limit is not None:
            matching = matching[: stmt.limit]

        if stmt.aggregate is not None:
            if stmt.group_by is not None:
                out_rows = aggregate_grouped(
                    schema, matching, stmt.aggregate, stmt.group_by
                )
            else:
                out_rows = aggregate_rows(schema, matching, stmt.aggregate)
        else:
            out_rows = [project(schema, row, stmt) for row in matching]

        self.query_cache.store(stmt.raw, (stmt.table,), out_rows)
        return QueryResult(
            statement=stmt.raw,
            columns=tuple(result_columns(schema, stmt)),
            rows=tuple(tuple(r) for r in out_rows),
            rows_examined=rows_examined,
            rows_affected=0,
            duration=0.0,
        )

    def _fetch_candidates(
        self, schema: TableSchema, stmt: Union[Select, Update, Delete], txn=None
    ) -> List[Tuple[int, Row]]:
        """``(key, row)`` pairs via the planned access path, touching the
        buffer pool; each pair is one row examined. SELECT, UPDATE and
        DELETE all reach their rows this way, as MySQL plans them.

        Under MVCC ``txn`` fixes the snapshot (``None``: latest committed)."""
        with self.obs.span("plan", table=schema.name):
            plan = plan_select(stmt, schema.primary_key)
        if plan.kind is PlanKind.PK_LOOKUP:
            assert plan.key_equal is not None
            payload, _ = self.engine.get(schema.name, plan.key_equal, txn=txn)
            self.adaptive_hash.record_lookup(schema.name, plan.key_equal)
            if payload is None:
                return []
            return [(plan.key_equal, schema.decode(payload))]
        # A key range reads only its leaves; anything else scans every page.
        if plan.kind is PlanKind.PK_RANGE:
            entries, _ = self.engine.range(
                schema.name, plan.key_low, plan.key_high, txn=txn
            )
        else:
            entries, _ = self.engine.full_scan(schema.name, txn=txn)
        decode = schema.decode
        return [(key, decode(payload)) for key, payload in entries]

    # -- virtual (diagnostic) tables ---------------------------------------------------

    def _execute_virtual_select(self, stmt: Select) -> QueryResult:
        schema, rows = self._virtual_table(stmt.table)
        validate_select(schema, stmt)
        matching = filter_rows(schema, rows, stmt.where, self._udfs, instr=self.obs)
        if stmt.order_by is not None:
            idx = schema.column_index(stmt.order_by)
            matching.sort(key=lambda r: (r[idx] is None, r[idx]))
        if stmt.limit is not None:
            matching = matching[: stmt.limit]
        if stmt.aggregate is not None:
            if stmt.group_by is not None:
                out_rows = aggregate_grouped(
                    schema, matching, stmt.aggregate, stmt.group_by
                )
            else:
                out_rows = aggregate_rows(schema, matching, stmt.aggregate)
        else:
            out_rows = [project(schema, row, stmt) for row in matching]
        return QueryResult(
            statement=stmt.raw,
            columns=tuple(result_columns(schema, stmt)),
            rows=tuple(tuple(r) for r in out_rows),
            rows_examined=len(rows),
            rows_affected=0,
            duration=0.0,
        )

    def _virtual_table(self, name: str) -> Tuple[TableSchema, List[Row]]:
        from ..sql.ast import ColumnDef

        def make_schema(columns: Sequence[Tuple[str, str]]) -> TableSchema:
            return TableSchema(
                name=name,
                columns=tuple(ColumnDef(n, t) for n, t in columns),
                primary_key=None,
            )

        if name == "information_schema.processlist":
            schema = make_schema(
                [
                    ("id", "INT"),
                    ("user", "TEXT"),
                    ("command", "TEXT"),
                    ("time", "INT"),
                    ("state", "TEXT"),
                    ("info", "TEXT"),
                ]
            )
            rows = [
                (r.session_id, r.user, r.command, r.time, r.state, r.info)
                for r in self.info_schema.processlist(self.clock.timestamp())
            ]
            return schema, rows

        if name in (
            "performance_schema.events_statements_current",
            "performance_schema.events_statements_history",
        ):
            schema = make_schema(
                [
                    ("thread_id", "INT"),
                    ("event_id", "INT"),
                    ("sql_text", "TEXT"),
                    ("digest", "TEXT"),
                    ("timer_start", "INT"),
                    ("timer_wait_us", "INT"),
                    ("rows_examined", "INT"),
                    ("rows_sent", "INT"),
                ]
            )
            if name.endswith("current"):
                events = self.perf_schema.events_statements_current()
            else:
                events = self.perf_schema.events_statements_history()
            rows = [
                (
                    e.thread_id,
                    e.event_id,
                    e.sql_text,
                    e.digest,
                    e.timestamp,
                    int(e.duration * 1e6),
                    e.rows_examined,
                    e.rows_sent,
                )
                for e in events
            ]
            return schema, rows

        if name == "performance_schema.events_statements_summary_by_digest":
            schema = make_schema(
                [
                    ("digest", "TEXT"),
                    ("digest_text", "TEXT"),
                    ("count_star", "INT"),
                    ("sum_rows_examined", "INT"),
                    ("sum_rows_sent", "INT"),
                    ("first_seen", "INT"),
                    ("last_seen", "INT"),
                ]
            )
            rows = [
                (
                    s.digest,
                    s.digest_text,
                    s.count_star,
                    s.sum_rows_examined,
                    s.sum_rows_sent,
                    s.first_seen,
                    s.last_seen,
                )
                for s in self.perf_schema.events_statements_summary_by_digest()
            ]
            return schema, rows

        if name == "performance_schema.global_status":
            schema = make_schema([("variable_name", "TEXT"), ("variable_value", "INT")])
            pool = self.engine.buffer_pool.stats
            rows: List[Row] = [
                ("Queries", self.perf_schema.statements_total),
                ("Threads_connected", self.info_schema.active_connections),
                ("Innodb_buffer_pool_read_requests", pool["hits"] + pool["misses"]),
                ("Innodb_buffer_pool_reads", pool["misses"]),
                ("Innodb_buffer_pool_pages_data", pool["resident"]),
                ("Qcache_hits", self.query_cache.stats["hits"]),
            ]
            return schema, rows

        raise CatalogError(f"unknown diagnostic table {name!r}")

    # -- writes ------------------------------------------------------------------------

    def _begin_write(self, session: Session, raw: str):
        """The statement's transaction: the session's open one, or a fresh
        autocommit transaction. Returns ``(txn, autocommit)``."""
        if session.active_txn is not None:
            session.active_txn.record_statement(raw)
            return session.active_txn, False
        txn = self.engine.begin()
        txn.record_statement(raw)
        return txn, True

    def _write_failed(self, session: Session, txn, autocommit: bool) -> None:
        """Error cleanup: roll back the whole transaction (an error inside
        an explicit transaction aborts it, simplified vs MySQL's
        statement-level rollback)."""
        self.engine.rollback(txn)
        if not autocommit:
            session.active_txn = None

    def _execute_begin(self, session: Session, stmt: BeginTxn) -> QueryResult:
        if session.active_txn is not None:
            raise ServerError("transaction already open on this session")
        session.active_txn = self.engine.begin()
        return QueryResult(
            statement=stmt.raw, columns=(), rows=(),
            rows_examined=0, rows_affected=0, duration=0.0,
        )

    def _execute_commit(self, session: Session, stmt: CommitTxn) -> QueryResult:
        if session.active_txn is None:
            raise ServerError("no open transaction to commit")
        self.engine.commit(session.active_txn)
        session.active_txn = None
        return QueryResult(
            statement=stmt.raw, columns=(), rows=(),
            rows_examined=0, rows_affected=0, duration=0.0,
        )

    def _execute_rollback(self, session: Session, stmt: RollbackTxn) -> QueryResult:
        if session.active_txn is None:
            raise ServerError("no open transaction to roll back")
        self.engine.rollback(session.active_txn)
        session.active_txn = None
        return QueryResult(
            statement=stmt.raw, columns=(), rows=(),
            rows_examined=0, rows_affected=0, duration=0.0,
        )

    def _execute_insert(self, session: Session, stmt: Insert) -> QueryResult:
        schema = self.catalog.table(stmt.table)
        txn, autocommit = self._begin_write(session, stmt.raw)
        inserted = 0
        try:
            for values in stmt.rows:
                row = schema.build_row(stmt.columns, values)
                key = schema.clustering_key(row)
                try:
                    self.engine.insert(txn, stmt.table, key, encode_row(row))
                except StorageError as exc:
                    raise DuplicateKeyError(
                        f"duplicate primary key {key} in {stmt.table!r}"
                    ) from exc
                inserted += 1
        except Exception:
            self._write_failed(session, txn, autocommit)
            raise
        if autocommit:
            self.engine.commit(txn)
        self.query_cache.invalidate_table(stmt.table)
        return QueryResult(
            statement=stmt.raw,
            columns=(),
            rows=(),
            rows_examined=0,
            rows_affected=inserted,
            duration=0.0,
        )

    def _execute_update(self, session: Session, stmt: Update) -> QueryResult:
        schema = self.catalog.table(stmt.table)
        for column, value in stmt.assignments:
            col = schema.column(column)
            if col.primary_key:
                raise CatalogError("updating the primary key is not supported")
            schema.validate_value(col, value)
        if stmt.where is not None:
            for cond in stmt.where.conditions:
                schema.column(cond.column)

        txn, autocommit = self._begin_write(session, stmt.raw)
        affected = 0
        try:
            candidates = self._fetch_candidates(schema, stmt, txn=txn)
            for key, row in candidates:
                if not where_matches(schema, row, stmt.where, self._udfs):
                    continue
                new_row = list(row)
                for column, value in stmt.assignments:
                    new_row[schema.column_index(column)] = value
                self.engine.update(txn, stmt.table, key, encode_row(tuple(new_row)))
                affected += 1
        except Exception:
            self._write_failed(session, txn, autocommit)
            raise
        if autocommit:
            self.engine.commit(txn)
        if affected:
            self.query_cache.invalidate_table(stmt.table)
        return QueryResult(
            statement=stmt.raw,
            columns=(),
            rows=(),
            rows_examined=len(candidates),
            rows_affected=affected,
            duration=0.0,
        )

    def _execute_delete(self, session: Session, stmt: Delete) -> QueryResult:
        schema = self.catalog.table(stmt.table)
        if stmt.where is not None:
            for cond in stmt.where.conditions:
                schema.column(cond.column)
        txn, autocommit = self._begin_write(session, stmt.raw)
        affected = 0
        try:
            candidates = self._fetch_candidates(schema, stmt, txn=txn)
            for key, row in candidates:
                if not where_matches(schema, row, stmt.where, self._udfs):
                    continue
                self.engine.delete(txn, stmt.table, key)
                affected += 1
        except Exception:
            self._write_failed(session, txn, autocommit)
            raise
        if autocommit:
            self.engine.commit(txn)
        if affected:
            self.query_cache.invalidate_table(stmt.table)
        return QueryResult(
            statement=stmt.raw,
            columns=(),
            rows=(),
            rows_examined=len(candidates),
            rows_affected=affected,
            duration=0.0,
        )

    def _execute_create(self, stmt: CreateTable) -> QueryResult:
        self.catalog.create_table(stmt.table, stmt.columns, stmt.primary_key)
        self.engine.register_table(stmt.table)
        # DDL goes to the binlog like any replicated statement (but never
        # opens a transaction — see StorageEngine.log_ddl).
        self.engine.log_ddl(self.clock.timestamp(), stmt.raw)
        return QueryResult(
            statement=stmt.raw,
            columns=(),
            rows=(),
            rows_examined=0,
            rows_affected=0,
            duration=0.0,
        )

    # -- secondary indexes (paged storage) ---------------------------------------------

    def create_secondary_index(self, table: str, column: str) -> str:
        """Index an INT column of a paged table; returns the index name.

        The extractor decodes the stored row and pulls the column value —
        non-integer or NULL values are simply not indexed (posting lists
        cover integer-keyed values only, like our B+-tree keys).
        """
        schema = self.catalog.table(table)
        idx = schema.column_index(column)
        decode = schema.decode

        def extractor(payload: bytes) -> Optional[int]:
            value = decode(payload)[idx]
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            return None

        index_name = f"idx_{table}_{column}"
        self.engine.register_secondary_index(table, index_name, extractor)
        return index_name

    def secondary_lookup(self, table: str, column: str, value: int) -> List[int]:
        """Primary keys where ``column = value``, via the secondary index."""
        pks, _ = self.engine.secondary_lookup(table, f"idx_{table}_{column}", value)
        return pks

    # -- maintenance -----------------------------------------------------------------------

    def close(self) -> None:
        """Release storage resources (paged mode: checkpoint + close files)."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def dump_buffer_pool(self) -> BufferPoolDump:
        """Write the ``ib_buffer_pool`` dump file (shutdown / periodic)."""
        self._buffer_pool_dump = self.engine.buffer_pool.dump()
        return self._buffer_pool_dump

    @property
    def last_buffer_pool_dump(self) -> Optional[BufferPoolDump]:
        """The most recent on-disk dump (what disk theft captures)."""
        return self._buffer_pool_dump

    def restart(self) -> None:
        """Bounce the server: volatile state resets, disk artifacts stay."""
        self.dump_buffer_pool()
        self.engine.buffer_pool.clear()
        self.perf_schema.restart()
        self.adaptive_hash.clear()
        for session in list(self._sessions.values()):
            self.disconnect(session)


def _condition_literals(condition) -> List[str]:
    """String forms of a condition's comparison constants."""
    from ..sql.ast import (
        BetweenCondition,
        Comparison,
        FunctionCondition,
        MatchCondition,
    )

    if isinstance(condition, Comparison) and condition.value is not None:
        return [str(condition.value)]
    if isinstance(condition, BetweenCondition):
        return [str(condition.low), str(condition.high)]
    if isinstance(condition, MatchCondition):
        return [condition.keyword]
    if isinstance(condition, FunctionCondition):
        return [str(arg) for arg in condition.args if arg is not None]
    return []
