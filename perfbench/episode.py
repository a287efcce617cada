"""One episode: set up a server, run the closed loop, crash, recover, check.

An episode is the unit a benchmark process repeats. It builds a fresh
``MySQLServer`` (``storage="paged"``, default ``wal_sync=True``) in a new
data directory under the benchmark's output directory, preloads ``t``
through SQL, opens two sessions on a FIFO ``ServerFrontend`` and runs the
workload's fixed statement sequence closed-loop: a session submits its
next statement only when the previous one has completed. Each statement's
service time is the wall time of its ``dispatch_one`` call.

The episode then calls ``simulate_crash()``, which discards unflushed WAL
frames, times recovery (``recover_engine``, or ``recover_sharded_engine``
over the shards) and compares every recovered row with the workload's
model.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import SchedulingPolicy, ServerFrontend
from repro.storage import decode_row, encode_row
from repro.storage.paged.format import PAGED_PAGE_SIZE
from repro.wal import recovery

from tracing import RECOVERY, SpanSummary, Tracer
from workloads import Workload

SESSIONS = 2
CREATE_TABLE = "CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)"


@dataclass
class Episode:
    """What one episode measured and counted."""

    setup_s: float = 0.0
    phase_s: float = 0.0
    recovery_s: float = 0.0
    statements: int = 0
    failed: int = 0
    #: Statement type -> service times in ns, in completion order.
    latency_ns: Dict[str, array] = field(default_factory=dict)
    #: Exact counts; equal inputs must give equal counts.
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Span summary of a traced episode.
    spans: Optional[SpanSummary] = None

    @property
    def stmts_per_s(self) -> float:
        return self.statements / self.phase_s


def _engines(engine):
    return getattr(engine, "shards", (engine,))


def _engine_counts(server: MySQLServer) -> Dict[str, int]:
    """Exact counters the program keeps, summed over shards."""
    wal = server.engine.wal.stats
    pool = server.engine.buffer_pool.stats
    heap = server.heap.stats
    return {
        "wal.syncs": wal["syncs"],
        "wal.flushes": wal["flushes"],
        "wal.bytes_written": wal["bytes_written"],
        "wal.appended_frames": wal["appended_frames"],
        "pool.hits": pool["hits"],
        "pool.misses": pool["misses"],
        "pool.evictions": pool["evictions"],
        "pool.writebacks": pool["writebacks"],
        "heap.allocs": heap.total_allocs,
        "heap.arena_bytes": heap.arena_size,
    }


def _run(frontend: ServerFrontend, session, sql: str) -> None:
    frontend.submit(session, sql)
    done = frontend.dispatch_one()
    if done.error is not None:
        raise RuntimeError(f"set-up statement failed: {sql[:80]}: {done.error}")


def run_episode(
    workload: Workload, out_dir: str, tracer: Optional[Tracer] = None
) -> Episode:
    """Run one episode of ``workload`` in a fresh directory under ``out_dir``."""
    data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir)
    try:
        return _episode(workload, data_dir, tracer)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _episode(workload: Workload, data_dir: str, tracer: Optional[Tracer]) -> Episode:
    ep = Episode(latency_ns={kind: array("q") for kind in workload.kinds})

    started = time.perf_counter()
    server = MySQLServer(
        ServerConfig(
            storage="paged",
            data_dir=data_dir,
            buffer_pool_capacity=workload.pool_frames,
            num_shards=workload.shards,
        )
    )
    frontend = ServerFrontend(server, policy=SchedulingPolicy.FIFO)
    loader = frontend.open_session()
    _run(frontend, loader, CREATE_TABLE)
    for sql in workload.preload():
        _run(frontend, loader, sql)
    frontend.close_session(loader)
    sessions = [frontend.open_session() for _ in range(SESSIONS)]
    ep.setup_s = time.perf_counter() - started

    before = _engine_counts(server)
    rows_examined = rows_out = commits = 0
    pending = {}
    for index, session in enumerate(sessions):
        op = workload.next_op(index)
        frontend.submit(session, op.sql)
        pending[session.session_id] = (index, session, op)
    clock = time.perf_counter_ns
    phase_started = time.perf_counter()
    while pending:
        if tracer is not None:
            tracer.enter(ep.statements)
        t0 = clock()
        done = frontend.dispatch_one()
        elapsed = clock() - t0
        if tracer is not None:
            tracer.leave()
        index, session, op = pending.pop(done.request.session_id)
        ep.latency_ns[op.kind].append(elapsed)
        ep.statements += 1
        if done.error is not None:
            ep.failed += 1
            ep.problems.append(f"{op.sql[:80]}: {done.error}")
        else:
            result = done.result
            rows_examined += result.rows_examined
            rows_out += result.rows_sent + result.rows_affected
            if op.kind in ("commit", "update"):  # the UPDATEs run in autocommit
                commits += 1
            problem = workload.check(index, op, result)
            if problem is not None:
                ep.problems.append(problem)
        op = workload.next_op(index)
        if op is not None:
            frontend.submit(session, op.sql)
            pending[session.session_id] = (index, session, op)
    ep.phase_s = time.perf_counter() - phase_started

    after = _engine_counts(server)
    counts = {f"phase.{k}": after[k] - before[k] for k in after}
    counts["phase.rows_examined"] = rows_examined
    counts["phase.rows_sent_or_affected"] = rows_out
    counts["phase.commits"] = commits
    counts["phase.statements"] = ep.statements
    counts["episode.wal_bytes"] = after["wal.bytes_written"]
    counts["episode.row_bytes_written"] = sum(
        len(encode_row(row)) for row in workload.rows_written
    )
    counts["end.space_bytes"] = PAGED_PAGE_SIZE * sum(
        shard.tablespace("t").num_pages for shard in _engines(server.engine)
    )
    expected = workload.expected_table()
    counts["end.live_row_bytes"] = sum(len(encode_row(row)) for row in expected.values())

    server.engine.simulate_crash()
    if tracer is not None:
        tracer.enter(RECOVERY)
    recovered_at = time.perf_counter()
    if workload.shards > 1:
        engine = recovery.recover_sharded_engine(
            data_dir, num_shards=workload.shards,
            buffer_pool_capacity=workload.pool_frames,
        )
    else:
        engine = recovery.recover_engine(
            data_dir, buffer_pool_capacity=workload.pool_frames
        )
    ep.recovery_s = time.perf_counter() - recovered_at
    if tracer is not None:
        tracer.leave()
    report = engine.last_recovery_report
    counts["recovery.records_scanned"] = report.records_scanned
    counts["recovery.redo_applied"] = report.redo_applied
    counts["recovery.undo_applied"] = report.undo_applied
    counts["recovery.loser_txns"] = len(report.loser_txns)

    recovered = {key: decode_row(payload)[0] for key, payload in engine.scan("t")}
    engine.close()
    lost = [k for k, row in expected.items() if recovered.get(k) != row]
    extra = [k for k in recovered if k not in expected]
    open_keys = {row[0] for row in workload.open_rows()}
    counts["recovery.rows_lost_or_wrong"] = len(lost)
    counts["recovery.rows_unexpected"] = len(extra)
    counts["recovery.open_txn_rows"] = len(open_keys)
    counts["recovery.open_txn_rows_visible"] = len(open_keys & recovered.keys())
    if lost:
        ep.problems.append(f"after recovery {len(lost)} acknowledged rows are missing "
                           f"or wrong, e.g. id {lost[0]}")
    if extra:
        ep.problems.append(f"after recovery {len(extra)} rows that were never "
                           f"committed are visible, e.g. id {extra[0]}")
    ep.counts = counts
    return ep
