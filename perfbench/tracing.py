"""Layer spans recorded from outside the program.

:class:`Tracer` replaces each layer's public entry points (the ``ENTRY``
table) with a wrapper that records one span per call: entry point, start,
end, parent span and statement id. Spans are appended to flat arrays kept
in memory; :meth:`Tracer.analyze` turns them into per-entry self time (a
span's duration minus the time its direct child spans cover) and call
counts, and :meth:`Tracer.write` saves the last episode's spans when the
run ends.

A name a caller imported by value is wrapped where that caller looks it
up (``repro.server.server.parse``, not ``repro.sql.parser.parse``), and
``os.fsync`` is wrapped only as the WAL log manager sees it.

The wrappers are installed for a traced run only and removed afterwards;
they record nothing unless :meth:`Tracer.enter` has opened a statement
(id >= 0) or the recovery phase (id ``RECOVERY``).
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Statement id given to spans recorded during crash recovery.
RECOVERY = -1

#: (layer, module, class or None, attribute). Each row is one wrapped
#: entry point, named ``layer:Owner.attribute`` where the owner is the
#: class, or the last part of the module name for a module-level name.
ENTRY: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("server.frontend", "repro.server.frontend", "ServerFrontend", "dispatch_one"),
    ("server.frontend", "repro.server.frontend", "SessionScheduler", "next_request"),
    ("server.server", "repro.server.server", "MySQLServer", "execute"),
    ("sql.lexer", "repro.server.server", None, "tokenize"),
    ("sql.parser", "repro.server.server", None, "parse"),
    ("memory.heap", "repro.memory.heap", "BumpArena", "alloc"),
    ("memory.heap", "repro.memory.heap", "BumpArena", "alloc_str"),
    ("sql.digest", "repro.server.performance_schema", None, "compute_digest"),
    ("sql.digest", "repro.server.performance_schema", None, "canonicalize"),
    ("sql.digest", "repro.server.server", None, "compute_digest"),
    ("sql.digest", "repro.sql.digest", None, "canonicalize"),
    ("server.performance_schema", "repro.server.performance_schema",
     "PerformanceSchema", "record_statement"),
    ("engine.query_logs", "repro.engine.query_logs", "SlowQueryLog", "log"),
    ("engine.query_logs", "repro.engine.query_logs", "GeneralQueryLog", "log"),
    ("sql.planner", "repro.server.server", None, "plan_select"),
    ("server.executor", "repro.server.server", None, "filter_rows"),
    ("server.executor", "repro.server.server", None, "where_matches"),
    ("server.executor", "repro.server.executor", None, "where_matches"),
    ("server.executor", "repro.server.server", None, "aggregate_rows"),
    ("server.executor", "repro.server.server", None, "project"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "begin"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "commit"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "get"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "range"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "full_scan"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "insert"),
    ("engine.engine", "repro.engine.engine", "StorageEngine", "update"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager", "read_row"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager", "visible_extra_rows"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager", "check_write"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager", "record_write"),
    ("engine.mvcc", "repro.engine.mvcc", "MVCCManager", "commit"),
    ("server.sharding", "repro.server.sharding", "ShardedEngine", "commit"),
    ("server.sharding", "repro.server.sharding", "ShardedEngine", "insert"),
    ("storage.paged.table", "repro.storage.paged.table", "PagedTable", "get"),
    ("storage.paged.table", "repro.storage.paged.table", "PagedTable", "range"),
    ("storage.paged.table", "repro.storage.paged.table", "PagedTable", "insert"),
    ("storage.paged.table", "repro.storage.paged.table", "PagedTable", "update"),
    ("storage.paged.buffer_pool", "repro.storage.paged.buffer_pool",
     "BufferPoolManager", "fetch"),
    ("storage.paged.buffer_pool", "repro.storage.paged.buffer_pool",
     "BufferPoolManager", "new_page"),
    ("storage.paged.buffer_pool", "repro.storage.paged.buffer_pool",
     "BufferPoolManager", "unpin"),
    ("storage.paged.page_file", "repro.storage.paged.page_file", "PageFile", "read_page"),
    ("storage.paged.page_file", "repro.storage.paged.page_file", "PageFile", "write_page"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_redo"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_undo"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_clr"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_begin"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_commit"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager", "append_abort"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager",
     "append_checkpoint"),
    ("wal.log_manager.append", "repro.wal.log_manager", "LogManager",
     "append_table_register"),
    ("wal.log_manager.flush", "repro.wal.log_manager", "LogManager", "flush"),
    ("wal.log_manager.flush", "repro.wal.log_manager", "LogManager", "flush_to"),
    ("wal.log_manager.fsync", "repro.wal.log_manager", "os", "fsync"),
    ("wal.recovery", "repro.wal.recovery", None, "recover_engine"),
)

#: Extra per-call measurements taken after the wrapped call returns:
#: entry name -> fn(args, result) -> int. Totals and maxima are kept for
#: the statement phase, as are the exceptions each entry point raised.
MEASURES: Dict[str, Callable] = {
    # Bytes copied into the statement arena (alloc_str delegates to alloc).
    "memory.heap:BumpArena.alloc": lambda args, result: len(args[1]),
    # Version-chain length of the row just written.
    "engine.mvcc:MVCCManager.record_write": lambda args, result: args[0].chain_length(
        args[2], args[3]
    ),
}

ENTRY_NAMES = tuple(
    f"{layer}:{owner or module.rsplit('.', 1)[1]}.{attr}"
    for layer, module, owner, attr in ENTRY
)


class _OsView:
    """``os`` as one module sees it, with a single function replaced."""

    def __init__(self, real, **overrides) -> None:
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs the entry-point wrappers and keeps their spans."""

    def __init__(self) -> None:
        self.entry = array("i")
        self.parent = array("i")
        self.stmt = array("i")
        self.start = array("q")
        self.end = array("q")
        self.active = False
        self.current = -1
        self.stmt_id = RECOVERY
        self.errors = [0] * len(ENTRY)
        self.measure_sum = [0] * len(ENTRY)
        self.measure_max = [0] * len(ENTRY)
        self._restore: List[Tuple[object, str, object]] = []

    # -- statement bracketing -------------------------------------------------

    def enter(self, stmt_id: int) -> None:
        self.stmt_id = stmt_id
        self.active = True

    def leave(self) -> None:
        self.active = False

    def reset(self) -> None:
        """Drop recorded spans and counters (the wrappers stay in place)."""
        for arr in (self.entry, self.parent, self.stmt, self.start, self.end):
            del arr[:]
        self.current = -1
        for counters in (self.errors, self.measure_sum, self.measure_max):
            counters[:] = [0] * len(ENTRY)

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        for index, (layer, module_name, owner_name, attr) in enumerate(ENTRY):
            module = importlib.import_module(module_name)
            if owner_name == "os":
                view = _OsView(os, fsync=self._wrap(os.fsync, index))
                self._restore.append((module, "os", module.os))
                module.os = view
                continue
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, index))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, index: int):
        tracer = self
        entry, parent, stmt = self.entry, self.parent, self.stmt
        start, end = self.start, self.end
        errors = self.errors
        clock = time.perf_counter_ns
        measure = MEASURES.get(ENTRY_NAMES[index])
        measure_sum, measure_max = self.measure_sum, self.measure_max

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(entry)
            entry.append(index)
            parent.append(tracer.current)
            stmt.append(tracer.stmt_id)
            end.append(0)
            tracer.current = span
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[span] = clock()
                tracer.current = parent[span]
                if tracer.stmt_id != RECOVERY:
                    errors[index] += 1
                raise
            end[span] = clock()
            tracer.current = parent[span]
            if measure is not None and tracer.stmt_id != RECOVERY:
                value = measure(args, result)
                measure_sum[index] += value
                if value > measure_max[index]:
                    measure_max[index] = value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ---------------------------------------------------------------

    def analyze(self) -> "SpanSummary":
        """Self time and call counts per entry, split by phase."""
        n = len(self.entry)
        entry, parent, stmt = self.entry, self.parent, self.stmt
        start, end = self.start, self.end
        covered = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        summary = SpanSummary()
        table_entries = {
            i for i, name in enumerate(ENTRY_NAMES)
            if name.startswith("storage.paged.table:")
        }
        fetch = ENTRY_NAMES.index("storage.paged.buffer_pool:BufferPoolManager.fetch")
        sharded_commit = ENTRY_NAMES.index("server.sharding:ShardedEngine.commit")
        engine_commit = ENTRY_NAMES.index("engine.engine:StorageEngine.commit")
        in_table = bytearray(n)
        for i in range(n):
            e = entry[i]
            p = parent[i]
            own = end[i] - start[i] - covered[i]
            if stmt[i] == RECOVERY:
                summary.recovery_self_ns[e] += own
                continue
            summary.self_ns[e] += own
            summary.calls[e] += 1
            in_table[i] = e in table_entries or (p >= 0 and in_table[p])
            if e == fetch and p >= 0 and in_table[p]:
                summary.table_fetches += 1
            if e == engine_commit and p >= 0 and entry[p] == sharded_commit:
                summary.shard_commits += 1
        for i, count in enumerate(self.errors):
            summary.errors[i] = count
        summary.measure_sum = list(self.measure_sum)
        summary.measure_max = list(self.measure_max)
        return summary

    def write(self, path: str) -> None:
        """Save the recorded spans, gzipped: a JSON header line, then one
        line per span with times in ns from the first span's start."""
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"entries": ENTRY_NAMES, "fields": [
                "entry", "parent", "stmt", "start_ns", "end_ns"]}, fh)
            fh.write("\n")
            for e, p, st, t0, t1 in zip(
                self.entry, self.parent, self.stmt, self.start, self.end
            ):
                fh.write(f"{e} {p} {st} {t0 - origin} {t1 - origin}\n")


class SpanSummary:
    """Per-entry totals of one traced episode (indices follow ``ENTRY``)."""

    def __init__(self) -> None:
        size = len(ENTRY)
        self.self_ns = [0] * size
        self.calls = [0] * size
        self.errors = [0] * size
        self.recovery_self_ns = [0] * size
        self.measure_sum = [0] * size
        self.measure_max = [0] * size
        #: ``fetch`` calls made inside a ``PagedTable`` entry point.
        self.table_fetches = 0
        #: Shard-engine commits made inside a sharded commit.
        self.shard_commits = 0

    def by_layer(self, values: List[int], prefix: str) -> int:
        """Sum ``values`` over every entry whose name starts with ``prefix``."""
        return sum(v for name, v in zip(ENTRY_NAMES, values) if name.startswith(prefix))

    def of(self, values: List[int], name: str) -> int:
        return values[ENTRY_NAMES.index(name)]

    def counts(self) -> Dict[str, int]:
        """Every exact count this summary holds, keyed by name."""
        out: Dict[str, int] = {}
        for i, name in enumerate(ENTRY_NAMES):
            out[f"calls.{name}"] = self.calls[i]
            out[f"errors.{name}"] = self.errors[i]
            if ENTRY_NAMES[i] in MEASURES:
                out[f"measure_sum.{name}"] = self.measure_sum[i]
                out[f"measure_max.{name}"] = self.measure_max[i]
        out["table_fetches"] = self.table_fetches
        out["shard_commits"] = self.shard_commits
        return out


def merged(summaries: List[SpanSummary]) -> SpanSummary:
    """Timings summed over episodes; counts must already agree."""
    out = SpanSummary()
    for s in summaries:
        for field in ("self_ns", "recovery_self_ns"):
            acc = getattr(out, field)
            for i, v in enumerate(getattr(s, field)):
                acc[i] += v
    first = summaries[0]
    out.calls, out.errors = list(first.calls), list(first.errors)
    out.measure_sum, out.measure_max = list(first.measure_sum), list(first.measure_max)
    out.table_fetches, out.shard_commits = first.table_fetches, first.shard_commits
    return out


__all__ = ["ENTRY", "ENTRY_NAMES", "RECOVERY", "SpanSummary", "Tracer", "merged"]
