"""The three closed-loop SQL workloads and the models that check them.

A workload object is built fresh from the seed for every episode, so every
episode of one process sees the same statements. It owns:

* the server shape (rows preloaded, buffer-pool frames, shards);
* ``preload()``: multi-row INSERTs that fill ``t(id, v, s)``;
* ``next_op(session)``: the session's next statement, drawn from the one
  seeded generator at submission time (``None`` once the session is done);
* ``check(session, op, result)``: compares a completed statement with the
  model and updates the model in completion order;
* ``expected_table()``: the rows a recovered engine must hold after the
  crash that ends the episode, as ``{id: (id, v, s)}``.

Only SQL text reaches the server. Expected values come from the models
here, never from the server.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

Row = Tuple[int, int, str]

#: Rows per preload INSERT; keeps each statement well inside the 16 KiB
#: session net buffer.
PRELOAD_BATCH = 200
#: ``v`` is drawn from ``range(V_DOMAIN)``, so ``WHERE v = x`` matches
#: about ``rows / V_DOMAIN`` rows.
V_DOMAIN = 100
_ALPHABET = string.ascii_lowercase + string.digits


@dataclass(frozen=True)
class Op:
    """One generated statement: its type, SQL text and what it targets."""

    kind: str
    sql: str
    key: int = 0
    arg: int = 0
    text: str = ""


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


class Workload:
    """Shared preload and model bookkeeping; subclasses add the traffic."""

    name = ""
    rows = 0
    pool_frames = 0
    shards = 1
    #: Statement types in report order.
    kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.table: Dict[int, Row] = {}
        for key in range(self.rows):
            self.table[key] = (
                key,
                self.rng.randrange(V_DOMAIN),
                _text(self.rng, self.rng.randint(8, 32)),
            )
        #: Rows the statements of this episode wrote (preload included),
        #: as full tuples, for the WAL-bytes-per-row-byte ratio.
        self.rows_written: List[Row] = []

    def preload(self) -> Iterator[str]:
        keys = sorted(self.table)
        for lo in range(0, len(keys), PRELOAD_BATCH):
            batch = [self.table[k] for k in keys[lo : lo + PRELOAD_BATCH]]
            self.rows_written.extend(batch)
            values = ", ".join(f"({k}, {v}, '{s}')" for k, v, s in batch)
            yield f"INSERT INTO t (id, v, s) VALUES {values}"

    def expected_table(self) -> Dict[int, Row]:
        return dict(self.table)

    def open_rows(self) -> List[Row]:
        """Rows of transactions still open at the crash (must not survive)."""
        return []

    def next_op(self, session: int) -> Optional[Op]:
        raise NotImplementedError

    def check(self, session: int, op: Op, result) -> Optional[str]:
        raise NotImplementedError


class ReadPoint(Workload):
    """100% autocommit point SELECTs on a table that fits the pool."""

    name = "read_point"
    rows = 20_000
    pool_frames = 8192
    kinds = ("point",)
    statements = 30_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._issued = 0

    def next_op(self, session: int) -> Optional[Op]:
        if self._issued >= self.statements:
            return None
        self._issued += 1
        key = self.rng.randrange(self.rows)
        return Op("point", f"SELECT v, s FROM t WHERE id = {key}", key)

    def check(self, session: int, op: Op, result) -> Optional[str]:
        _, v, s = self.table[op.key]
        if result.rows != ((v, s),):
            return f"{op.sql}: got {result.rows!r}, expected {((v, s),)!r}"
        return None


class ScanUpdate(Workload):
    """Non-key UPDATEs, count(*) scans and 50-row ranges; table ~5x pool."""

    name = "scan_update"
    rows = 3_000
    pool_frames = 16
    kinds = ("update", "scan", "range")
    statements = 200
    range_width = 50

    #: Statement shares; the per-episode mix is exact, in seeded order, so
    #: seeds differ in keys and order but not in the work the mix costs.
    mix = (("update", 0.4), ("scan", 0.3), ("range", 0.3))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._deck = [
            kind for kind, share in self.mix
            for _ in range(round(share * self.statements))
        ]
        self.rng.shuffle(self._deck)
        self._v_counts = Counter(v for _, v, _ in self.table.values())

    def next_op(self, session: int) -> Optional[Op]:
        if not self._deck:
            return None
        kind = self._deck.pop()
        if kind == "update":
            key = self.rng.randrange(self.rows)
            x = self.rng.randrange(V_DOMAIN)
            return Op("update", f"UPDATE t SET v = {x} WHERE id = {key}", key, x)
        if kind == "scan":
            x = self.rng.randrange(V_DOMAIN)
            return Op("scan", f"SELECT count(*) FROM t WHERE v = {x}", arg=x)
        low = self.rng.randrange(self.rows - self.range_width + 1)
        high = low + self.range_width - 1
        return Op(
            "range", f"SELECT s FROM t WHERE id BETWEEN {low} AND {high}", low, high
        )

    def check(self, session: int, op: Op, result) -> Optional[str]:
        if op.kind == "update":
            if result.rows_affected != 1:
                return f"{op.sql}: {result.rows_affected} rows affected"
            key, old_v, s = self.table[op.key]
            self._v_counts[old_v] -= 1
            self._v_counts[op.arg] += 1
            self.table[op.key] = (key, op.arg, s)
            self.rows_written.append(self.table[op.key])
            return None
        if op.kind == "scan":
            expected = ((self._v_counts[op.arg],),)
        else:
            expected = tuple((self.table[k][2],) for k in range(op.key, op.arg + 1))
        if result.rows != expected:
            return f"{op.sql}: got {result.rows!r}, expected {expected!r}"
        return None


class WriteCommit(Workload):
    """Two sessions loop BEGIN; INSERT; INSERT; COMMIT over four shards.

    Session 0 runs ``txns_per_session`` full transactions and session 1
    one more; then each opens a last transaction (BEGIN plus both INSERTs)
    that is still open at the crash. The extra transaction makes session
    1's last COMMIT follow session 0's open INSERTs, so a shard flush can
    make those uncommitted changes durable and recovery must undo them.
    """

    name = "write_commit"
    rows = 2_000
    pool_frames = 32
    shards = 4
    kinds = ("begin", "insert", "commit")
    txns_per_session = 1_300
    inserts_per_txn = 2
    payload_bytes = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._next_key = self.rows
        self._plan: List[List[Op]] = [[], []]
        self._started = [0, 0]
        #: Per session: rows the open transaction inserted so far.
        self._open_rows: List[List[Row]] = [[], []]

    def _new_txn(self) -> List[Op]:
        ops = [Op("begin", "BEGIN")]
        for _ in range(self.inserts_per_txn):
            # Fresh keys spread over a wide range, so the two INSERTs of a
            # transaction usually hash to different shards.
            self._next_key += self.rng.randint(1, 1_000)
            key = self._next_key
            v = self.rng.randrange(V_DOMAIN)
            s = _text(self.rng, self.payload_bytes)
            sql = f"INSERT INTO t (id, v, s) VALUES ({key}, {v}, '{s}')"
            ops.append(Op("insert", sql, key, v, s))
        return ops

    def next_op(self, session: int) -> Optional[Op]:
        plan = self._plan[session]
        if not plan:
            full_txns = self.txns_per_session + session
            if self._started[session] > full_txns:
                return None
            self._started[session] += 1
            plan.extend(self._new_txn())
            if self._started[session] <= full_txns:
                plan.append(Op("commit", "COMMIT"))
        return plan.pop(0)

    def check(self, session: int, op: Op, result) -> Optional[str]:
        if op.kind == "insert":
            if result.rows_affected != 1:
                return f"{op.sql}: {result.rows_affected} rows affected"
            row = (op.key, op.arg, op.text)
            self._open_rows[session].append(row)
            self.rows_written.append(row)
        elif op.kind == "commit":
            for row in self._open_rows[session]:
                self.table[row[0]] = row
            self._open_rows[session] = []
        return None

    def open_rows(self) -> List[Row]:
        return [row for rows in self._open_rows for row in rows]


WORKLOADS = {cls.name: cls for cls in (ReadPoint, WriteCommit, ScanUpdate)}
