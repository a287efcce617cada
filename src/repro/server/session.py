"""Sessions (MySQL THDs) and their memory footprint.

Each connection owns:

* a persistent **net read buffer** (MySQL: ``net_buffer_length``-sized,
  per-connection, reused across statements) — every statement is written at
  offset 0, so an idle connection's buffer retains its *last* statement in
  full;
* a **query arena** (``THD::mem_root``): bump-allocated copies of the
  statement text, lexer tokens, and parser items, reset (rewound, not
  zeroed) after each statement.

These are exactly the Section 5 residue mechanisms: the paper's marker query
survived in the connection's buffers through 102,000 subsequent queries on
other threads.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from ..errors import SessionError
from ..memory import BumpArena, SimulatedHeap

#: MySQL's default net buffer is 16 KiB.
NET_BUFFER_SIZE = 16 * 1024


class SessionState(enum.Enum):
    IDLE = "Sleep"
    EXECUTING = "Query"
    CLOSED = "Closed"


class Session:
    """One client connection / server thread."""

    def __init__(self, session_id: int, user: str, heap: SimulatedHeap) -> None:
        self.session_id = session_id
        self.user = user
        self.state = SessionState.IDLE
        self.connected_at: Optional[int] = None
        self.statement_started_at: Optional[int] = None
        self.current_statement: Optional[str] = None
        self.last_statement: Optional[str] = None
        self.statements_executed = 0
        #: Open multi-statement transaction (set by BEGIN, cleared by
        #: COMMIT/ROLLBACK); ``None`` means autocommit mode.
        self.active_txn = None
        self._heap = heap
        self._net_buffer = heap.malloc(NET_BUFFER_SIZE, tag=f"session{session_id}/net")
        self.query_arena = BumpArena(heap, tag=f"session{session_id}/mem_root")
        self._closed = False

    # -- statement lifecycle ----------------------------------------------------

    def begin_statement(
        self, sql: str, timestamp: int, spill: Sequence[bytes] = ()
    ) -> None:
        """Receive a statement: copy it into the net buffer and the arena.

        ``spill`` holds the lexer and parser string copies, which follow
        the statement text in the arena.
        """
        self._ensure_open()
        if self.state is SessionState.EXECUTING:
            raise SessionError(
                f"session {self.session_id} already executing a statement"
            )
        raw = sql.encode("utf-8")
        if len(raw) > NET_BUFFER_SIZE:
            raise SessionError(
                f"statement of {len(raw)} bytes exceeds net buffer "
                f"({NET_BUFFER_SIZE} bytes)"
            )
        # Written at offset 0 over the previous statement's bytes - whatever
        # the new statement does not cover survives.
        self._heap.write(self._net_buffer, raw)
        # THD::query - the arena copy of the full text, then the token copies.
        self.query_arena.alloc_many((raw, *spill))
        self.state = SessionState.EXECUTING
        self.current_statement = sql
        self.statement_started_at = timestamp

    def end_statement(self) -> None:
        """Statement done: rewind the arena (no zeroing), go idle."""
        self._ensure_open()
        if self.state is not SessionState.EXECUTING:
            raise SessionError(f"session {self.session_id} is not executing")
        self.query_arena.reset()
        self.last_statement = self.current_statement
        self.current_statement = None
        self.state = SessionState.IDLE
        self.statements_executed += 1

    def abort_statement(self) -> None:
        """Statement failed mid-flight: same cleanup as normal completion."""
        if self.state is SessionState.EXECUTING:
            self.end_statement()

    def close(self) -> None:
        """Disconnect: release buffers (bytes persist — no secure deletion)."""
        self._ensure_open()
        self._heap.free(self._net_buffer)
        self.query_arena.release()
        self.state = SessionState.CLOSED
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self.session_id} is closed")

    def __repr__(self) -> str:
        return (
            f"Session(id={self.session_id}, user={self.user!r}, "
            f"state={self.state.value})"
        )
