"""A minimal access-path planner.

The planner decides whether a statement's WHERE clause can be served by a
primary-key B+-tree lookup/range or needs a full scan. SELECT, UPDATE and
DELETE share it, as in MySQL. The distinction matters for the paper's
Section 3 buffer-pool experiment: index lookups touch a root-to-leaf *path*
of pages, and that path is what the ``ib_buffer_pool`` dump file later
reveals about past statements. It also fixes each statement's
``Rows_examined``, the volume the slow log and performance schema record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import PlanError
from .ast import BetweenCondition, Comparison, Delete, MatchCondition, Select, Update


class PlanKind(enum.Enum):
    """How a statement reaches the rows it needs."""

    PK_LOOKUP = "pk_lookup"      # equality on the primary key
    PK_RANGE = "pk_range"        # range predicate on the primary key
    FULL_SCAN = "full_scan"      # everything else


@dataclass(frozen=True)
class Plan:
    """Chosen access path for a SELECT, UPDATE or DELETE statement."""

    kind: PlanKind
    key_equal: Optional[int] = None
    key_low: Optional[int] = None
    key_high: Optional[int] = None


def plan_select(
    stmt: Union[Select, Update, Delete], primary_key: Optional[str]
) -> Plan:
    """Plan ``stmt`` given the table's primary-key column (or ``None``).

    Only the WHERE clause matters, so the same plan serves reads and
    writes.
    """
    if primary_key is None or stmt.where is None:
        return Plan(kind=PlanKind.FULL_SCAN)

    for cond in stmt.where.conditions:
        if isinstance(cond, MatchCondition):
            continue
        if cond.column != primary_key:
            continue
        if isinstance(cond, BetweenCondition):
            if not isinstance(cond.low, int) or not isinstance(cond.high, int):
                raise PlanError("BETWEEN bounds on the primary key must be integers")
            return Plan(kind=PlanKind.PK_RANGE, key_low=cond.low, key_high=cond.high)
        if isinstance(cond, Comparison) and isinstance(cond.value, int):
            if cond.op == "=":
                return Plan(kind=PlanKind.PK_LOOKUP, key_equal=cond.value)
            if cond.op in ("<", "<="):
                high = cond.value - 1 if cond.op == "<" else cond.value
                return Plan(kind=PlanKind.PK_RANGE, key_low=None, key_high=high)
            if cond.op in (">", ">="):
                low = cond.value + 1 if cond.op == ">" else cond.value
                return Plan(kind=PlanKind.PK_RANGE, key_low=low, key_high=None)
    return Plan(kind=PlanKind.FULL_SCAN)
