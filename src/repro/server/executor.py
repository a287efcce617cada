"""Row-level predicate evaluation and projection for SELECT execution."""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError, ServerError
from ..obs.instrumentation import Instrumentation
from ..sql.ast import (
    Aggregate,
    BetweenCondition,
    Comparison,
    Condition,
    FunctionCondition,
    Literal,
    MatchCondition,
    Select,
    WhereClause,
)
from .catalog import TableSchema

Row = Tuple[Literal, ...]

#: A server-side UDF predicate: ``(column_value, *args) -> bool``.
Udf = Callable[..., bool]
UdfRegistry = Dict[str, Udf]


def _compare(op: str, left: Literal, right: Literal) -> bool:
    """SQL three-valued-ish comparison: NULL never matches."""
    if left is None or right is None:
        return False
    if type(left) is not type(right):
        # Cross-type comparisons (e.g. INT column vs string literal) never
        # match in this dialect rather than coercing.
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ServerError(f"unknown comparison operator {op!r}")


def condition_matches(
    schema: TableSchema,
    row: Row,
    condition: Condition,
    udfs: Optional[UdfRegistry] = None,
) -> bool:
    """Evaluate one WHERE condition against a row."""
    idx = schema.column_index(condition.column)
    value = row[idx]
    if isinstance(condition, Comparison):
        return _compare(condition.op, value, condition.value)
    if isinstance(condition, BetweenCondition):
        return _compare(">=", value, condition.low) and _compare(
            "<=", value, condition.high
        )
    if isinstance(condition, MatchCondition):
        if not isinstance(value, str):
            return False
        # Word-boundary keyword containment (the SEARCH-onion semantic).
        return condition.keyword.lower() in value.lower().split()
    if isinstance(condition, FunctionCondition):
        udf = (udfs or {}).get(condition.function)
        if udf is None:
            raise ServerError(f"unknown function {condition.function!r}")
        return bool(udf(value, *condition.args))
    raise ServerError(f"unknown condition type {type(condition).__name__}")


def where_matches(
    schema: TableSchema,
    row: Row,
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
) -> bool:
    """Evaluate a (conjunctive) WHERE clause; no clause matches everything."""
    if where is None:
        return True
    return all(
        condition_matches(schema, row, cond, udfs) for cond in where.conditions
    )


#: Comparison operators by SQL spelling, for the per-statement predicate.
_OPERATORS: Dict[str, Callable[[Literal, Literal], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

RowPredicate = Callable[[Row], bool]


def _never(row: Row) -> bool:
    return False


def _compile_condition(
    schema: TableSchema, condition: Condition, udfs: Optional[UdfRegistry]
) -> RowPredicate:
    """One condition as a row predicate with :func:`condition_matches`'
    semantics, its column index and constants resolved up front.

    Errors that :func:`condition_matches` raises per row (unknown column,
    operator or function) are left to evaluation, so a condition that the
    conjunction never reaches never raises, as in :func:`where_matches`.
    """
    if not schema.has_column(condition.column):
        return lambda row: condition_matches(schema, row, condition, udfs)
    idx = schema.column_index(condition.column)
    if isinstance(condition, Comparison):
        right, op = condition.value, _OPERATORS.get(condition.op)
        if right is None:
            return _never
        if op is None:
            return lambda row: _compare(condition.op, row[idx], right)
        kind = type(right)
        if op is operator.eq:
            return lambda row: row[idx] == right and type(row[idx]) is kind
        return lambda row: type(row[idx]) is kind and op(row[idx], right)
    if isinstance(condition, BetweenCondition):
        low, high = condition.low, condition.high
        if low is None or high is None or type(low) is not type(high):
            return _never
        kind = type(low)
        return lambda row: type(row[idx]) is kind and low <= row[idx] <= high
    if isinstance(condition, MatchCondition):
        keyword = condition.keyword.lower()
        return lambda row: (
            isinstance(row[idx], str) and keyword in row[idx].lower().split()
        )
    if isinstance(condition, FunctionCondition):
        udf = (udfs or {}).get(condition.function)
        if udf is None:
            return lambda row: condition_matches(schema, row, condition, udfs)
        args = condition.args
        return lambda row: bool(udf(row[idx], *args))
    return lambda row: condition_matches(schema, row, condition, udfs)


def compile_where(
    schema: TableSchema,
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
) -> Optional[RowPredicate]:
    """The WHERE clause as one row predicate (``None``: matches all rows).

    Equivalent to :func:`where_matches` row by row, including the
    short-circuit order of the conjunction.
    """
    if where is None:
        return None
    tests = [_compile_condition(schema, cond, udfs) for cond in where.conditions]
    if len(tests) == 1:
        return tests[0]

    def matches(row: Row) -> bool:
        for test in tests:
            if not test(row):
                return False
        return True

    return matches


def filter_rows(
    schema: TableSchema,
    rows: Sequence[Row],
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
    instr: Optional[Instrumentation] = None,
) -> List[Row]:
    """Filter ``rows`` through the WHERE clause, with filter-stage metrics.

    The clause is resolved to a predicate once per statement (see
    :func:`compile_where`), not once per row and condition. The aggregate
    examined/matched counters land in the observability registry once per
    query (not per row), so instrumented filtering costs the same as the
    bare list comprehension it replaces.
    """
    test = compile_where(schema, where, udfs)
    matching = list(rows) if test is None else [row for row in rows if test(row)]
    if instr is not None:
        instr.count("executor.rows_examined", n=len(rows))
        instr.count("executor.rows_matched", n=len(matching))
    return matching


def project(schema: TableSchema, row: Row, stmt: Select) -> Row:
    """Apply the SELECT list to a matching row."""
    if stmt.is_star:
        return row
    return tuple(row[schema.column_index(name)] for name in stmt.columns)


def result_columns(schema: TableSchema, stmt: Select) -> List[str]:
    """Column headers of the result set."""
    if stmt.aggregate is not None:
        if stmt.aggregate.func == "count":
            agg = "count(*)"
        else:
            agg = f"{stmt.aggregate.func}({stmt.aggregate.column})"
        if stmt.group_by is not None:
            return [stmt.group_by, agg]
        return [agg]
    if stmt.is_star:
        return schema.column_names
    return list(stmt.columns)


def _int_column_values(
    schema: TableSchema, rows: Sequence[Row], column: str, func: str
) -> List[int]:
    """Non-NULL integer values of ``column`` (aggregates skip NULLs)."""
    idx = schema.column_index(column)
    values = []
    for row in rows:
        value = row[idx]
        if value is None:
            continue
        if not isinstance(value, int):
            raise CatalogError(f"{func} over non-INT column {column!r}")
        values.append(value)
    return values


def aggregate_rows(
    schema: TableSchema, rows: Sequence[Row], aggregate: Aggregate
) -> List[Row]:
    """Evaluate one aggregate over the matching rows (NULLs skipped).

    ``ashe_sum`` is the server-side half of Seabed's additive aggregation:
    a plain integer sum over an INT column of ASHE ciphertext values. The
    server learns nothing from the masked values; only the client can strip
    the masks (see :mod:`repro.crypto.ashe`). ``avg`` returns the integer
    floor average (the dialect has no floats), ``None`` on empty input like
    ``min``/``max``.
    """
    if aggregate.func == "count":
        return [(len(rows),)]
    if aggregate.column is None:  # pragma: no cover - parser guarantees it
        raise ServerError(f"{aggregate.func} needs a column")
    values = _int_column_values(schema, rows, aggregate.column, aggregate.func)
    if aggregate.func in ("sum", "ashe_sum"):
        return [(sum(values),)]
    if aggregate.func == "min":
        return [(min(values) if values else None,)]
    if aggregate.func == "max":
        return [(max(values) if values else None,)]
    if aggregate.func == "avg":
        return [(sum(values) // len(values) if values else None,)]
    raise ServerError(f"unknown aggregate {aggregate.func!r}")


def aggregate_grouped(
    schema: TableSchema,
    rows: Sequence[Row],
    aggregate: Aggregate,
    group_by: str,
) -> List[Row]:
    """GROUP BY evaluation: one output row per group value, sorted."""
    idx = schema.column_index(group_by)
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[idx], []).append(row)
    out: List[Row] = []
    for key in sorted(groups, key=lambda k: (k is None, repr(k))):
        out.append((key,) + aggregate_rows(schema, groups[key], aggregate)[0])
    return out


def validate_select(schema: TableSchema, stmt: Select) -> None:
    """Check every referenced column exists (raises CatalogError if not).

    This runs before execution, so a SELECT naming a random column fails
    exactly like the paper's Section 5 marker query — after its text has
    already been copied into the net buffer, arena, and statement tables.
    """
    for name in stmt.columns:
        schema.column(name)
    if stmt.aggregate is not None and stmt.aggregate.column is not None:
        schema.column(stmt.aggregate.column)
    if stmt.where is not None:
        for cond in stmt.where.conditions:
            schema.column(cond.column)
    if stmt.group_by is not None:
        schema.column(stmt.group_by)
    if stmt.order_by is not None:
        schema.column(stmt.order_by)
