"""``filter_rows`` resolves the WHERE clause once per statement; it must
select exactly the rows ``where_matches`` accepts one at a time.

The conditions cover every comparison operator, BETWEEN, MATCH and UDF
predicates, with NULL and cross-type literals on both sides, so the
dialect's rules (NULL never matches, cross-type comparisons never match)
are checked through the compiled path as well.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ServerError
from repro.server.catalog import TableSchema
from repro.server.executor import compile_where, filter_rows, where_matches
from repro.sql.ast import (
    BetweenCondition,
    ColumnDef,
    Comparison,
    FunctionCondition,
    MatchCondition,
    WhereClause,
)

SCHEMA = TableSchema(
    name="t",
    columns=(
        ColumnDef("id", "INT", primary_key=True),
        ColumnDef("v", "INT"),
        ColumnDef("s", "TEXT"),
        ColumnDef("b", "BLOB"),
    ),
    primary_key="id",
)
COLUMNS = tuple(SCHEMA.column_names)

UDFS = {
    "is_even": lambda value: isinstance(value, int) and value % 2 == 0,
    "longer_than": lambda value, n: isinstance(value, (str, bytes))
    and len(value) > n,
    # Truthy non-bool results are coerced by bool(), as in where_matches.
    "echo": lambda value: value,
}

small_ints = st.integers(-3, 3)
words = st.sampled_from(["", "a", "b", "ab", "a b", "B a", "x y z"])
blobs = st.sampled_from([b"", b"a", b"ab", b"\x00"])
literals = st.one_of(st.none(), small_ints, words, blobs)

rows = st.tuples(
    small_ints,
    st.one_of(st.none(), small_ints),
    st.one_of(st.none(), words),
    st.one_of(st.none(), blobs),
)

comparisons = st.builds(
    Comparison,
    column=st.sampled_from(COLUMNS),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=literals,
)
betweens = st.builds(
    BetweenCondition,
    column=st.sampled_from(COLUMNS),
    low=literals,
    high=literals,
)
matches = st.builds(
    MatchCondition,
    column=st.sampled_from(COLUMNS),
    keyword=st.sampled_from(["a", "B", "z", "ab"]),
)
functions = st.one_of(
    st.builds(
        FunctionCondition,
        function=st.sampled_from(["is_even", "echo"]),
        column=st.sampled_from(COLUMNS),
        args=st.just(()),
    ),
    st.builds(
        FunctionCondition,
        function=st.just("longer_than"),
        column=st.sampled_from(COLUMNS),
        args=st.tuples(st.integers(0, 2)),
    ),
)
conditions = st.one_of(comparisons, betweens, matches, functions)
wheres = st.one_of(
    st.none(),
    st.lists(conditions, min_size=0, max_size=3).map(
        lambda conds: WhereClause(conditions=tuple(conds))
    ),
)


def reference(rows, where, udfs=UDFS):
    return [row for row in rows if where_matches(SCHEMA, row, where, udfs)]


def raised(fn):
    try:
        return "ok", fn()
    except (CatalogError, ServerError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(st.lists(rows, max_size=12), wheres)
def test_filter_rows_equals_where_matches(table, where):
    assert filter_rows(SCHEMA, table, where, UDFS) == reference(table, where)


@settings(max_examples=200)
@given(rows, wheres)
def test_compiled_predicate_agrees_row_by_row(row, where):
    test = compile_where(SCHEMA, where, UDFS)
    expected = where_matches(SCHEMA, row, where, UDFS)
    assert (True if test is None else test(row)) is expected


@pytest.mark.parametrize(
    "condition",
    [
        Comparison("v", "=", 1),
        BetweenCondition("v", 0, 2),
        MatchCondition("s", "a"),
        FunctionCondition("is_even", "v", ()),
    ],
)
def test_unknown_column_raises_the_same_catalog_error(condition):
    bad = type(condition)(**{**condition.__dict__, "column": "nope"})
    table = [(1, 2, "a b", b"")]
    where = WhereClause(conditions=(bad,))
    expected = raised(lambda: reference(table, where))
    assert expected[0] is CatalogError
    assert raised(lambda: filter_rows(SCHEMA, table, where, UDFS)) == expected


@pytest.mark.parametrize(
    "where",
    [
        WhereClause(conditions=(Comparison("nope", "=", 1),)),
        WhereClause(conditions=(FunctionCondition("missing_udf", "v", ()),)),
        WhereClause(conditions=(Comparison("v", "<>", 1),)),
    ],
)
def test_errors_are_raised_per_row_as_before(where):
    # No rows: nothing is evaluated, so nothing raises.
    assert filter_rows(SCHEMA, [], where, UDFS) == reference([], where) == []
    table = [(1, 1, "a", b""), (2, 2, "b", b"")]
    expected = raised(lambda: reference(table, where))
    assert expected[0] != "ok"
    assert raised(lambda: filter_rows(SCHEMA, table, where, UDFS)) == expected


def test_short_circuit_skips_unreachable_errors():
    # The first condition rejects every row, so the unknown column and the
    # missing UDF after it are never evaluated, row by row or compiled.
    where = WhereClause(
        conditions=(
            Comparison("v", "=", 99),
            Comparison("nope", "=", 1),
            FunctionCondition("missing_udf", "v", ()),
        )
    )
    table = [(1, 1, "a", b""), (2, None, None, None)]
    assert filter_rows(SCHEMA, table, where, UDFS) == reference(table, where) == []


def test_filter_counts_examined_and_matched():
    from repro.obs import Instrumentation

    instr = Instrumentation(enabled=True)
    table = [(k, k % 2, "", b"") for k in range(6)]
    where = WhereClause(conditions=(Comparison("v", "=", 1),))
    assert len(filter_rows(SCHEMA, table, where, UDFS, instr=instr)) == 3
    dump = instr.metrics_dump()
    assert dump["executor.rows_examined"] == 6
    assert dump["executor.rows_matched"] == 3


def test_column_index_is_positional_and_rejects_unknown_names():
    assert [SCHEMA.column_index(name) for name in COLUMNS] == [0, 1, 2, 3]
    assert SCHEMA.column("s").type == "TEXT"
    assert SCHEMA.has_column("b") and not SCHEMA.has_column("nope")
    with pytest.raises(CatalogError, match="table 't' has no column 'nope'"):
        SCHEMA.column_index("nope")
    with pytest.raises(CatalogError, match="table 't' has no column 'nope'"):
        SCHEMA.column("nope")
