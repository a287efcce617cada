"""Statement shapes: binding from a memoized shape is exactly parsing.

A statement's shape is its token stream with each literal replaced by its
type. ``repro.sql.shape`` memoizes the parse template, the digest and the
identifier spill per shape. These tests hold the memo to the plain path:

* a statement bound from a shape compiled from *another* statement of the
  same shape equals ``parse`` of it, and the shape's digest, canonical
  text and spill equal ``digest``/``canonicalize``/``token_spill`` of it;
* a shape that does not parse is never kept, and its statements raise
  ``parse``'s exact error;
* a server whose memo is forced to miss leaves exactly the same artifacts
  (heap bytes, perf-schema tables, logs, binlog, results) as one using it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError, PlanError, ReproError, SQLError
from repro.memory import BumpArena
from repro.server import MySQLServer, ServerConfig
from repro.sql import canonicalize, digest, parse, tokenize
from repro.sql import shape as shape_module
from repro.sql.lexer import KEYWORDS
from repro.sql.shape import ShapeMemo, compile_shape, shape_key, token_spill

# -- statement generator -------------------------------------------------------
#
# A statement is drawn as a list of pieces: ("kw", word), ("id", name),
# ("sym", text) or ("lit", type). Keyword casing is drawn with the pieces
# (it is part of the shape); literal values and whitespace are drawn per
# rendering, so two renderings of one piece list share a shape.

_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: s.upper() not in KEYWORDS
)
_LITERAL_TYPES = ("num", "str", "hex")
_CASINGS = (str.upper, str.lower, str.capitalize)


@st.composite
def _kw(draw, word):
    return [("kw", draw(st.sampled_from(_CASINGS))(word))]


def _id(name):
    return [("id", name)]


def _sym(text):
    return [("sym", text)]


@st.composite
def _literal(draw, allow_null=True):
    choices = _LITERAL_TYPES + (("null",) if allow_null else ())
    kind = draw(st.sampled_from(choices))
    if kind == "null":
        return draw(_kw("NULL"))
    return [("lit", kind)]


@st.composite
def _condition(draw):
    column = draw(_IDENT)
    kind = draw(st.sampled_from(("cmp", "between", "match", "udf")))
    if kind == "cmp":
        op = draw(st.sampled_from(("=", "!=", "<>", "<", "<=", ">", ">=")))
        return _id(column) + _sym(op) + draw(_literal())
    if kind == "between":
        return (_id(column) + draw(_kw("BETWEEN")) + draw(_literal())
                + draw(_kw("AND")) + draw(_literal()))
    if kind == "match":
        return (draw(_kw("MATCH")) + _sym("(") + _id(column) + _sym(",")
                + [("lit", "str")] + _sym(")"))
    pieces = _id(draw(_IDENT)) + _sym("(") + _id(column)
    for _ in range(draw(st.integers(0, 3))):
        pieces += _sym(",") + draw(_literal())
    return pieces + _sym(")")


@st.composite
def _where(draw):
    if not draw(st.booleans()):
        return []
    pieces = draw(_kw("WHERE")) + draw(_condition())
    for _ in range(draw(st.integers(0, 2))):
        pieces += draw(_kw("AND")) + draw(_condition())
    return pieces


@st.composite
def _table(draw):
    pieces = _id(draw(_IDENT))
    if draw(st.integers(0, 4)) == 0:
        pieces += _sym(".") + _id(draw(_IDENT))
    return pieces


@st.composite
def _select(draw):
    pieces = draw(_kw("SELECT"))
    kind = draw(st.sampled_from(("star", "count", "agg", "cols")))
    if kind == "star":
        pieces += _sym("*")
    elif kind == "count":
        pieces += draw(_kw("COUNT")) + _sym("(") + _sym("*") + _sym(")")
    elif kind == "agg":
        func = draw(st.sampled_from(("SUM", "MIN", "MAX", "AVG", "ASHE_SUM")))
        pieces += draw(_kw(func)) + _sym("(") + _id(draw(_IDENT)) + _sym(")")
    else:
        columns = draw(st.lists(_IDENT, min_size=1, max_size=3))
        pieces += _id(columns[0])
        for column in columns[1:]:
            pieces += _sym(",") + _id(column)
    pieces += draw(_kw("FROM")) + draw(_table()) + draw(_where())
    if kind in ("count", "agg") and draw(st.booleans()):
        pieces += draw(_kw("GROUP")) + draw(_kw("BY")) + _id(draw(_IDENT))
    if draw(st.booleans()):
        pieces += draw(_kw("ORDER")) + draw(_kw("BY")) + _id(draw(_IDENT))
    if draw(st.booleans()):
        pieces += draw(_kw("LIMIT")) + [("lit", "num")]
    return pieces


@st.composite
def _insert(draw):
    width = draw(st.integers(1, 3))
    pieces = draw(_kw("INSERT")) + draw(_kw("INTO")) + draw(_table())
    if draw(st.booleans()):
        columns = draw(st.lists(_IDENT, min_size=width, max_size=width))
        pieces += _sym("(") + _id(columns[0])
        for column in columns[1:]:
            pieces += _sym(",") + _id(column)
        pieces += _sym(")")
    pieces += draw(_kw("VALUES"))
    for row in range(draw(st.integers(1, 3))):
        if row:
            pieces += _sym(",")
        pieces += _sym("(") + draw(_literal())
        for _ in range(width - 1):
            pieces += _sym(",") + draw(_literal())
        pieces += _sym(")")
    return pieces


@st.composite
def _update(draw):
    pieces = draw(_kw("UPDATE")) + draw(_table()) + draw(_kw("SET"))
    for i in range(draw(st.integers(1, 3))):
        if i:
            pieces += _sym(",")
        pieces += _id(draw(_IDENT)) + _sym("=") + draw(_literal())
    return pieces + draw(_where())


@st.composite
def _delete(draw):
    return draw(_kw("DELETE")) + draw(_kw("FROM")) + draw(_table()) + draw(_where())


@st.composite
def _create(draw):
    pieces = draw(_kw("CREATE")) + draw(_kw("TABLE")) + draw(_table()) + _sym("(")
    for i in range(draw(st.integers(1, 3))):
        if i:
            pieces += _sym(",")
        pieces += _id(draw(_IDENT)) + draw(_kw(draw(st.sampled_from(("INT", "TEXT", "BLOB")))))
        if i == 0 and draw(st.booleans()):
            pieces += draw(_kw("PRIMARY")) + draw(_kw("KEY"))
    return pieces + _sym(")")


@st.composite
def _txn(draw):
    return draw(_kw(draw(st.sampled_from(("BEGIN", "COMMIT", "ROLLBACK")))))


@st.composite
def _statement(draw):
    pieces = draw(st.one_of(
        _select(), _insert(), _update(), _delete(), _create(), _txn()
    ))
    if draw(st.booleans()):
        pieces += _sym(";")
    return pieces


_STRING_BODY = st.text(
    alphabet=st.characters(blacklist_characters="'", blacklist_categories=("Cs",)),
    max_size=12,
)


def _literal_text(kind):
    if kind == "num":
        return st.integers(-(10 ** 15), 10 ** 15).map(str)
    if kind == "str":
        return _STRING_BODY.map(lambda s: f"'{s}'")
    return st.tuples(st.binary(max_size=8), st.booleans()).map(
        lambda b: "x'" + (b[0].hex().upper() if b[1] else b[0].hex()) + "'"
    )


@st.composite
def _render(draw, pieces, types=None):
    """SQL text for ``pieces``; ``types`` overrides the literal types."""
    texts = []
    slot = 0
    for kind, value in pieces:
        if kind == "lit":
            value = draw(_literal_text(types[slot] if types else value))
            slot += 1
        texts.append(value)
    gaps = draw(st.lists(
        st.sampled_from((" ", "  ", "\t", "\n ")),
        min_size=len(texts) + 1, max_size=len(texts) + 1,
    ))
    return gaps[0] + "".join(t + g for t, g in zip(texts, gaps[1:]))


def _outcome(fn, sql):
    try:
        return fn(sql)
    except SQLError as exc:
        return type(exc), str(exc)


def _memo_parse(memo):
    """``sql -> Statement`` the way the server parses: lex once, look the
    shape up, bind from it or fall back to ``parse``."""
    def run(sql):
        tokens = tokenize(sql)
        return parse(sql, tokens=tokens, shape=memo.lookup(sql, tokens))
    return run


# -- shape equivalence ------------------------------------------------------------


class TestShapeEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bind_equals_parse_across_literals(self, data):
        pieces = data.draw(_statement())
        first = data.draw(_render(pieces))
        second = data.draw(_render(pieces))
        tokens = tokenize(second)
        assert shape_key(tokenize(first)) == shape_key(tokens)
        shape = compile_shape(first, tokenize(first))
        expected = _outcome(parse, second)
        if shape is None:
            assert isinstance(expected, tuple) and expected[0] is ParseError
            return
        assert parse(second, tokens=tokens, shape=shape) == expected
        assert shape.digest == digest(second)
        assert shape.canonical == canonicalize(second)
        assert list(shape.spill(tokens)) == token_spill(tokens)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_broken_shapes_raise_parse_errors(self, data):
        pieces = data.draw(_statement())
        edit = data.draw(st.sampled_from(("drop", "dup", "swap", "insert")))
        i = data.draw(st.integers(0, len(pieces) - 1))
        if edit == "drop":
            pieces = pieces[:i] + pieces[i + 1:]
        elif edit == "dup":
            pieces = pieces[:i + 1] + pieces[i:]
        elif edit == "swap":
            j = data.draw(st.integers(0, len(pieces) - 1))
            pieces = list(pieces)
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            extra = data.draw(st.sampled_from((
                ("sym", ","), ("sym", "("), ("sym", ")"), ("sym", "*"),
                ("sym", "?"), ("sym", "="), ("kw", "FROM"), ("kw", "AND"),
                ("kw", "NULL"), ("id", "q"), ("lit", "num"), ("lit", "str"),
            )))
            pieces = pieces[:i] + [extra] + pieces[i:]
        sql = data.draw(_render(pieces))
        memo = ShapeMemo()
        assert _outcome(_memo_parse(memo), sql) == _outcome(parse, sql)
        shape = memo.lookup(sql, tokenize(sql))
        # A shape is kept exactly when it parses.
        assert len(memo) == (shape is not None)
        assert (shape is None) == isinstance(_outcome(parse, sql), tuple)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_literal_types_split_shapes(self, data):
        pieces = data.draw(_statement())
        types = [value for kind, value in pieces if kind == "lit"]
        if not types:
            pieces = pieces + [("lit", "num")]
            types = ["num"]
        i = data.draw(st.integers(0, len(types) - 1))
        other = list(types)
        other[i] = data.draw(st.sampled_from([t for t in _LITERAL_TYPES if t != types[i]]))
        first = data.draw(_render(pieces, types))
        second = data.draw(_render(pieces, other))
        assert shape_key(tokenize(first)) != shape_key(tokenize(second))
        memo = ShapeMemo()
        run = _memo_parse(memo)
        assert _outcome(run, first) == _outcome(parse, first)
        assert _outcome(run, second) == _outcome(parse, second)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_memo_across_statements(self, data):
        """Statements that differ only in identifier or keyword case have
        different shapes; one memo serves them all exactly."""
        pieces = data.draw(_statement())
        variants = [
            pieces,
            [(k, v.swapcase() if k == "id" else v) for k, v in pieces],
            [(k, v.swapcase() if k == "kw" else v) for k, v in pieces],
            data.draw(_statement()),
        ]
        statements = [data.draw(_render(v)) for v in variants for _ in range(2)]
        memo = ShapeMemo()
        run = _memo_parse(memo)
        for sql in data.draw(st.permutations(statements)):
            assert _outcome(run, sql) == _outcome(parse, sql), sql

    def test_literal_kinds_bind_exactly(self):
        memo = ShapeMemo()
        run = _memo_parse(memo)
        for sql in (
            "SELECT * FROM t WHERE a = -5 AND b = '' AND c = x'' LIMIT 0",
            "SELECT * FROM t WHERE a = 17 AND b = 'é ü' AND c = x'0aFF' LIMIT -3",
            "SELECT * FROM t WHERE a = NULL AND b = 'x' AND c = x'00' LIMIT 1",
            "insert into t values (1, 'a', x'01'), (NULL, '', x'')",
            "INSERT INTO t VALUES (2, 'bb', x'02'), (3, 'c', x'')",
            "SELECT count(*) FROM t WHERE MATCH(s, '') GROUP BY v",
            "SELECT count(*) FROM t WHERE MATCH(s, 'kw') GROUP BY v",
            "SELECT * FROM t WHERE ore_cmp(c, x'ab', 3, 'k', NULL)",
            "UPDATE t SET a = -1, b = 'q' WHERE id BETWEEN -10 AND 10",
            "DELETE FROM t WHERE id <> 4;",
        ):
            assert _outcome(run, sql) == _outcome(parse, sql), sql
        assert len(memo) == 8

    @pytest.mark.parametrize("sql", ["", "   ", "\n\t"])
    def test_empty_statement_is_never_a_shape(self, sql):
        memo = ShapeMemo()
        with pytest.raises(ParseError, match="empty statement"):
            _memo_parse(memo)(sql)
        assert len(memo) == 0


class TestShapeMemo:
    def test_fifo_eviction_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(shape_module, "MAX_SHAPES", 3)
        memo = ShapeMemo()
        statements = [f"SELECT c{i} FROM t WHERE id = 1" for i in range(5)]
        shapes = [memo.lookup(sql, tokenize(sql)) for sql in statements]
        assert len(memo) == 3
        # The two oldest were evicted; the three newest are still kept.
        for sql, shape in zip(statements[2:], shapes[2:]):
            assert memo.lookup(sql, tokenize(sql)) is shape
        assert memo.lookup(statements[0], tokenize(statements[0])) is not shapes[0]

    def test_same_shape_is_one_entry(self):
        memo = ShapeMemo()
        for k in range(50):
            sql = f"SELECT v, s FROM t WHERE id = {k}"
            memo.lookup(sql, tokenize(sql))
        assert len(memo) == 1

    def test_memo_is_per_server(self):
        a, b = MySQLServer(), MySQLServer()
        assert a.shapes is not b.shapes
        assert not any(
            isinstance(value, dict) for name, value in vars(shape_module).items()
            if not name.startswith("__")
        )


# -- artifact identity --------------------------------------------------------------


def _stream():
    """A mixed statement stream: repeated shapes with new literals, chunk
    crossings, an oversized literal, and lexer, parse and plan errors."""
    out = ["CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)"]
    for k in range(12):
        out.append(f"INSERT INTO t (id, v, s) VALUES ({k}, {k * 7 % 5}, 'row {k} kw{k % 3}')")
    out += [f"SELECT v, s FROM t WHERE id = {k}" for k in range(0, 12, 3)]
    out += [
        "SELECT count(*) FROM t WHERE v = 2",
        "SELECT count(*) FROM t WHERE v = 4",
        "SELECT s FROM t WHERE id BETWEEN 2 AND 6 ORDER BY s LIMIT 3",
        "SELECT s FROM t WHERE MATCH(s, 'kw1')",
        "select s from t where match(s, 'kw2')",
        "UPDATE t SET v = 9, s = 'updated' WHERE id = 4",
        "DELETE FROM t WHERE id = 5",
        "BEGIN",
        "INSERT INTO t (id, v, s) VALUES (100, 1, 'in txn'), (101, 2, '')",
        "COMMIT",
        "BEGIN",
        "UPDATE t SET s = 'rolled back' WHERE id = 100",
        "ROLLBACK",
    ]
    # Statement copy + spill runs of growing size: some fit what is left
    # of the 4 KiB chunk, some cross into a new chunk.
    for n in range(900, 1500, 61):
        out.append(f"SELECT v FROM t WHERE s = '{'a' * n}' AND id = {n}")
    # A string literal larger than a whole chunk.
    out.append(f"INSERT INTO t (id, v, s) VALUES (200, 0, '{'z' * 5000}')")
    out.append(f"SELECT id FROM t WHERE s = '{'y' * 4200}'")
    out += [
        "SELECT v FROM t WHERE id = 'abc",       # lexer: unterminated string
        "SELECT v FROM t WHERE s = x'zz'",       # lexer: invalid hex
        "SELECT v FROM t WHERE id = 1 §",        # lexer: unexpected character
        "",                                      # parse: empty statement
        "SELECT FROM t",                         # parse
        "SELECT v FROM t LIMIT 'x'",             # parse
        "SELECT v, s FROM t WHERE id = 1 1",     # parse: trailing input
        "SELECT s FROM t WHERE id BETWEEN 'a' AND 3",  # plan: non-int bounds
        "SELECT nope FROM t WHERE id = 1",       # catalog: unknown column
        "SELECT v FROM missing WHERE id = 1",    # catalog: unknown table
        "INSERT INTO t (id, v, s) VALUES (1, 1, 'dup')",  # duplicate key
        "SELECT v, s FROM t WHERE id = 7",
    ]
    return out


def _run(config):
    server = MySQLServer(config)
    sessions = [server.connect("app"), server.connect("app")]
    results = []
    for i, sql in enumerate(_stream()):
        try:
            results.append(server.execute(sessions[i % 2], sql))
        except ReproError as exc:
            # No second error raised while accounting the first.
            assert not isinstance(exc.__context__, SQLError), sql
            results.append((type(exc), str(exc)))
    ps = server.perf_schema
    return {
        "results": results,
        "heap": server.heap.snapshot(),
        "heap_stats": server.heap.stats,
        "current": ps.events_statements_current(),
        "history": ps.events_statements_history(),
        "digests": ps.events_statements_summary_by_digest(),
        "statements_total": ps.statements_total,
        "general_log": server.general_log.entries,
        "slow_log": server.slow_log.entries,
        "binlog": server.engine.binlog.events,
        "trace": server.obs.trace_spans() if server.obs.enabled else (),
    }


_CONFIGS = {
    "default": ServerConfig(),
    "logs+obs": ServerConfig(
        general_log_enabled=True, long_query_time=0.0, obs_enabled=True,
        perf_schema_history_size=3,
    ),
    "obs-only-digest": ServerConfig(obs_enabled=True, perf_schema_enabled=False),
}


class TestArtifactIdentity:
    @pytest.mark.parametrize("config", list(_CONFIGS), ids=list(_CONFIGS))
    @pytest.mark.parametrize("miss", ["uncached", "recompiled"])
    def test_memo_leaves_the_same_artifacts(self, monkeypatch, config, miss):
        with_memo = _run(_CONFIGS[config])
        if miss == "uncached":
            # Every statement takes the plain parse/digest/spill path.
            monkeypatch.setattr(ShapeMemo, "lookup", lambda self, sql, tokens: None)
        else:
            # Every statement compiles its shape afresh and binds from it.
            monkeypatch.setattr(
                ShapeMemo, "lookup", lambda self, sql, tokens: compile_shape(sql, tokens)
            )
        without = _run(_CONFIGS[config])
        assert with_memo.keys() == without.keys()
        for name in with_memo:
            assert with_memo[name] == without[name], name

    def test_stream_exercises_every_path(self, monkeypatch):
        runs = []
        alloc_many = BumpArena.alloc_many

        def spy(arena, parts):
            total = sum(len(part) for part in parts)
            runs.append((arena._cursor + total > arena._chunk_size,
                         max(len(part) for part in parts)))
            return alloc_many(arena, parts)

        monkeypatch.setattr(BumpArena, "alloc_many", spy)
        server = MySQLServer()
        session = server.connect("app")
        kinds = set()
        for sql in _stream():
            try:
                server.execute(session, sql)
                kinds.add("ok")
            except LexerError:
                kinds.add("lex")
            except ParseError:
                kinds.add("parse")
            except PlanError:
                kinds.add("plan")
            except ReproError:
                kinds.add("server")
        assert kinds == {"ok", "lex", "parse", "plan", "server"}
        chunk = session.query_arena._chunk_size
        assert any(crosses for crosses, _ in runs)
        assert any(not crosses for crosses, _ in runs)
        assert any(crosses and biggest <= chunk for crosses, biggest in runs)
        assert any(biggest > chunk for _, biggest in runs)
        # Every statement is accounted, the lexically invalid ones too
        # (with a NULL digest that never reaches the digest summary).
        ps = server.perf_schema
        assert ps.statements_total == len(_stream())
        assert all(s.digest for s in ps.events_statements_summary_by_digest())


class TestLexerErrorAccounting:
    def test_invalid_statement_is_recorded_with_null_digest(self):
        server = MySQLServer()
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        summaries = len(server.perf_schema.events_statements_summary_by_digest())
        with pytest.raises(LexerError) as info:
            server.execute(session, "SELECT v FROM t WHERE id = 'abc")
        assert str(info.value) == "unterminated string literal (at position 27)"
        assert info.value.__context__ is None and info.value.__cause__ is None
        ps = server.perf_schema
        assert ps.statements_total == 2
        last = ps.events_statements_history()[-1]
        assert last.sql_text == "SELECT v FROM t WHERE id = 'abc"
        assert last.digest == ""
        assert ps.events_statements_current()[0] is last
        assert len(ps.events_statements_summary_by_digest()) == summaries
        # The session recovered and the next statement runs normally.
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 2)")
        assert ps.statements_total == 3

    def test_obs_digest_path_does_not_relex(self):
        server = MySQLServer(ServerConfig(obs_enabled=True, perf_schema_enabled=False))
        session = server.connect("app")
        with pytest.raises(LexerError) as info:
            server.execute(session, "SELECT x'zz' FROM t")
        assert not isinstance(info.value.__context__, SQLError)
        assert str(info.value) == "invalid hex literal \"x'zz'\" (at position 7)"
