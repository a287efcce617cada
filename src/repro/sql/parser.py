"""Recursive-descent parser for the SQL dialect."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from .ast import (
    Aggregate,
    BeginTxn,
    CommitTxn,
    RollbackTxn,
    FunctionCondition,
    BetweenCondition,
    ColumnDef,
    Comparison,
    Condition,
    CreateTable,
    Delete,
    Insert,
    Literal,
    MatchCondition,
    Select,
    Statement,
    Update,
    WhereClause,
)
from .lexer import LITERAL_TYPES, Token, TokenType, tokenize


class _Parser:
    def __init__(self, sql: str, tokens=None) -> None:
        self.raw = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.pos = 0

    # -- token stream helpers -------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.advance()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected keyword {word}, got {token.text!r} "
                f"at position {token.position}"
            )
        return token

    def expect_punct(self, symbol: str) -> Token:
        token = self.advance()
        if token.type is not TokenType.PUNCT or token.text != symbol:
            raise ParseError(
                f"expected {symbol!r}, got {token.text!r} "
                f"at position {token.position}"
            )
        return token

    def expect_identifier(self) -> str:
        token = self.advance()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(
                f"expected identifier, got {token.text!r} "
                f"at position {token.position}"
            )
        return str(token.value)

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def accept_punct(self, symbol: str) -> bool:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.text == symbol:
            self.advance()
            return True
        return False

    def literal(self) -> Literal:
        token = self.advance()
        if token.type in LITERAL_TYPES:
            return token.value
        if token.is_keyword("NULL"):
            return None
        raise ParseError(
            f"expected literal, got {token.text!r} at position {token.position}"
        )

    # -- grammar ---------------------------------------------------------

    def statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("SELECT"):
            stmt: Statement = self.select()
        elif token.is_keyword("INSERT"):
            stmt = self.insert()
        elif token.is_keyword("UPDATE"):
            stmt = self.update()
        elif token.is_keyword("DELETE"):
            stmt = self.delete()
        elif token.is_keyword("CREATE"):
            stmt = self.create_table()
        elif token.is_keyword("BEGIN"):
            self.advance()
            stmt = BeginTxn(raw=self.raw)
        elif token.is_keyword("COMMIT"):
            self.advance()
            stmt = CommitTxn(raw=self.raw)
        elif token.is_keyword("ROLLBACK"):
            self.advance()
            stmt = RollbackTxn(raw=self.raw)
        else:
            raise ParseError(
                f"unsupported statement starting with {token.text!r}"
            )
        self.accept_punct(";")
        if self.peek().type is not TokenType.EOF:
            extra = self.peek()
            raise ParseError(
                f"trailing input at position {extra.position}: {extra.text!r}"
            )
        return stmt

    def select(self) -> Select:
        self.expect_keyword("SELECT")
        columns: List[str] = []
        aggregate: Optional[Aggregate] = None
        if self.accept_punct("*"):
            pass
        elif self.peek().is_keyword("COUNT"):
            self.advance()
            self.expect_punct("(")
            self.expect_punct("*")
            self.expect_punct(")")
            aggregate = Aggregate(func="count", column=None)
        elif any(
            self.peek().is_keyword(word)
            for word in ("ASHE_SUM", "SUM", "MIN", "MAX", "AVG")
        ):
            func = self.advance().text.lower()
            self.expect_punct("(")
            column = self.expect_identifier()
            self.expect_punct(")")
            aggregate = Aggregate(func=func, column=column)
        else:
            columns.append(self.expect_identifier())
            while self.accept_punct(","):
                columns.append(self.expect_identifier())
        self.expect_keyword("FROM")
        table = self.table_name()
        where = self.where_clause()
        group_by = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = self.expect_identifier()
            if aggregate is None:
                raise ParseError("GROUP BY requires an aggregate select list")
        order_by = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.expect_identifier()
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.type is not TokenType.NUMBER:
                raise ParseError(f"LIMIT expects a number, got {token.text!r}")
            limit = token.value
        return Select(
            raw=self.raw,
            table=table,
            columns=tuple(columns),
            aggregate=aggregate,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def table_name(self) -> str:
        # Allow schema-qualified names (information_schema.processlist).
        name = self.expect_identifier()
        while self.accept_punct("."):
            name += "." + self.expect_identifier()
        return name

    def insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.table_name()
        columns: List[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_identifier())
            while self.accept_punct(","):
                columns.append(self.expect_identifier())
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: List[Tuple[Literal, ...]] = []
        while True:
            self.expect_punct("(")
            values: List[Literal] = [self.literal()]
            while self.accept_punct(","):
                values.append(self.literal())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return Insert(
            raw=self.raw, table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.table_name()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, Literal]] = []
        while True:
            column = self.expect_identifier()
            token = self.advance()
            if token.type is not TokenType.OPERATOR or token.text != "=":
                raise ParseError(
                    f"expected '=' in assignment, got {token.text!r}"
                )
            assignments.append((column, self.literal()))
            if not self.accept_punct(","):
                break
        where = self.where_clause()
        return Update(
            raw=self.raw, table=table, assignments=tuple(assignments), where=where
        )

    def delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.table_name()
        where = self.where_clause()
        return Delete(raw=self.raw, table=table, where=where)

    def create_table(self) -> CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        table = self.table_name()
        self.expect_punct("(")
        columns: List[ColumnDef] = []
        while True:
            name = self.expect_identifier()
            type_token = self.advance()
            if type_token.type is not TokenType.KEYWORD or type_token.text.upper() not in (
                "INT",
                "TEXT",
                "BLOB",
            ):
                raise ParseError(
                    f"expected column type, got {type_token.text!r}"
                )
            primary = False
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary = True
            columns.append(
                ColumnDef(name=name, type=type_token.text.upper(), primary_key=primary)
            )
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        primaries = [c for c in columns if c.primary_key]
        if len(primaries) > 1:
            raise ParseError("at most one PRIMARY KEY column is supported")
        return CreateTable(raw=self.raw, table=table, columns=tuple(columns))

    def where_clause(self) -> Optional[WhereClause]:
        if not self.accept_keyword("WHERE"):
            return None
        conditions: List[Condition] = [self.condition()]
        while self.accept_keyword("AND"):
            conditions.append(self.condition())
        return WhereClause(conditions=tuple(conditions))

    def condition(self) -> Condition:
        if self.peek().is_keyword("MATCH"):
            self.advance()
            self.expect_punct("(")
            column = self.expect_identifier()
            self.expect_punct(",")
            token = self.advance()
            if token.type is not TokenType.STRING:
                raise ParseError(
                    f"MATCH expects a string keyword, got {token.text!r}"
                )
            self.expect_punct(")")
            return MatchCondition(column=column, keyword=token.value)
        if (
            self.peek().type is TokenType.IDENTIFIER
            and self.tokens[self.pos + 1].type is TokenType.PUNCT
            and self.tokens[self.pos + 1].text == "("
        ):
            function = self.expect_identifier()
            self.expect_punct("(")
            column = self.expect_identifier()
            args = []
            while self.accept_punct(","):
                args.append(self.literal())
            self.expect_punct(")")
            return FunctionCondition(
                function=function.lower(), column=column, args=tuple(args)
            )
        column = self.expect_identifier()
        if self.accept_keyword("BETWEEN"):
            low = self.literal()
            self.expect_keyword("AND")
            high = self.literal()
            return BetweenCondition(column=column, low=low, high=high)
        token = self.advance()
        if token.type is not TokenType.OPERATOR:
            raise ParseError(
                f"expected comparison operator, got {token.text!r}"
            )
        op = "!=" if token.text == "<>" else token.text
        return Comparison(column=column, op=op, value=self.literal())


def parse(sql: str, tokens=None, shape=None) -> Statement:
    """Parse one SQL statement; raises :class:`ParseError` on bad input.

    ``tokens`` may carry the statement's pre-lexed token stream so hot
    paths that already tokenized (the server spills token strings into the
    session arena before parsing) lex each statement exactly once. With
    ``tokens``, ``shape`` may carry their compiled
    :class:`~repro.sql.shape.Shape`: the statement is then bound from the
    shape's AST template instead of parsed.
    """
    if shape is not None:
        return shape.bind(sql, shape.literal_values(tokens))
    if not sql or not sql.strip():
        raise ParseError("empty statement")
    return _Parser(sql, tokens=tokens).statement()
