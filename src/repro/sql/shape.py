"""Statement shapes: the work a statement's literal values cannot change.

MySQL's digest "removes the arguments but preserves the select-from-where
structure" (paper §4). Two statements that differ only in their literal
values have the same **shape**: the token stream with each literal
replaced by its type. The parser checks token types and texts and never a
literal value, so three things are functions of the shape alone:

* the parse outcome — kept as an AST template whose literal values are
  slots, bound per statement by :meth:`Shape.bind`;
* the canonical digest text and its hash;
* the identifier part of the heap-residue spill (:func:`token_spill`).

:class:`ShapeMemo` compiles each shape once and keeps it. It is the
simulator's bookkeeping, not the simulated server's: it lives outside the
simulated heap and no snapshot provider reads it, so it is not a new
leakage artifact, and every artifact the server writes is the same with or
without it. A shape that does not parse is never kept; its statements take
the plain :func:`~repro.sql.parser.parse` path and raise its exact error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParseError
from .ast import Literal, Statement
from .digest import canonicalize, digest_of
from .lexer import LITERAL_TYPES, Token, TokenType
from .parser import _Parser

#: Shapes one :class:`ShapeMemo` keeps; the oldest is evicted first.
MAX_SHAPES = 1024


def shape_key(tokens: Sequence[Token]) -> tuple:
    """The shape of a token stream: literals by type, everything else by text."""
    return tuple([t.type if t.type in LITERAL_TYPES else t.text for t in tokens])


def token_spill(tokens: Sequence[Token]) -> List[bytes]:
    """The statement's lexer and parser string copies, in arena order.

    The lexer keeps the raw token text, the parser keeps the parsed value:
    two copies per identifier and string literal.
    """
    parts: List[bytes] = []
    for token in tokens:
        if token.type is TokenType.IDENTIFIER or token.type is TokenType.STRING:
            parts.append(token.text.encode("utf-8"))   # lexer copy
            parts.append(token.value.encode("utf-8"))  # parser copy
    return parts


class _Slot:
    """AST-template stand-in for the ``index``-th literal value."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


#: AST-template stand-in for the statement's ``raw`` text.
_RAW = _Slot(-1)


def _binder(node):
    """``(raw, values) -> node`` with its slots filled; ``None`` when ``node``
    holds no slot and is reused as is."""
    if node is _RAW:
        return lambda raw, values: raw
    if type(node) is _Slot:
        index = node.index
        return lambda raw, values: values[index]
    if type(node) is tuple:
        items = node
    else:
        names = getattr(type(node), "__dataclass_fields__", None)
        if names is None:
            return None
        items = tuple([getattr(node, name) for name in names])
    binders = [_binder(item) for item in items]
    filled = [(i, b) for i, b in enumerate(binders) if b is not None]
    if not filled:
        return None
    make = tuple if type(node) is tuple else (lambda args, cls=type(node): cls(*args))

    def bind(raw, values):
        args = list(items)
        for i, b in filled:
            args[i] = b(raw, values)
        return make(args)

    return bind


class Shape:
    """Everything about a statement that its literal values cannot change."""

    __slots__ = (
        "canonical", "digest", "positions", "_bind", "_spill", "_spill_constant",
    )

    def __init__(self, sql: str, tokens: Sequence[Token], template: Statement) -> None:
        self.canonical = canonicalize(sql, tokens=tokens)
        self.digest = digest_of(self.canonical)
        #: Token indices of the literals, in slot order.
        self.positions: Tuple[int, ...] = tuple(
            i for i, t in enumerate(tokens) if t.type in LITERAL_TYPES
        )
        self._bind = _binder(template)
        # Identifier copies are constant; a string literal's copies are
        # taken from its token (an int entry: the token index).
        spill: list = []
        for i, token in enumerate(tokens):
            if token.type is TokenType.STRING:
                spill.append(i)
            elif token.type is TokenType.IDENTIFIER:
                spill.extend(token_spill((token,)))
        self._spill: tuple = tuple(spill)
        self._spill_constant = all(type(item) is bytes for item in spill)

    def literal_values(self, tokens: Sequence[Token]) -> List[Literal]:
        """The values of a same-shape statement's literals, in slot order."""
        return [tokens[i].value for i in self.positions]

    def bind(self, sql: str, values: Sequence[Literal]) -> Statement:
        """The statement ``parse(sql)`` returns, built from the template."""
        return self._bind(sql, values)

    def spill(self, tokens: Sequence[Token]) -> Sequence[bytes]:
        """:func:`token_spill` of a same-shape statement."""
        if self._spill_constant:
            return self._spill
        parts: List[bytes] = []
        for item in self._spill:
            if type(item) is int:
                parts.extend(token_spill((tokens[item],)))
            else:
                parts.append(item)
        return parts


def compile_shape(sql: str, tokens: Sequence[Token]) -> Optional[Shape]:
    """The shape of ``tokens``, or ``None`` when it does not parse."""
    template_tokens = list(tokens)
    slot = 0
    for i, token in enumerate(tokens):
        if token.type in LITERAL_TYPES:
            template_tokens[i] = Token(token.type, token.text, _Slot(slot), token.position)
            slot += 1
    try:
        template = _Parser(_RAW, tokens=template_tokens).statement()
    except ParseError:
        return None
    return Shape(sql, tokens, template)


class ShapeMemo:
    """A bounded map from shape to compiled :class:`Shape`, one per server."""

    def __init__(self) -> None:
        self._shapes: Dict[tuple, Shape] = {}

    def lookup(self, sql: str, tokens: Sequence[Token]) -> Optional[Shape]:
        """The shape of ``sql``'s tokens, compiled on first sight; ``None``
        (never kept) when it does not parse."""
        key = shape_key(tokens)
        shape = self._shapes.get(key)
        if shape is None:
            shape = compile_shape(sql, tokens)
            if shape is not None:
                if len(self._shapes) >= MAX_SHAPES:
                    del self._shapes[next(iter(self._shapes))]
                self._shapes[key] = shape
        return shape

    def __len__(self) -> int:
        return len(self._shapes)
