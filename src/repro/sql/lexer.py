"""SQL tokenizer.

Produces a flat token stream with source positions. Literals keep both their
parsed value and their raw text: the raw text is what ends up verbatim in the
general log, binlog, and the process heap — the whole point of the paper —
while the parsed value feeds execution.
"""

from __future__ import annotations

import enum
import re
from typing import List, Union

from ..errors import LexerError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "PRIMARY", "KEY",
    "INT", "TEXT", "BLOB", "BETWEEN", "MATCH", "COUNT", "ASHE_SUM",
    "SUM", "MIN", "MAX", "AVG", "GROUP",
    "ORDER", "BY", "LIMIT", "NOT", "NULL", "BEGIN", "COMMIT", "ROLLBACK",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    HEX = "hex"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Token types that carry a literal value. A statement's digest and parse
#: depend on their types, never on their values.
LITERAL_TYPES = (TokenType.NUMBER, TokenType.STRING, TokenType.HEX)


class Token:
    """One lexical token with its raw source text and position.

    A hand-rolled slotted class rather than a dataclass: tokens are the
    single most-allocated object in the hot path (every statement is a
    dozen of them), and the frozen-dataclass ``__init__`` costs ~3x a
    plain one.
    """

    __slots__ = ("type", "text", "value", "position")

    def __init__(
        self,
        type: TokenType,
        text: str,
        value: Union[str, int, bytes, None],
        position: int,
    ) -> None:
        self.type = type
        self.text = text
        self.value = value
        self.position = position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.type is other.type
            and self.text == other.text
            and self.value == other.value
            and self.position == other.position
        )

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, text={self.text!r}, "
            f"value={self.value!r}, position={self.position!r})"
        )

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text.upper() == word


# "?" appears in canonicalized digest text; accepting it keeps the lexer
# total over its own canonical output (the parser still rejects it).
#
# One compiled master pattern (hot path: every statement is lexed exactly
# once and the token list threaded through parse/digest/spill). Alternation
# order matters: ``hex`` before ``word`` so a lone ``x`` stays an
# identifier but ``x'..'`` lexes as a literal, and explicit ASCII digits
# only — str.isdigit() accepts unicode digits like "²" that int() then
# rejects (found by fuzzing). ``[^\W\d]\w*`` is the regex spelling of the
# historical scanner's identifier rule (leading isalpha()/underscore,
# isalnum()/underscore continuation, unicode included).
_MASTER_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<hex>x'[^']*')"
    r"|(?P<str>'[^']*')"
    r"|(?P<num>-?[0-9]+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<op><=|>=|!=|<>|[=<>])"
    r"|(?P<punct>[(),*;.?])"
)


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`LexerError` on invalid input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER_RE.match
    pos = 0
    n = len(sql)
    while pos < n:
        m = match(sql, pos)
        if m is None:
            ch = sql[pos]
            if ch.isspace():  # non-ASCII whitespace the \s class misses
                pos += 1
                continue
            if ch == "'":
                raise LexerError("unterminated string literal", pos)
            if ch == "x" and pos + 1 < n and sql[pos + 1] == "'":
                raise LexerError("unterminated hex literal", pos)
            raise LexerError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        raw = m.group()
        if kind == "ws":
            pos = m.end()
            continue
        if kind == "word":
            token_type = (
                TokenType.KEYWORD if raw.upper() in KEYWORDS
                else TokenType.IDENTIFIER
            )
            append(Token(token_type, raw, raw, pos))
        elif kind == "num":
            append(Token(TokenType.NUMBER, raw, int(raw), pos))
        elif kind == "str":
            append(Token(TokenType.STRING, raw, raw[1:-1], pos))
        elif kind == "hex":
            try:
                value = bytes.fromhex(raw[2:-1])
            except ValueError:
                raise LexerError(f"invalid hex literal {raw!r}", pos) from None
            append(Token(TokenType.HEX, raw, value, pos))
        elif kind == "op":
            append(Token(TokenType.OPERATOR, raw, raw, pos))
        else:
            append(Token(TokenType.PUNCT, raw, raw, pos))
        pos = m.end()
    append(Token(TokenType.EOF, "", None, n))
    return tokens
