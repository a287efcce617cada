"""MySQL ``performance_schema`` statement-digest canonicalization.

Section 4 of the paper: MySQL "stores statistics about all query 'types'
made since the database was last restarted. The 'type' is determined by a
simple canonicalization algorithm which removes the arguments but preserves
the select-from-where structure of the query and the attributes it uses."

This module reproduces that algorithm: literals collapse to ``?``, keywords
are uppercased, whitespace is normalized, and identifiers (crucially,
**column names**) are preserved. The paper's examples hold::

    SELECT * FROM CUSTOMERS WHERE STATE='IN'
    SELECT * FROM CUSTOMERS WHERE STATE='AZ'
        -> same digest

    SELECT * FROM CUSTOMERS WHERE AGE >=25
    SELECT * FROM CUSTOMERS WHERE STATE='IN' AND AGE >=25
        -> two further, distinct digests

Identifier preservation is also the crack in SPLASHE: rewritten queries
name a per-plaintext column, so each plaintext value gets its own digest row
and the digest table accumulates an exact query histogram (paper §6).
"""

from __future__ import annotations

import hashlib
from typing import List

from .lexer import LITERAL_TYPES, TokenType, tokenize


def canonicalize(sql: str, tokens=None, shape=None) -> str:
    """Return the canonical "query type" text for ``sql``.

    Runs of ``?`` produced by multi-value lists (``VALUES (?, ?, ?)``)
    stay distinct per position, matching MySQL's behaviour of preserving
    statement structure. ``tokens`` may carry a pre-lexed stream to avoid
    re-tokenizing on the statement hot path; ``shape`` may carry the
    statement's compiled :class:`~repro.sql.shape.Shape`, whose canonical
    text was computed once for every statement of that shape.
    """
    if shape is not None:
        return shape.canonical
    if tokens is None:
        tokens = tokenize(sql)
    parts: List[str] = []
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type in LITERAL_TYPES:
            parts.append("?")
        elif token.type is TokenType.KEYWORD:
            parts.append(token.text.upper())
        elif token.type is TokenType.IDENTIFIER:
            # MySQL's DIGEST_TEXT preserves identifiers as written (and on
            # Linux, table names are case-sensitive); only keywords are
            # normalized. Identifier preservation matters twice in the
            # paper: random column names survive into the digest text (§5),
            # and SPLASHE's per-plaintext columns get distinct digests (§6).
            parts.append(token.text)
        else:
            parts.append(token.text)
    # Join with spaces, then tighten punctuation the way mysql's digest text
    # renders (no space before commas/closing parens, none after opening).
    text = " ".join(parts)
    for before, after in ((" ,", ","), ("( ", "("), (" )", ")"), (" ;", ";"),
                          (" .", "."), (". ", ".")):
        text = text.replace(before, after)
    return text


def digest(sql: str, tokens=None, shape=None) -> str:
    """Return the hex digest identifying ``sql``'s canonical form."""
    if shape is not None:
        return shape.digest
    return digest_of(canonicalize(sql, tokens=tokens))


def digest_of(canonical: str) -> str:
    """Return the hex digest of an already canonical text."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]
