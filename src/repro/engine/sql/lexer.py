"""SQL tokenizer.

Produces a flat token stream for the parser: keywords (case-insensitive),
identifiers, numeric and string literals, operators and punctuation.
Comments (``-- ...`` line comments and ``/* ... */`` blocks, both used in
the paper's listing) are skipped.  One compiled master expression
scans the text: each token kind is a named group, and one ``finditer``
walks the statement, so the per-character work happens inside ``re``.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "asc", "desc", "limit", "as", "join", "inner", "cross",
    "on", "and", "or", "not", "between", "in", "is", "null", "like",
    "case", "when", "then", "else", "end", "create", "table", "primary",
    "key", "insert", "into", "values", "update", "set", "delete",
    "truncate", "drop", "view", "exists", "if", "union", "all", "true",
    "false", "exec", "execute", "top", "offset", "left", "outer",
    "analyze", "materialized", "refresh", "with",
}


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.value}:{self.value}"


#: Whitespace and comments, skipped in front of every token.  Some
#: token alternative always matches where the skip ends (``other``
#: takes any character, ``end`` the end of the text), so the engine
#: never backtracks into the skip.
_SKIP = r"(?:\s+|--[^\n]*\n?|/\*.*?\*/)*"

#: One alternative per token kind, tried in this order where the skip
#: ends: numbers before punctuation (``.5``), an unclosed ``/*`` before
#: the ``/`` operator.  The ``unterminated_*`` arms match only where
#: the complete form failed, ``other`` any single character and
#: ``end`` the end of the text, so ``finditer`` tiles the whole text.
#: Strings and brackets are unrolled loops, which match in one pass;
#: a string's closing quote must not be the first of an escaped ``''``,
#: so a backtracked shorter string never matches.  ``{digit}`` is the class ``str.isdigit`` accepts and
#: ``{ident}`` the non-ASCII characters whose lowercase is an
#: identifier letter (``\s`` already is exactly ``str.isspace``).
_TOKENS = "|".join((
    r"(?P<word>[a-zA-Z_@#{ident}][a-zA-Z_@#{ident}0-9$]*)",
    r"(?P<number>(?:{digit}+(?:\.{digit}*)?|\.{digit}+)"
    r"(?:[eE][+-]?{digit}+)?)",
    r"(?P<unterminated_comment>/\*)",
    r"(?P<operator><=|>=|!=|<>|[=<>+\-*/%])",
    r"(?P<punct>[(),.;])",
    r"(?P<string>'[^']*(?:''[^']*)*'(?!'))",
    r"(?P<bracket>\[[^\]]*\])",
    r"(?P<unterminated_string>')",
    r"(?P<unterminated_bracket>\[)",
    r"(?P<other>.)",
    r"(?P<end>\Z)",
))

_UNTERMINATED = {
    "unterminated_comment": "unterminated block comment",
    "unterminated_string": "unterminated string literal",
    "unterminated_bracket": "unterminated [identifier]",
}

#: The digits ``str.isdigit`` accepts beyond ``\d`` (superscripts,
#: circled numbers: digits that are not decimal).  All of them lie in
#: the first two Unicode planes, so the scan stops there.
_EXTRA_DIGITS = "".join(
    c for c in map(chr, range(0x20000)) if c.isdigit() and not c.isdecimal()
)

#: The master expression.  The Kelvin sign is the one non-ASCII
#: character whose lowercase is an identifier letter (``k``).
_SCANNER = re.compile(
    _SKIP + "(?:" + _TOKENS.format(
        digit=rf"[\d{re.escape(_EXTRA_DIGITS)}]", ident="\u212a",
    ) + ")",
    re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        start = match.start(kind)
        if kind == "word":
            value = value.lower()
            append(Token(
                TokenType.KEYWORD if value in KEYWORDS else TokenType.IDENT,
                value, start,
            ))
        elif kind == "number":
            append(Token(TokenType.NUMBER, value, start))
        elif kind == "operator":
            append(Token(
                TokenType.OPERATOR, "!=" if value == "<>" else value, start
            ))
        elif kind == "punct":
            append(Token(TokenType.PUNCT, value, start))
        elif kind == "string":
            append(Token(
                TokenType.STRING, value[1:-1].replace("''", "'"), start
            ))
        elif kind == "bracket":
            append(Token(TokenType.IDENT, value[1:-1].lower(), start))
        elif kind == "end":
            break
        elif kind == "other":
            raise SqlSyntaxError(f"unexpected character {value!r}", start)
        else:
            raise SqlSyntaxError(_UNTERMINATED[kind], start)
    append(Token(TokenType.EOF, "", len(text)))
    return tokens
