"""SQL tokenizer."""

import ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sql.lexer import KEYWORDS, Token, TokenType, tokenize
from repro.errors import SqlSyntaxError


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT sElEcT select") == [
            (TokenType.KEYWORD, "select")] * 3

    def test_identifiers_lowercased(self):
        assert kinds("Galaxy OBJID") == [
            (TokenType.IDENT, "galaxy"), (TokenType.IDENT, "objid")]

    def test_numbers(self):
        toks = kinds("42 3.14 1e3 2.5E-2 .5")
        assert all(t == TokenType.NUMBER for t, _ in toks)
        assert [v for _, v in toks] == ["42", "3.14", "1e3", "2.5E-2", ".5"]

    def test_number_then_dot_ident(self):
        # "1e" is not an exponent when not followed by digits
        toks = kinds("1easter")
        assert toks[0] == (TokenType.NUMBER, "1")
        assert toks[1] == (TokenType.IDENT, "easter")

    def test_strings_with_escapes(self):
        toks = kinds("'hello' 'it''s'")
        assert toks == [(TokenType.STRING, "hello"), (TokenType.STRING, "it's")]

    def test_operators(self):
        toks = kinds("<= >= != <> = < > + - * / %")
        values = [v for _, v in toks]
        assert values == ["<=", ">=", "!=", "!=", "=", "<", ">", "+", "-", "*", "/", "%"]

    def test_punctuation(self):
        toks = kinds("(a, b);")
        assert [v for _, v in toks] == ["(", "a", ",", "b", ")", ";"]

    def test_eof_token(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestComments:
    def test_line_comment(self):
        assert kinds("select -- the whole row\n x") == [
            (TokenType.KEYWORD, "select"), (TokenType.IDENT, "x")]

    def test_block_comment(self):
        assert kinds("a /* b c */ d") == [
            (TokenType.IDENT, "a"), (TokenType.IDENT, "d")]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a /* oops")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize("select ^ from t")
        assert info.value.position == 7

    def test_bracket_identifier(self):
        assert kinds("[My Table]") == [(TokenType.IDENT, "my table")]

    def test_unterminated_bracket(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("[oops")


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("select")[0]
        assert token.is_keyword("select")
        assert token.is_keyword("select", "from")
        assert not token.is_keyword("from")


# ---------------------------------------------------------------------------
# the master-regex scanner against the per-character loop it replaced
# ---------------------------------------------------------------------------
_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyz_@#")
_IDENT_BODY = _IDENT_START | set("0123456789$")


def reference_tokenize(text: str) -> list[Token]:
    """The per-character tokenizer the scanner replaced, kept verbatim
    as the oracle its token stream and errors are checked against."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise SqlSyntaxError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, text[i:j], i))
            i = j
            continue
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SqlSyntaxError("unterminated [identifier]", i)
            tokens.append(Token(TokenType.IDENT, text[i + 1:end].lower(), i))
            i = end + 1
            continue
        if ch.lower() in _IDENT_START:
            j = i
            while j < n and text[j].lower() in _IDENT_BODY:
                j += 1
            word = text[i:j].lower()
            if word in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                value = "!=" if op == "<>" else op
                tokens.append(Token(TokenType.OPERATOR, value, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def outcome(tokenizer, text: str):
    """The token stream, or the error's message and position."""
    try:
        return tokenizer(text)
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.position)


def statements_in_sql_tests():
    """Every string constant in the lexer and parser tests."""
    texts = set()
    for name in ("test_engine_sql_lexer.py", "test_engine_sql_parser.py"):
        tree = ast.parse((Path(__file__).parent / name).read_text())
        texts.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return sorted(texts)


#: SQL fragments, the characters every token kind starts or ends on,
#: and the non-ASCII ones the old predicates accept (a non-breaking and
#: a line-separator space, a superscript and an Arabic-Indic digit, the
#: Kelvin sign, which lowercases to "k") or reject.
FRAGMENTS = (
    "SELECT", "from", "Where", "[x y]", "'it''s'", "1.5e-3", ".5", "1e",
    "--", "/*", "*/", "<>", "<=", "!=", "\n", " ", "\t", "'", "''", "[",
    "]", ".", "e", "E", "+", "-", "0", "9", "@a", "#t", "$", "_", "!",
    "^", "\"", "?", ";", ",", "(", ")", "%", "*", "/", "=", "<", ">",
    "\u00a0", "\u2028", "\u00b2", "\u0663", "\u212a", "\u00e9", "\u00c9",
)


#: Where a token kind's boundary rules bite.
EDGE_TEXTS = (
    "1.", "1.e5", "1e5.3", "1.2.3", ".5.3", "..5", "1e+", "1e+x", "2E-",
    "'a''", "'a''b'", "''''", "/*/", "/**/x", "--\nx", "-- x", "[a", "[]",
    "a$b", "$a", "@x#y", "!", "!=<>", "<<=", "Key", "²3",
    "1²", "٣.٣e٣", "x y", "café",
)


class TestScannerMatchesTheCharacterLoop:
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_edge_texts(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize("text", statements_in_sql_tests())
    def test_test_statements(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_fragment_soup(self, parts):
        text = "".join(parts)
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_text(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_scanner_needs_no_python_311_regex_syntax(self):
        """No possessive quantifier or atomic group: ``re`` rejects them
        before Python 3.11, and the package supports 3.10."""
        from repro.engine.sql.lexer import _SCANNER

        assert not re.search(r"[*+?}]\+|\(\?>", _SCANNER.pattern)

    def test_digit_class_covers_the_whole_code_space(self):
        """The extra digits are gathered from the first two planes; no
        character beyond them is a digit either."""
        from repro.engine.sql.lexer import _EXTRA_DIGITS

        everywhere = {
            c for c in map(chr, range(sys.maxunicode + 1))
            if c.isdigit() and not c.isdecimal()
        }
        assert everywhere == set(_EXTRA_DIGITS)
