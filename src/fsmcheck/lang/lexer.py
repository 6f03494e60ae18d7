r"""Tokenizer shared by the model parser and the spec-formula parser.

`tokenize` reads the text with one compiled regular expression, `_SCAN`:
each match skips blanks, then takes a newline, a `--` comment, an integer,
a word, or a punctuation literal, longest first. A token is a `Token`, a
4-tuple (kind, value, line, col) with no per-instance dict; columns count
code points from 1.

Unicode rule: a token is classified as by the str predicates. A word starts
with a character that isalpha() or "_", and goes on while isalnum() or "_",
which is exactly `\w`; an integer is a run of isdigit() characters. As
`\d` misses some isdigit() characters (U+00B2, for one) and `[^\W\d_]`
takes some that are not isalpha() (U+00BD, for one), `_SCAN` matches only
tokens that start in ASCII, and `_by_predicates` classifies the rest.
"""
from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .ast import Span


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}, column {col}"
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{loc}: {message}")


KEYWORDS = {
    "MODULE", "VAR", "ASSIGN", "DEFINE", "init", "next", "case", "esac",
    "TRUE", "FALSE", "boolean",
}

_PUNCT = [
    (":=", "ASSIGN_OP"),
    ("..", "DOTDOT"),
    ("->", "ARROW"),
    ("!=", "NEQ"),
    ("<=", "LE"),
    (">=", "GE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    (";", "SEMI"),
    (":", "COLON"),
    (",", "COMMA"),
    (".", "DOT"),
    ("&", "AND"),
    ("|", "OR"),
    ("!", "NOT"),
    ("=", "EQ"),
    ("<", "LT"),
    (">", "GT"),
    ("+", "PLUS"),
    ("-", "MINUS"),
]


class Token(NamedTuple):
    kind: str  # punct name, keyword text, "IDENT", "INT", "EOF"
    value: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.col + max(len(self.value), 1))


# A token whose first character is not ASCII matches nothing; neither does
# an ASCII digit run that a non-ASCII character follows, which isdigit() may
# extend. The punctuation literals are listed longest first.
_SCAN = re.compile(
    r"[ \t\r]*(?:(\n)|--[^\n]*|([0-9]+)(?![0-9]|[^\x00-\x7f])|([A-Za-z_]\w*|"
    + "|".join(re.escape(lit) for lit, _ in _PUNCT) + r")|\Z)"
)
_KINDS = {**{lit: kind for lit, kind in _PUNCT}, **{word: word for word in KEYWORDS}}
_WORD_TAIL = re.compile(r"\w*")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    scan = _SCAN.match
    new = tuple.__new__  # Token(...) without the Python-level __new__ of a NamedTuple
    pos = 0
    line = 1
    line_start = 0  # index of the current line's first character
    n = len(text)
    while pos < n:
        m = scan(text, pos)
        if m is None:
            pos, token = _by_predicates(text, pos, line, line_start)
            append(token)
            continue
        group = m.lastindex
        if group == 3:
            value = m.group(3)
            col = m.start(3) - line_start + 1
            append(new(Token, (_KINDS.get(value, "IDENT"), value, line, col)))
        elif group == 2:
            append(new(Token, ("INT", m.group(2), line, m.start(2) - line_start + 1)))
        elif group == 1:
            line += 1
            line_start = m.end()
        pos = m.end()
    # a comment on the last line adds no columns: the end is where it starts
    comment = text.find("--", line_start)
    col = (comment if comment >= 0 else n) - line_start + 1
    append(Token("EOF", "", line, col))
    return tokens


def _by_predicates(text: str, pos: int, line: int, line_start: int) -> tuple[int, Token]:
    """The end and the token at or past blanks from pos, for the tokens that
    `_SCAN` leaves, by the str predicates (see the module's Unicode rule)."""
    while text[pos] in " \t\r":
        pos += 1
    ch = text[pos]
    col = pos - line_start + 1
    end = pos + 1
    if ch.isdigit():
        while end < len(text) and text[end].isdigit():
            end += 1
        return end, Token("INT", text[pos:end], line, col)
    if ch.isalpha():  # no keyword starts outside ASCII
        end = _WORD_TAIL.match(text, end).end()
        return end, Token("IDENT", text[pos:end], line, col)
    raise ParseError(f"unexpected character {ch!r}", line, col)


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def mark(self) -> int:
        return self._pos

    def reset(self, mark: int) -> None:
        self._pos = mark

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":  # the stream stays on its final EOF token
            self._pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self._tokens[self._pos].kind in kinds

    def accept(self, kind: str) -> Optional[Token]:
        if self._tokens[self._pos].kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind:
            shown = repr(tok.value) if tok.value else "end of input"
            raise ParseError(
                f"unexpected {shown}", tok.line, tok.col, expected=(what or kind,)
            )
        return self.advance()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> "ParseError":
        tok = self._tokens[self._pos]
        return ParseError(message, tok.line, tok.col, expected=expected)
