"""Spec formula parser.

Operator precedence, loosest binding first:

    ->        implication (right-associative)
    |         disjunction
    &         conjunction
    U  R      until / release (right-associative)
    unary     !  X  F  G  O  Y  H  F[a,b]  G[a,b]
    atoms     one comparison of the model's expression grammar

An atom is read by the model parser's `parse_comparison`: sums,
differences, `!` and `-` on operands, and parenthesized model expressions,
with at most one comparison on top, so it binds tighter than any formula
operator. A formula-level `(` opens a grouped formula; the same text is
read as an atom instead when the grouped reading fails or a comparison
follows its `)`, so `(a | b) U c` is an Until over an Or while
`(Step + 1) = 5` and `(a) = b` are atoms. Likewise `!` negates a formula
unless the model grammar reads an operator past its operand: `!n = 3` is
the atom `(!n) = 3`, as in model text, while `!(a = b)` and `!a & b`
negate. Each atom is resolved and typed by the binding walk that types
model text (`lang.validate.bind_atom`), so it is rejected with the
validator's diagnostic code, and it must be boolean.

The names X, U, R, F, G, O, Y, H are reserved for operators in spec text.
Atom identifiers are qualified variable names, DEFINE names, or enum
symbols of the system the formula is parsed against.
"""
from __future__ import annotations

from ..lang import ast
from ..lang.lexer import ParseError, TokenStream, tokenize
from ..lang.parser import CMP_OPS, parse_comparison
from ..lang.printer import print_expr
from ..lang.validate import bind_atom
from ..semantics.system import TransitionSystem
from . import formula as F

_UNARY_OPS = {"X": F.Next, "F": F.Finally_, "G": F.Globally,
              "O": F.Once, "Y": F.Yesterday, "H": F.Historically}


def parse_ltl(text: str, ts: TransitionSystem) -> F.Formula:
    """Parse a formula and resolve/type-check its atoms against ts."""
    stream = TokenStream(tokenize(text))
    p = _Parser(stream, ts)
    f = p.parse_implies()
    stream.expect("EOF", "end of formula")
    return f


class _Parser:
    def __init__(self, ts_stream: TokenStream, system: TransitionSystem):
        self.s = ts_stream
        self.system = system

    def parse_implies(self) -> F.Formula:
        left = self.parse_or()
        if self.s.accept("ARROW"):
            return F.Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> F.Formula:
        left = self.parse_and()
        while self.s.accept("OR"):
            left = F.Or(left, self.parse_and())
        return left

    def parse_and(self) -> F.Formula:
        left = self.parse_until()
        while self.s.accept("AND"):
            left = F.And(left, self.parse_until())
        return left

    def parse_until(self) -> F.Formula:
        left = self.parse_unary()
        tok = self.s.peek()
        if tok.kind == "IDENT" and tok.value in ("U", "R"):
            self.s.advance()
            right = self.parse_until()  # right-associative
            return (F.Until if tok.value == "U" else F.Release)(left, right)
        return left

    def parse_unary(self) -> F.Formula:
        tok = self.s.peek()
        if tok.kind == "NOT":
            mark = self.s.mark()
            try:
                expr = parse_comparison(self.s)
            except ParseError:
                expr = None
            if isinstance(expr, ast.Binary):  # an operator follows the operand of `!`
                return self._atomize(expr, tok)
            self.s.reset(mark)
            self.s.advance()
            return F.Not(self.parse_unary())
        if tok.kind == "IDENT" and tok.value in _UNARY_OPS:
            self.s.advance()
            if tok.value in ("F", "G") and self.s.at("LBRACK"):
                lo, hi = self._parse_window(tok)
                sub = self.parse_unary()
                node = F.FinallyWithin if tok.value == "F" else F.GloballyWithin
                return node(lo, hi, sub)
            return _UNARY_OPS[tok.value](self.parse_unary())
        return self.parse_primary()

    def _parse_window(self, tok) -> tuple[int, int]:
        self.s.expect("LBRACK")
        lo = int(self.s.expect("INT", "window start").value)
        self.s.expect("COMMA", "','")
        hi = int(self.s.expect("INT", "window end").value)
        self.s.expect("RBRACK", "']'")
        if lo > hi:
            raise ParseError(f"window [{lo},{hi}] is not ordered", tok.line, tok.col)
        return lo, hi

    def parse_primary(self) -> F.Formula:
        tok = self.s.peek()
        if tok.kind == "LPAREN":
            mark = self.s.mark()
            grouped_error = None
            try:
                self.s.advance()
                inner = self.parse_implies()
                self.s.expect("RPAREN", "')'")
                if self.s.peek().kind not in CMP_OPS:
                    return inner
            except ParseError as err:
                grouped_error = err
            self.s.reset(mark)
            try:
                expr = parse_comparison(self.s)
            except ParseError:
                if grouped_error is not None:
                    raise grouped_error from None
                raise
            return self._atomize(expr, tok)
        if tok.kind in ("IDENT", "INT", "TRUE", "FALSE", "MINUS"):
            return self._atomize(parse_comparison(self.s), tok)
        raise self.s.fail(
            "expected a formula",
            expected=("identifier", "literal", "'('", "unary operator"),
        )

    def _atomize(self, expr: ast.Expr, tok) -> F.Atom:
        flat, kind, diagnostics = bind_atom(self.system, expr)
        for d in diagnostics:
            if d.severity == "error":
                where = d.span or tok
                raise ParseError(f"[{d.code}] {d.message}", where.line, where.col)
        if kind != "bool":
            raise ParseError(
                f"atom {print_expr(expr)!r} is {kind}, not boolean", tok.line, tok.col
            )
        return F.Atom(flat)
