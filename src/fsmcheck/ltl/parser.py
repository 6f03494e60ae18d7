"""Spec formula parser.

Operator precedence, loosest binding first:

    ->        implication (right-associative)
    |         disjunction
    &         conjunction
    U  R      until / release (right-associative)
    unary     !  X  F  G  O  Y  H  F[a,b]  G[a,b]
    atoms     comparisons and arithmetic bind tighter than any operator

The names X, U, R, F, G, O, Y, H are reserved for operators in spec text.
Atom identifiers are qualified variable names, DEFINE names, or enum
symbols of the system the formula is parsed against.
"""
from __future__ import annotations

from ..lang import ast
from ..lang.lexer import ParseError, TokenStream, tokenize
from ..lang.printer import print_expr
from ..semantics.exec import ResolutionError, infer_kind, resolve_expr
from ..semantics.system import TransitionSystem
from . import formula as F

_UNARY_OPS = {"X": F.Next, "F": F.Finally_, "G": F.Globally,
              "O": F.Once, "Y": F.Yesterday, "H": F.Historically}
_CMP = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


class LtlError(Exception):
    pass


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
            self.s.advance()
            return F.Not(self.parse_unary())
        if tok.kind == "IDENT" and tok.value in _UNARY_OPS:
            nxt = self.s.peek(1)
            # a bare operator letter right before '.', '=', etc. would be an
            # atom; operators are followed by an operand or a window
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
            # "(Step + 1) = 5" is an atom while "(a | b)" is a grouped
            # formula: try the expression reading first, then backtrack.
            mark = self.s.mark()
            try:
                expr = self._parse_cmp_expr()
                return self._atomize(expr, tok)
            except ParseError:
                self.s.reset(mark)
            self.s.advance()
            inner = self.parse_implies()
            self.s.expect("RPAREN", "')'")
            return inner
        if tok.kind in ("IDENT", "INT", "TRUE", "FALSE", "MINUS"):
            expr = self._parse_cmp_expr()
            return self._atomize(expr, tok)
        raise self.s.fail(
            "expected a formula",
            expected=("identifier", "literal", "'('", "unary operator"),
        )

    # -- atom expression layer (no temporal operators) ---------------------

    def _parse_cmp_expr(self) -> ast.Expr:
        left = self._parse_additive()
        if self.s.peek().kind in _CMP:
            op = _CMP[self.s.advance().kind]
            right = self._parse_additive()
            return ast.Binary(op, left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_expr_unary()
        while self.s.at("PLUS", "MINUS"):
            op = "+" if self.s.advance().kind == "PLUS" else "-"
            left = ast.Binary(op, left, self._parse_expr_unary())
        return left

    def _parse_expr_unary(self) -> ast.Expr:
        if self.s.at("MINUS"):
            self.s.advance()
            operand = self._parse_expr_unary()
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(-operand.value)
            return ast.Unary("-", operand)
        tok = self.s.peek()
        if tok.kind == "INT":
            self.s.advance()
            return ast.IntLit(int(tok.value))
        if tok.kind == "TRUE":
            self.s.advance()
            return ast.BoolLit(True)
        if tok.kind == "FALSE":
            self.s.advance()
            return ast.BoolLit(False)
        if tok.kind == "IDENT":
            parts = [self.s.advance().value]
            while self.s.accept("DOT"):
                parts.append(self.s.expect("IDENT", "identifier after '.'").value)
            return ast.Name(tuple(parts), span=tok.span)
        if tok.kind == "LPAREN":
            self.s.advance()
            inner = self._parse_cmp_expr()
            self.s.expect("RPAREN", "')'")
            return inner
        raise self.s.fail("expected an atom expression", expected=("identifier", "literal"))

    def _atomize(self, expr: ast.Expr, tok) -> F.Atom:
        try:
            flat = resolve_expr(self.system, expr)
        except ResolutionError as err:
            raise ParseError(str(err), tok.line, tok.col)
        kind = infer_kind(self.system, flat)
        if kind != "bool":
            raise ParseError(
                f"atom {print_expr(expr)!r} is {kind}, not boolean", tok.line, tok.col
            )
        return F.Atom(flat)
