"""Recursive-descent parser for .fsm model files.

Precedence, loosest to tightest: ->  |  &  comparisons  + -  unary ! -
"""
from __future__ import annotations

from typing import Optional

from .ast import (
    AssignRule, Binary, BoolLit, BoolType, Case, CaseArm, DefineDecl, EnumType,
    Expr, InstanceDecl, IntLit, ModelAst, ModuleDecl, Name, RangeType, SetLit,
    Span, Unary, VarDecl, VarType,
)
from .lexer import ParseError, Token, TokenStream, tokenize

CMP_OPS = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


def parse_model(text: str) -> ModelAst:
    """Parse model source into a ModelAst; raises ParseError on bad syntax."""
    ts = TokenStream(tokenize(text))
    modules: list[ModuleDecl] = []
    seen: dict[str, Token] = {}
    while not ts.at("EOF"):
        tok = ts.peek()
        if tok.kind != "MODULE":
            raise ts.fail("unexpected token at top level", expected=("MODULE",))
        mod = _parse_module(ts)
        if mod.name in seen:
            raise ParseError(f"duplicate module name {mod.name!r}", tok.line, tok.col)
        seen[mod.name] = tok
        modules.append(mod)
    if not modules:
        raise ts.fail("empty model", expected=("MODULE",))
    return ModelAst(tuple(modules))


def _parse_module(ts: TokenStream) -> ModuleDecl:
    start = ts.expect("MODULE")
    name = ts.expect("IDENT", "module name").value
    params: list[str] = []
    if ts.accept("LPAREN"):
        if not ts.at("RPAREN"):
            params.append(ts.expect("IDENT", "parameter name").value)
            while ts.accept("COMMA"):
                params.append(ts.expect("IDENT", "parameter name").value)
        ts.expect("RPAREN")
    vars_: list[VarDecl] = []
    instances: list[InstanceDecl] = []
    defines: list[DefineDecl] = []
    assigns: list[AssignRule] = []
    while True:
        if ts.accept("VAR"):
            while ts.at("IDENT"):
                _parse_var_item(ts, vars_, instances)
        elif ts.accept("ASSIGN"):
            while ts.at("init", "next"):
                assigns.append(_parse_assign(ts))
        elif ts.accept("DEFINE"):
            while ts.at("IDENT"):
                tok = ts.advance()
                ts.expect("ASSIGN_OP", "':='")
                expr = _parse_expr(ts)
                ts.expect("SEMI", "';'")
                defines.append(DefineDecl(tok.value, expr, span=tok.span))
        elif ts.at("MODULE", "EOF"):
            break
        else:
            raise ts.fail(
                "unexpected token in module body",
                expected=("VAR", "ASSIGN", "DEFINE", "MODULE"),
            )
    return ModuleDecl(
        name,
        tuple(params),
        vars=tuple(vars_),
        instances=tuple(instances),
        defines=tuple(defines),
        assigns=tuple(assigns),
        span=start.span,
    )


def _parse_var_item(ts, vars_: list[VarDecl], instances: list[InstanceDecl]) -> None:
    tok = ts.expect("IDENT", "variable name")
    ts.expect("COLON", "':'")
    nxt = ts.peek()
    if nxt.kind == "boolean":
        ts.advance()
        vars_.append(VarDecl(tok.value, BoolType(span=nxt.span), span=tok.span))
    elif nxt.kind == "LBRACE":
        vars_.append(VarDecl(tok.value, _parse_enum_type(ts), span=tok.span))
    elif nxt.kind in ("INT", "MINUS"):
        vars_.append(VarDecl(tok.value, _parse_range_type(ts), span=tok.span))
    elif nxt.kind == "IDENT":
        # Either a module instance or a range whose lower bound is a
        # dotted constant; a following ".." decides.
        name = _parse_name(ts)
        if ts.at("DOTDOT"):
            ts.advance()
            hi = _parse_additive(ts)
            vars_.append(
                VarDecl(tok.value, RangeType(name, hi, span=nxt.span), span=tok.span)
            )
        else:
            if len(name.parts) != 1:
                raise ts.fail("module name must not be dotted", expected=("'..'",))
            args: list[Expr] = []
            if ts.accept("LPAREN"):
                if not ts.at("RPAREN"):
                    args.append(_parse_expr(ts))
                    while ts.accept("COMMA"):
                        args.append(_parse_expr(ts))
                ts.expect("RPAREN")
            instances.append(
                InstanceDecl(tok.value, name.parts[0], tuple(args), span=tok.span)
            )
    else:
        raise ts.fail(
            "expected a type or module instantiation",
            expected=("boolean", "'{'", "integer range", "module name"),
        )
    ts.expect("SEMI", "';'")


def _parse_enum_type(ts) -> EnumType:
    start = ts.expect("LBRACE")
    symbols = [ts.expect("IDENT", "enum symbol").value]
    while ts.accept("COMMA"):
        symbols.append(ts.expect("IDENT", "enum symbol").value)
    ts.expect("RBRACE", "'}'")
    return EnumType(tuple(symbols), span=start.span)


def _parse_range_type(ts) -> RangeType:
    start = ts.peek()
    lo = _parse_additive(ts)
    ts.expect("DOTDOT", "'..'")
    hi = _parse_additive(ts)
    return RangeType(lo, hi, span=start.span)


def _parse_assign(ts) -> AssignRule:
    tok = ts.advance()  # init | next
    ts.expect("LPAREN", "'('")
    target = ts.expect("IDENT", "variable name").value
    ts.expect("RPAREN", "')'")
    ts.expect("ASSIGN_OP", "':='")
    expr = _parse_expr(ts)
    ts.expect("SEMI", "';'")
    return AssignRule(tok.value, target, expr, span=tok.span)


# --- expressions -------------------------------------------------------


def _parse_expr(ts) -> Expr:
    return _parse_implies(ts)


def _parse_implies(ts) -> Expr:
    left = _parse_or(ts)
    if ts.at("ARROW"):
        tok = ts.advance()
        right = _parse_implies(ts)  # right-associative
        return Binary("->", left, right, span=tok.span)
    return left


def _parse_or(ts) -> Expr:
    left = _parse_and(ts)
    while ts.at("OR"):
        tok = ts.advance()
        left = Binary("|", left, _parse_and(ts), span=tok.span)
    return left


def _parse_and(ts) -> Expr:
    left = parse_comparison(ts)
    while ts.at("AND"):
        tok = ts.advance()
        left = Binary("&", left, parse_comparison(ts), span=tok.span)
    return left


def parse_comparison(ts: TokenStream) -> Expr:
    """One comparison-level expression: the spec parser reads atoms with it."""
    left = _parse_additive(ts)
    if ts.peek().kind in CMP_OPS:
        tok = ts.advance()
        right = _parse_additive(ts)
        return Binary(CMP_OPS[tok.kind], left, right, span=tok.span)
    return left


def _parse_additive(ts) -> Expr:
    left = _parse_unary(ts)
    while ts.at("PLUS", "MINUS"):
        tok = ts.advance()
        op = "+" if tok.kind == "PLUS" else "-"
        left = Binary(op, left, _parse_unary(ts), span=tok.span)
    return left


def _parse_unary(ts) -> Expr:
    if ts.at("NOT"):
        tok = ts.advance()
        return Unary("!", _parse_unary(ts), span=tok.span)
    if ts.at("MINUS"):
        tok = ts.advance()
        operand = _parse_unary(ts)
        # canonical form: negative integer literals fold into IntLit
        if isinstance(operand, IntLit):
            return IntLit(-operand.value, span=tok.span)
        return Unary("-", operand, span=tok.span)
    return _parse_primary(ts)


def _parse_primary(ts) -> Expr:
    tok = ts.peek()
    if tok.kind == "INT":
        ts.advance()
        return IntLit(int(tok.value), span=tok.span)
    if tok.kind == "TRUE":
        ts.advance()
        return BoolLit(True, span=tok.span)
    if tok.kind == "FALSE":
        ts.advance()
        return BoolLit(False, span=tok.span)
    if tok.kind == "IDENT":
        return _parse_name(ts)
    if tok.kind == "LPAREN":
        ts.advance()
        expr = _parse_expr(ts)
        ts.expect("RPAREN", "')'")
        return expr
    if tok.kind == "case":
        return _parse_case(ts)
    if tok.kind == "LBRACE":
        ts.advance()
        items = [_parse_expr(ts)]
        while ts.accept("COMMA"):
            items.append(_parse_expr(ts))
        ts.expect("RBRACE", "'}'")
        return SetLit(tuple(items), span=tok.span)
    raise ts.fail(
        "expected an expression",
        expected=("identifier", "literal", "'('", "case", "'{'"),
    )


def _parse_name(ts) -> Name:
    tok = ts.expect("IDENT", "identifier")
    parts = [tok.value]
    while ts.at("DOT"):
        ts.advance()
        parts.append(ts.expect("IDENT", "identifier after '.'").value)
    return Name(tuple(parts), span=tok.span)


def _parse_case(ts) -> Case:
    start = ts.expect("case")
    arms: list[CaseArm] = []
    while not ts.at("esac"):
        guard = _parse_expr(ts)
        colon = ts.expect("COLON", "':'")
        result = _parse_expr(ts)
        ts.expect("SEMI", "';'")
        arms.append(CaseArm(guard, result, span=colon.span))
        if ts.at("EOF"):
            raise ts.fail("unterminated case expression", expected=("esac",))
    ts.expect("esac")
    if not arms:
        raise ParseError("case expression has no arms", start.line, start.col)
    return Case(tuple(arms), span=start.span)
