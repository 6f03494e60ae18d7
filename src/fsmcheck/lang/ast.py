"""AST for the .fsm modeling language (a NuSMV-like synchronous subset).

Nodes are frozen dataclasses; structural equality ignores source spans so
that parse(print(ast)) == ast holds for any printable tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True, slots=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# --- expressions -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Expr:
    pass


@dataclass(frozen=True, slots=True)
class Name(Expr):
    """Plain or dotted reference: parts ("x",) or ("Global", "T1_MAX")."""

    parts: tuple[str, ...]
    span: Optional[Span] = _span_field()

    @property
    def text(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str  # & | -> = != < <= > >= + -
    left: Expr
    right: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class CaseArm:
    guard: Expr
    result: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class Case(Expr):
    arms: tuple[CaseArm, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class SetLit(Expr):
    """Nondeterministic choice {e1, ..., en}; legal only on rule right sides."""

    items: tuple[Expr, ...]
    span: Optional[Span] = _span_field()


# --- types -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VarType:
    pass


@dataclass(frozen=True, slots=True)
class BoolType(VarType):
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class EnumType(VarType):
    symbols: tuple[str, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class RangeType(VarType):
    """lo..hi; bounds are constant expressions (ints or dotted defines)."""

    lo: Expr
    hi: Expr
    span: Optional[Span] = _span_field()


# --- declarations ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VarDecl:
    name: str
    vartype: VarType
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class InstanceDecl:
    name: str
    module: str
    args: tuple[Expr, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class DefineDecl:
    name: str
    expr: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class AssignRule:
    kind: str  # "init" or "next"
    target: str
    expr: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class ModuleDecl:
    name: str
    params: tuple[str, ...]
    vars: tuple[VarDecl, ...] = ()
    instances: tuple[InstanceDecl, ...] = ()
    defines: tuple[DefineDecl, ...] = ()
    assigns: tuple[AssignRule, ...] = ()
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, slots=True)
class ModelAst:
    modules: tuple[ModuleDecl, ...]

    @property
    def main(self) -> Optional[ModuleDecl]:
        for m in self.modules:
            if m.name == "main":
                return m
        return None

    def module(self, name: str) -> Optional[ModuleDecl]:
        for m in self.modules:
            if m.name == name:
                return m
        return None
