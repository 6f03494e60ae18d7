"""Specification formula trees.

Atoms are boolean state expressions over a system's variables. Future
operators: X, U, R, F, G plus bounded F[a,b] and G[a,b]; past operators:
O (once), Y (yesterday), H (historically).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..semantics.system import FExpr, format_fexpr


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    expr: FExpr


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Finally_(Formula):
    sub: Formula


@dataclass(frozen=True)
class Globally(Formula):
    sub: Formula


@dataclass(frozen=True)
class FinallyWithin(Formula):
    lo: int
    hi: int
    sub: Formula


@dataclass(frozen=True)
class GloballyWithin(Formula):
    lo: int
    hi: int
    sub: Formula


@dataclass(frozen=True)
class Once(Formula):
    sub: Formula


@dataclass(frozen=True)
class Yesterday(Formula):
    sub: Formula


@dataclass(frozen=True)
class Historically(Formula):
    sub: Formula


PAST_OPS = (Once, Yesterday, Historically)


class PastEliminationError(Exception):
    """A past operator over a future subformula: its value at a step would
    depend on states after it, which no one-bit monitor of the step before
    can track, so the checker rejects it."""


def has_unbounded(f: Formula) -> bool:
    """True when the formula carries an unbounded temporal obligation
    (F, G, U, or R without a window). Such specs may stay Inconclusive on
    every loop-free prefix regardless of the bound; the driver warns about
    them at load time and steers users to the bounded forms."""
    if isinstance(f, (Finally_, Globally, Until, Release)):
        return True
    return any(has_unbounded(c) for c in children(f))


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Next, Finally_, Globally, Once, Yesterday, Historically)):
        return (f.sub,)
    if isinstance(f, (And, Or, Implies, Until, Release)):
        return (f.left, f.right)
    if isinstance(f, (FinallyWithin, GloballyWithin)):
        return (f.sub,)
    return ()


def map_atoms(f: Formula, fn: Callable[[FExpr], FExpr]) -> Formula:
    """f with the expression e of every atom replaced by fn(e)."""
    if isinstance(f, Atom):
        return Atom(fn(f.expr))
    subs = [map_atoms(c, fn) for c in children(f)]
    if isinstance(f, (FinallyWithin, GloballyWithin)):
        return type(f)(f.lo, f.hi, *subs)
    return type(f)(*subs)


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


_UNARY = {"Not": "!", "Next": "X ", "Finally_": "F ", "Globally": "G ",
          "Once": "O ", "Yesterday": "Y ", "Historically": "H "}


def _fmt(f: Formula, parent: int) -> str:
    # precedence: -> 1, | 2, & 3, U/R 4, unary 5
    if isinstance(f, Atom):
        return format_fexpr(f.expr)
    if isinstance(f, (Not, Next, Finally_, Globally, Once, Yesterday, Historically)):
        text = _UNARY[type(f).__name__] + _fmt(f.sub, 5)
        return f"({text})" if parent > 5 else text
    if isinstance(f, FinallyWithin):
        return f"F[{f.lo},{f.hi}] {_fmt(f.sub, 5)}"
    if isinstance(f, GloballyWithin):
        return f"G[{f.lo},{f.hi}] {_fmt(f.sub, 5)}"
    if isinstance(f, (Until, Release)):
        op = "U" if isinstance(f, Until) else "R"
        text = f"{_fmt(f.left, 5)} {op} {_fmt(f.right, 4)}"
        return f"({text})" if parent > 4 else text
    if isinstance(f, And):
        text = f"{_fmt(f.left, 3)} & {_fmt(f.right, 4)}"
        return f"({text})" if parent > 3 else text
    if isinstance(f, Or):
        text = f"{_fmt(f.left, 2)} | {_fmt(f.right, 3)}"
        return f"({text})" if parent > 2 else text
    if isinstance(f, Implies):
        text = f"{_fmt(f.left, 2)} -> {_fmt(f.right, 1)}"
        return f"({text})" if parent > 1 else text
    raise TypeError(f"unknown formula node {f!r}")
