"""Flat synchronous transition systems.

A TransitionSystem is the elaborated form of a model: an ordered list of
variables with concrete domains and flattened init/next rules over
qualified names. Values are plain Python bools, ints, and enum symbol
strings. One step corresponds to a 10 ms processing cycle unless a model
says otherwise; the constant is documentary and does not affect semantics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

Value = Union[bool, int, str]


# --- domains -------------------------------------------------------------


@dataclass(frozen=True)
class BoolDomain:
    def values(self) -> tuple[Value, ...]:
        return (False, True)

    def contains(self, v: Value) -> bool:
        return isinstance(v, bool)

    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class EnumDomain:
    symbols: tuple[str, ...]

    def values(self) -> tuple[Value, ...]:
        return self.symbols

    def contains(self, v: Value) -> bool:
        return v in self.symbols

    def __str__(self) -> str:
        return "{" + ", ".join(self.symbols) + "}"


@dataclass(frozen=True)
class IntDomain:
    lo: int
    hi: int

    def values(self) -> tuple[Value, ...]:
        return tuple(range(self.lo, self.hi + 1))

    def contains(self, v: Value) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


Domain = Union[BoolDomain, EnumDomain, IntDomain]


# --- flat expressions ----------------------------------------------------


@dataclass(frozen=True)
class FExpr:
    pass


@dataclass(frozen=True)
class VarRef(FExpr):
    index: int
    name: str


@dataclass(frozen=True)
class Const(FExpr):
    value: Value


@dataclass(frozen=True)
class FUnary(FExpr):
    op: str  # "!" or "-"
    operand: FExpr


@dataclass(frozen=True)
class FBinary(FExpr):
    op: str
    left: FExpr
    right: FExpr


@dataclass(frozen=True)
class FCase(FExpr):
    arms: tuple[tuple[FExpr, FExpr], ...]  # (guard, result); last guard is TRUE


@dataclass(frozen=True)
class FChoice(FExpr):
    items: tuple[FExpr, ...]


def format_fexpr(e: FExpr) -> str:
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return "TRUE" if e.value else "FALSE"
        return str(e.value)
    if isinstance(e, FUnary):
        return f"{e.op}({format_fexpr(e.operand)})"
    if isinstance(e, FBinary):
        return f"({format_fexpr(e.left)} {e.op} {format_fexpr(e.right)})"
    if isinstance(e, FCase):
        arms = "; ".join(f"{format_fexpr(g)} : {format_fexpr(r)}" for g, r in e.arms)
        return f"case {arms}; esac"
    if isinstance(e, FChoice):
        return "{" + ", ".join(format_fexpr(i) for i in e.items) + "}"
    raise TypeError(f"unknown flat expression {e!r}")


# --- monitor rules (added by past-operator elimination) -------------------


@dataclass(frozen=True)
class MonitorRule:
    """Latch update for a synthesized monitor variable.

    kind "cur":      value(t+1) = expr evaluated on state t; initial FALSE.
    kind "post_or":  value(t+1) = value(t) | expr on state t+1; initial expr on state 0.
    kind "post_and": value(t+1) = value(t) & expr on state t+1; initial expr on state 0.

    Post-evaluated monitors observe the newly computed state, so a latch can
    track a condition inclusively of the current step. Monitors are append-only
    observers: no model variable may read them.
    """

    kind: str
    expr: FExpr


@dataclass(frozen=True)
class VarDef:
    name: str
    domain: Domain
    init: Optional[FExpr] = None   # None = unconstrained at init
    next: Optional[FExpr] = None   # None = free every step
    monitor: Optional[MonitorRule] = None


class TransitionSystem:
    """Immutable after construction; share freely across threads."""

    def __init__(
        self,
        variables: tuple[VarDef, ...],
        defines: Optional[dict[str, FExpr]] = None,
        step_duration_ms: int = 10,
        source_name: str = "<model>",
    ):
        self.variables = variables
        self.defines = dict(defines or {})
        self.step_duration_ms = step_duration_ms
        self.source_name = source_name
        self.index = {v.name: i for i, v in enumerate(variables)}
        if len(self.index) != len(variables):
            raise ValueError("duplicate qualified variable name")
        self.n_model_vars = sum(1 for v in variables if v.monitor is None)
        for i, v in enumerate(variables):
            if v.monitor is not None and i < self.n_model_vars:
                raise ValueError("monitor variables must come after model variables")
        self._ops = None  # compiled lazily

    def var(self, name: str) -> VarDef:
        return self.variables[self.index[name]]

    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def symbol_universe(self) -> set[str]:
        syms: set[str] = set()
        for v in self.variables:
            if isinstance(v.domain, EnumDomain):
                syms.update(v.domain.symbols)
        return syms

    def with_monitors(self, monitors: tuple[VarDef, ...]) -> "TransitionSystem":
        return TransitionSystem(
            self.variables + monitors,
            defines=self.defines,
            step_duration_ms=self.step_duration_ms,
            source_name=self.source_name,
        )


@dataclass(frozen=True)
class State:
    values: tuple[Value, ...]
    system: TransitionSystem = field(compare=False, repr=False)

    def __getitem__(self, name: str) -> Value:
        return self.values[self.system.index[name]]

    def as_dict(self) -> dict[str, Value]:
        return {v.name: self.values[i] for i, v in enumerate(self.system.variables)}


@dataclass(frozen=True)
class Trace:
    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> State:
        return self.states[i]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)
