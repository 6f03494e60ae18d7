"""Flat synchronous transition systems.

A TransitionSystem is the elaborated form of a model: an ordered list of
variables with concrete domains and flattened init/next rules over
qualified names. Values are plain Python bools, ints, and enum symbol
strings. One step corresponds to a 10 ms processing cycle unless a model
says otherwise; the constant is documentary and does not affect semantics.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

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


def collect_refs(e: FExpr, out: set[int]) -> None:
    """Add the index of every variable that e reads to out."""
    if isinstance(e, VarRef):
        out.add(e.index)
    elif isinstance(e, FUnary):
        collect_refs(e.operand, out)
    elif isinstance(e, FBinary):
        collect_refs(e.left, out)
        collect_refs(e.right, out)
    elif isinstance(e, FCase):
        for g, r in e.arms:
            collect_refs(g, out)
            collect_refs(r, out)
    elif isinstance(e, FChoice):
        for i in e.items:
            collect_refs(i, out)


_BINARY = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
}


def same_const(e: FExpr, value: Value) -> bool:
    """e is the constant value, of the same type (1 is not TRUE)."""
    return isinstance(e, Const) and type(e.value) is type(value) and e.value == value


def fold(e: FExpr, env: Optional[Mapping[int, FExpr]] = None) -> FExpr:
    """Substitute env[i] for every variable i that env maps, then fold what
    became constant.

    Folded: `!`, `-`, arithmetic and comparisons over constants; `&`, `|`
    and `->` with a boolean constant operand; case arms with constant
    guards (a false one is dropped, a true one ends the case); and choices
    whose items are all the same constant. The result has the value of e,
    as the compiled kernel evaluates it, on every state where each
    substituted variable holds what env gives it.
    """
    return _fold(e, env or {})


def _fold(e: FExpr, env: Mapping[int, FExpr]) -> FExpr:
    if isinstance(e, VarRef):
        return env.get(e.index, e)
    if isinstance(e, FBinary):
        a, b = _fold(e.left, env), _fold(e.right, env)
        if e.op in ("&", "|", "->"):
            out = _fold_logic(e.op, a, b)
            if out is not None:
                return out
        elif isinstance(a, Const) and isinstance(b, Const):
            try:
                return Const(_BINARY[e.op](a.value, b.value))
            except TypeError:
                pass  # the kernel would raise here too, if it ever got here
        return e if a is e.left and b is e.right else FBinary(e.op, a, b)
    if isinstance(e, FUnary):
        a = _fold(e.operand, env)
        if isinstance(a, Const):
            if e.op == "!":
                return Const(not a.value)
            if isinstance(a.value, int):
                return Const(-a.value)
        return e if a is e.operand else FUnary(e.op, a)
    if isinstance(e, FCase):
        return _fold_case(e, env)
    if isinstance(e, FChoice):
        items = tuple(_fold(i, env) for i in e.items)
        first = items[0]
        if isinstance(first, Const) and all(same_const(i, first.value) for i in items):
            return first
        return FChoice(items)
    return e


def _fold_logic(op: str, a: FExpr, b: FExpr) -> Optional[FExpr]:
    x = a.value if isinstance(a, Const) and isinstance(a.value, bool) else None
    y = b.value if isinstance(b, Const) and isinstance(b.value, bool) else None
    if op == "&":
        if x is False or y is False:
            return Const(False)
        if x is True:
            return b
        if y is True:
            return a
    elif op == "|":
        if x is True or y is True:
            return Const(True)
        if x is False:
            return b
        if y is False:
            return a
    else:
        if x is False or y is True:
            return Const(True)
        if x is True:
            return b
        if y is False:
            return FUnary("!", a)
    return None


def _fold_case(e: FCase, env: Mapping[int, FExpr]) -> FExpr:
    arms = []
    last = len(e.arms) - 1
    for k, (guard, result) in enumerate(e.arms):
        guard = _fold(guard, env)
        if isinstance(guard, Const) and k < last:
            if not guard.value:
                continue  # never taken
            last = k  # always taken: the arms after it are dead
        arms.append((guard, _fold(result, env)))
        if k == last:
            break
    guard, result = arms[0]
    if len(arms) == 1 and isinstance(guard, Const) and guard.value:
        return result
    return FCase(tuple(arms))


@dataclass(frozen=True)
class VarDef:
    name: str
    domain: Domain
    init: Optional[FExpr] = None   # None = unconstrained at init
    next: Optional[FExpr] = None   # None = free every step


class TransitionSystem:
    """Immutable after construction, apart from four lazy caches: the enum
    symbols (`_symbols`), made at first use; the sequential constants with
    their readers (`_constants`, see checker.deps); the checker's state
    graph (`_graph`, see checker.core), which grows as checks of the
    system explore it; and the tree walker's memo of next-rule candidates
    (`_steps`, see semantics.exec), which grows as steps are taken. None
    of them changes what the system means.

    `base` is the system this one is derived from, if any, as an instance is
    from its template. A variable is shared (`shares`) when it is the same
    VarDef as the base's at its index, replaced when not, and appended past
    the base's length. A derived system's constants start from the base's,
    and each shared variable's tree-walker memo is the base's own.

    `defines` maps each qualified DEFINE name to its flat expression.
    `define_types` holds each one's type as the binding walk of
    lang.validate found it; only that module reads it, to type the spec
    atoms that name a define. A system that spec atoms are not read
    against, such as a constant slice, may leave it empty."""

    def __init__(
        self,
        variables: tuple[VarDef, ...],
        defines: Optional[dict[str, FExpr]] = None,
        source_name: str = "<model>",
        define_types: Optional[dict[str, tuple]] = None,
        base: Optional["TransitionSystem"] = None,
    ):
        self.variables = variables
        self.base = base
        self.defines = dict(defines or {})
        self.define_types = dict(define_types or {})
        self.source_name = source_name
        self.index = {v.name: i for i, v in enumerate(variables)}
        if len(self.index) != len(variables):
            raise ValueError("duplicate qualified variable name")
        self._constants: Optional[tuple] = None  # (index -> value, readers)
        self._graph = None  # explored lazily, by the checks of this system
        self._steps: Optional[list] = None  # filled lazily, by tree-walking steps
        self._symbols: Optional[frozenset[str]] = None

    def var(self, name: str) -> VarDef:
        return self.variables[self.index[name]]

    def shares(self, i: int) -> bool:
        """Variable i is its base's variable i, the same VarDef."""
        base = self.base
        return (base is not None and i < len(base.variables)
                and self.variables[i] is base.variables[i])

    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def symbol_universe(self) -> frozenset[str]:
        """Every symbol of the system's enum domains."""
        if self._symbols is None:
            self._symbols = frozenset(
                sym for v in self.variables if isinstance(v.domain, EnumDomain)
                for sym in v.domain.symbols)
        return self._symbols


@dataclass(frozen=True)
class State:
    values: tuple[Value, ...]
    system: TransitionSystem = field(compare=False, repr=False)

    def __getitem__(self, name: str) -> Value:
        return self.values[self.system.index[name]]


@dataclass(frozen=True)
class Trace:
    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> State:
        return self.states[i]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)
