"""Variable dependencies, sequential constants and the depth clock.

A sequential constant is a variable whose init is a constant c in its
domain and whose next rule, once every sequential constant is substituted
and the rule folded, is exactly c again. By induction on the step, it holds
c in every reachable state. `sequential_constants` computes the greatest
such set, and `slice_constants` leaves it out of a system: this is the
constant propagation that precedes cone-of-influence reduction (Clarke,
Grumberg & Peled, *Model Checking*, 1999; NuSMV applies it with `-coi`).
The checker checks every system sliced this way; no per-spec cone of
influence is applied on top.

A derived system (`TransitionSystem.base`, as an instance is of its
template) starts from the base's set, computed once and cached on the base
with its readers map: the base's constants among the shared variables and
the replaced and appended candidates, with those candidates and the readers
of each replaced variable as the work list. That is the greatest set if
every replaced variable is a constant of the base and none is one of the
derived system, as for an instance's failure variables, pinned FALSE in
the template and given a choice of TRUE and FALSE in the instance: the
derived set's shared part is then a consistent set of the base, so inside
the base's set. Where either condition fails, the set is computed from
scratch.

A depth clock is a variable whose init is a constant in its domain and
whose next rule reads no other variable and holds no set literal, such as
a saturating step counter. Every state at depth d holds the same value of
it, which iterating the rule from the init value gives, until a value
repeats; the values never leave the domain, or the variable is no clock.
`depth_clock` finds the first clock of a sliced system. The checker keeps
it out of its state graph: each guard that reads the clock is a function
of the depth, and depths on which all such guards agree, a region in the
sense of Alur & Dill (*A theory of timed automata*, TCS 1994), step a
clock-free state to the same successors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..semantics.exec import _init_order, eval_fexpr
from ..semantics.system import (
    Const, FBinary, FCase, FChoice, FExpr, FUnary, TransitionSystem, Value,
    VarDef, VarRef, collect_refs, fold, format_fexpr, same_const,
)


def dependency_graph(ts: TransitionSystem) -> dict[str, set[str]]:
    """Map each variable to the variables its next rule reads.

    Free variables map to an empty set.
    """
    out: dict[str, set[str]] = {}
    for v in ts.variables:
        reads: set[int] = set()
        if v.next is not None:
            collect_refs(v.next, reads)
        out[v.name] = {ts.variables[i].name for i in reads}
    return out


def sequential_constants(ts: TransitionSystem) -> dict[int, Value]:
    """The greatest set of sequential constants, as index -> value.

    Every variable with a constant init in its domain and a next rule starts
    as a candidate. A candidate whose folded next rule is not its init
    value is dropped, and then only the candidates whose next rule reads it
    are checked again. A derived system starts from its base's set (see the
    module docstring).
    """
    base = ts.base
    if base is not None:
        found, readers = _constants(base)
        n = len(base.variables)
        replaced = [i for i in range(n) if not ts.shares(i)]
        if all(i in found for i in replaced):
            new = _candidates(ts, replaced + list(range(n, len(ts.variables))))
            more = _readers(ts, new)
            consts = {i: c for i, c in found.items() if ts.shares(i)}
            consts.update(new)
            work = list(new) + [r for i in replaced for r in readers.get(i, []) + more.get(i, [])]
            _drop(ts, consts, work, readers, more)
            if not any(i in consts for i in replaced):
                return consts
    return dict(_constants(ts)[0])


def _constants(ts: TransitionSystem) -> tuple[dict[int, Value], dict[int, list[int]]]:
    """ts's constants from scratch and its readers map, cached on ts."""
    if ts._constants is None:
        ts._constants = _fixpoint(ts)
    return ts._constants


def _fixpoint(ts: TransitionSystem) -> tuple[dict[int, Value], dict[int, list[int]]]:
    consts = _candidates(ts, range(len(ts.variables)))
    readers = _readers(ts, consts)
    _drop(ts, consts, list(consts), readers)
    return consts, readers


def _candidates(ts: TransitionSystem, indices) -> dict[int, Value]:
    out: dict[int, Value] = {}
    for i in indices:
        v = ts.variables[i]
        if isinstance(v.init, Const) and v.next is not None and v.domain.contains(v.init.value):
            out[i] = v.init.value
    return out


def _readers(ts: TransitionSystem, candidates) -> dict[int, list[int]]:
    """Each variable a next rule of candidates reads -> those candidates."""
    readers: dict[int, list[int]] = {}
    for i in candidates:
        reads: set[int] = set()
        collect_refs(ts.variables[i].next, reads)
        for j in reads:
            readers.setdefault(j, []).append(i)
    return readers


def _drop(ts: TransitionSystem, consts: dict[int, Value], work: list[int], *readers) -> None:
    """Drop each candidate of the work list whose folded next rule is not
    its value from consts, and put its readers on the list."""
    env: dict[int, FExpr] = {i: Const(c) for i, c in consts.items()}
    while work:
        i = work.pop()
        if i in env and not same_const(fold(ts.variables[i].next, env), consts[i]):
            del env[i], consts[i]
            for r in readers:
                work.extend(r.get(i, ()))


@dataclass(frozen=True)
class ConstantSlice:
    """A system with its sequential constants left out."""

    system: TransitionSystem      # the kept variables, re-indexed, no defines
    kept: tuple[int, ...]         # the full index of each variable of system
    full: tuple                   # a full-width state: the constants in place
    env: dict[int, FExpr]         # full index -> its constant or kept VarRef
    init_order: list[int]         # the full system's init order, re-indexed

    def rewrite(self, e: FExpr) -> FExpr:
        """e over the full system, as an expression over the sliced one."""
        return fold(e, self.env) if self.env else e

    def expand(self, values: tuple) -> tuple:
        """A sliced state at full width."""
        out = list(self.full)
        for i, value in zip(self.kept, values):
            out[i] = value
        return tuple(out)


def slice_constants(ts: TransitionSystem, consts: dict[int, Value]) -> ConstantSlice:
    """ts without the variables in consts, each rule folded over them.

    The initial states of the sliced system are enumerated in the order of
    `init_order`, which is ts's own order filtered: the sliced init rules
    no longer read the constants, so the sliced system's own order can
    differ. With no constants, the slice is ts itself.
    """
    order = _init_order(ts)
    n = len(ts.variables)
    if not consts:
        return ConstantSlice(ts, tuple(range(n)), (None,) * n, {}, order)
    kept = tuple(i for i in range(n) if i not in consts)
    env: dict[int, FExpr] = {i: Const(c) for i, c in consts.items()}
    for new, old in enumerate(kept):
        env[old] = VarRef(new, ts.variables[old].name)
    variables = []
    for i in kept:
        v = ts.variables[i]
        variables.append(VarDef(
            v.name, v.domain,
            init=None if v.init is None else fold(v.init, env),
            next=None if v.next is None else fold(v.next, env),
        ))
    system = TransitionSystem(tuple(variables), source_name=ts.source_name)
    full = tuple(consts.get(i) for i in range(n))
    return ConstantSlice(system, kept, full, env,
                         [env[i].index for i in order if i not in consts])


@dataclass(frozen=True)
class Clock:
    """A depth clock: variable index of a system, with its value at each
    depth."""

    index: int
    name: str
    values: tuple  # by depth from 0, up to and including the first repeat
    loop: int      # the depth of the value that the last one repeats

    @property
    def period(self) -> int:
        return len(self.values) - 1 - self.loop

    def at(self, depth: int) -> Value:
        if depth > self.loop:
            depth = self.loop + (depth - self.loop) % self.period
        return self.values[depth]


def depth_clock(ts: TransitionSystem) -> Optional[Clock]:
    """The first variable of ts, in variable order, that is a depth clock,
    or None."""
    for i, v in enumerate(ts.variables):
        if not (isinstance(v.init, Const) and v.next is not None
                and v.domain.contains(v.init.value) and not _has_choice(v.next)):
            continue
        reads: set[int] = set()
        collect_refs(v.next, reads)
        if not reads <= {i}:
            continue
        values = [v.init.value]
        depth_of = {v.init.value: 0}
        probe: list = [None] * len(ts.variables)
        while True:
            probe[i] = values[-1]
            value = eval_fexpr(v.next, probe)
            if not v.domain.contains(value):
                break
            values.append(value)
            if value in depth_of:
                return Clock(i, v.name, tuple(values), depth_of[value])
            depth_of[value] = len(values) - 1
    return None


def _has_choice(e: FExpr) -> bool:
    if isinstance(e, FChoice):
        return True
    if isinstance(e, FUnary):
        return _has_choice(e.operand)
    if isinstance(e, FBinary):
        return _has_choice(e.left) or _has_choice(e.right)
    if isinstance(e, FCase):
        return any(_has_choice(x) for arm in e.arms for x in arm)
    return False


def format_dependency_report(ts: TransitionSystem) -> str:
    graph = dependency_graph(ts)
    found = sequential_constants(ts)
    consts = {ts.variables[i].name: c for i, c in found.items()}
    lines = ["variable dependencies (next-state reads):"]
    for name in sorted(graph):
        if ts.var(name).next is None:
            deps = "(none: free)"
        else:
            deps = ", ".join(sorted(graph[name])) or "(none)"
        if name in consts:
            deps += f"  [constant {format_fexpr(Const(consts[name]))}]"
        lines.append(f"  {name} <- {deps}")
    lines.append(f"sequential constants, left out before checking: "
                 f"{len(consts)} of {len(graph)} variables")
    clock = depth_clock(slice_constants(ts, found).system)
    if clock is None:
        lines.append("depth clock: none")
    else:
        values = ", ".join(format_fexpr(Const(c)) for c in clock.values)
        lines.append(f"depth clock, held out of the state graph: {clock.name} = {values} "
                     f"at depths 0 to {len(clock.values) - 1}; from depth {clock.loop} "
                     f"it cycles with period {clock.period}")
    return "\n".join(lines)
