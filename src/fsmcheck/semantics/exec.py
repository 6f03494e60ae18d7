"""Stepping and evaluation over elaborated systems.

One emitter for the graph, one tree walker for everything else. Both step
the same way: each variable's candidates are its next rule's values (set
literal items in listed order, without repeats), or its domain if it has no
next rule, and the first candidate outside its variable's domain, in
variable order, raises ModelStepError: the step is poisoned, and a poisoned
step has no successors. Only int ranges can be left: the validator keeps
boolean and enum rules inside their domains.

`step_kernel` compiles next rules into `_step_all(s, k)`; the checker's
state graph (checker.core) is its one user. Given a clock variable, the
kernel reads it only through inputs: each maximal subexpression that reads
the clock and no other variable is emitted as `k[j]`, which the caller
evaluates at the clock's value, and the clock's own candidate is its init
value, unchecked.

The tree walker (`eval_fexpr`, `rule_candidates`) evaluates the flat rules
directly, for init rules, spec atoms, kernel inputs, and the steps of
successors, is_successor, initial_states, satisfies_init and simulate. The
oracle (checker.brute) and replay (checker.replay) step through these, so
they share no stepping code with the kernel. Successors are enumerated
lexicographically over the ordered variables, choices in listed order.

A step of the tree walker (`_step`) memoizes each variable's candidates on
the system (`TransitionSystem._steps`), keyed by the values of the
variables its next rule reads, so the replays of one instance's traces
evaluate each rule once per distinct input. A variable shared with the
system's base has the base's entry, so the replays of all instances of a
template fill one memo. Only candidates inside the domain are memoized: a
poisoned step raises at every call.
"""
from __future__ import annotations

import itertools
import operator
import random
from typing import Callable, Iterator, Optional

from .system import (
    _BINARY, Const, FBinary, FCase, FChoice, FExpr, FUnary, IntDomain, State, Trace,
    TransitionSystem, Value, VarDef, VarRef, collect_refs, format_fexpr,
)


class ModelStepError(Exception):
    """Runtime model error: a rule assigned a value outside the target domain.

    Out-of-range arithmetic poisons the whole step; the step index is filled
    in by the caller that knows it.
    """

    def __init__(self, var: str, value: Value, expr: FExpr, step: Optional[int] = None):
        self.var = var
        self.value = value
        self.expr = expr
        self.step = step
        super().__init__(self._message())

    def _message(self) -> str:
        at = f" at step {self.step}" if self.step is not None else ""
        return (
            f"value {self.value!r} for {self.var!r} is outside its domain{at}; "
            f"offending rule: {format_fexpr(self.expr)}"
        )

    def with_step(self, step: int) -> "ModelStepError":
        return ModelStepError(self.var, self.value, self.expr, step)


# --- reference evaluator --------------------------------------------------


def eval_fexpr(e: FExpr, values: tuple) -> Value:
    t = type(e)
    if t is VarRef:
        return values[e.index]
    if t is Const:
        return e.value
    if t is FBinary:
        op = e.op
        if op == "&":
            return bool(eval_fexpr(e.left, values)) and bool(eval_fexpr(e.right, values))
        if op == "|":
            return bool(eval_fexpr(e.left, values)) or bool(eval_fexpr(e.right, values))
        if op == "->":
            return (not eval_fexpr(e.left, values)) or bool(eval_fexpr(e.right, values))
        return _BINARY[op](eval_fexpr(e.left, values), eval_fexpr(e.right, values))
    if t is FUnary:
        v = eval_fexpr(e.operand, values)
        return (not v) if e.op == "!" else -v
    if t is FCase:
        for guard, result in e.arms:
            if eval_fexpr(guard, values):
                return eval_fexpr(result, values)
        raise ValueError("case expression fell through (missing TRUE default)")
    if t is FChoice:
        raise ValueError("set literal evaluated in value position")
    raise TypeError(f"unknown flat expression {e!r}")


def rule_candidates(e: FExpr, values: tuple) -> tuple[Value, ...]:
    """All values a rule right side can produce on a state, in listed order."""
    if isinstance(e, FChoice):
        out = [eval_fexpr(item, values) for item in e.items]
        return tuple(dict.fromkeys(out))
    if isinstance(e, FCase):
        for guard, result in e.arms:
            if eval_fexpr(guard, values):
                return rule_candidates(result, values)
        raise ValueError("case expression fell through (missing TRUE default)")
    return (eval_fexpr(e, values),)


# --- compiled stepping ----------------------------------------------------


_NO_INPUTS: dict[int, str] = {}


def _emit(e: FExpr, sub: dict[int, str] = _NO_INPUTS) -> str:
    """e as a Python expression over the state tuple s; a node whose id sub
    maps is emitted as the name it maps to."""
    name = sub.get(id(e))
    if name is not None:
        return name
    if isinstance(e, VarRef):
        return f"s[{e.index}]"
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, FUnary):
        operand = _emit(e.operand, sub)
        return f"(not {operand})" if e.op == "!" else f"(-{operand})"
    if isinstance(e, FBinary):
        op = e.op
        left, right = _emit(e.left, sub), _emit(e.right, sub)
        if op == "&":
            return f"({left} and {right})"
        if op == "|":
            return f"({left} or {right})"
        if op == "->":
            return f"((not {left}) or {right})"
        py = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
              "+": "+", "-": "-"}[op]
        return f"({left} {py} {right})"
    if isinstance(e, FCase):
        return _emit_case(e.arms, _emit, sub)
    if isinstance(e, FChoice):
        raise ValueError("set literal in value position")
    raise TypeError(f"unknown flat expression {e!r}")


def _emit_case(arms, leaf, sub: dict[int, str]) -> str:
    guard, result = arms[0]
    if len(arms) == 1 or (isinstance(guard, Const) and guard.value is True):
        return leaf(result, sub)
    return (f"({leaf(result, sub)} if {_emit(guard, sub)} "
            f"else {_emit_case(arms[1:], leaf, sub)})")


def _emit_candidates(e: FExpr, sub: dict[int, str]) -> str:
    name = sub.get(id(e))
    if name is not None:
        return f"({name},)"
    if isinstance(e, FChoice):
        items = ", ".join(_emit(i, sub) for i in e.items)
        return f"_uniq(({items},))"
    if isinstance(e, FCase):
        return _emit_case(e.arms, _emit_candidates, sub)
    return f"({_emit(e, sub)},)"


def _clock_inputs(e: FExpr, clock: int, sub: dict[int, str], inputs: list[FExpr]) -> int:
    """How e reads variable clock: 0 if it reads no variable, 1 if it reads
    clock alone, 2 if it reads another variable or holds a set literal.

    Each maximal proper subexpression of e that reads clock alone becomes
    an input, in one bottom-up pass: it is appended to inputs, and its id
    maps to the name `k[j]` in sub.
    """
    if isinstance(e, VarRef):
        return 1 if e.index == clock else 2
    if isinstance(e, FUnary):
        parts: tuple = (e.operand,)
    elif isinstance(e, FBinary):
        parts = (e.left, e.right)
    elif isinstance(e, FCase):
        parts = tuple(x for arm in e.arms for x in arm)
    elif isinstance(e, FChoice):
        parts = e.items
    else:
        return 0
    reads = [_clock_inputs(x, clock, sub, inputs) for x in parts]
    out = 2 if isinstance(e, FChoice) else max(reads)
    if out == 2:
        for x, r in zip(parts, reads):
            if r == 1:
                sub[id(x)] = f"k[{len(inputs)}]"
                inputs.append(x)
    return out


def _uniq(t: tuple) -> tuple:
    return tuple(dict.fromkeys(t))


def step_kernel(ts: TransitionSystem, clock: Optional[int] = None):
    """ts's compiled step function `_step_all(s, k=())`, and the inputs that
    k holds the values of, in order.

    With clock, the index of a variable whose init is a constant and whose
    next rule reads no other variable, the kernel reads that variable only
    through the inputs, which the caller evaluates at its value; its own
    candidate is its init value, unchecked.
    """
    sub: dict[int, str] = {}
    inputs: list[FExpr] = []
    parts = []
    ranges = []
    for i, v in enumerate(ts.variables):
        if v.next is None:
            parts.append(repr(v.domain.values()))
            continue
        if i == clock:
            parts.append(f"({v.init.value!r},)")
            continue
        if clock is not None and _clock_inputs(v.next, clock, sub, inputs) == 1:
            sub[id(v.next)] = f"k[{len(inputs)}]"
            inputs.append(v.next)
        parts.append(_emit_candidates(v.next, sub))
        if isinstance(v.domain, IntDomain):
            ranges.append((i, v.domain.lo, v.domain.hi))
    body = (",\n        ".join(parts) + ",") if parts else ""
    src = (f"def _step_all(s, k=()):\n    c = (\n        {body}\n    )\n"
           "    for i, lo, hi in _ranges:\n"
           "        for x in c[i]:\n"
           "            if not lo <= x <= hi:\n"
           "                raise ModelStepError(_vars[i].name, x, _vars[i].next)\n"
           "    return c\n")
    # the namespace holds the variables but not ts, and not the function
    # either, whose globals it is: no reference cycle forms, and the kernel
    # is freed with its last user, not at the next cyclic collection
    ns = {"_uniq": _uniq, "_vars": ts.variables, "_ranges": ranges,
          "ModelStepError": ModelStepError}
    exec(compile(src, f"<step:{ts.source_name}>", "exec"), ns)
    return ns.pop("_step_all"), tuple(inputs)


# --- tree-walking steps ---------------------------------------------------


def _init_order(ts: TransitionSystem) -> list[int]:
    """Stable topological order of variables by init-rule dependencies.

    Init rules may read other variables' initial values; enumeration then
    branches in dependency order (equal to declaration order when rules are
    self-contained, which keeps initial-state enumeration lexicographic).
    """
    n = len(ts.variables)
    deps: list[set[int]] = []
    for v in ts.variables:
        need: set[int] = set()
        if v.init is not None:
            collect_refs(v.init, need)
        deps.append(need)
    order: list[int] = []
    placed = [False] * n
    progress = True
    while len(order) < n and progress:
        progress = False
        for i in range(n):
            if not placed[i] and all(placed[d] or d == i for d in deps[i]):
                placed[i] = True
                order.append(i)
                progress = True
    if len(order) < n:
        cyc = [ts.variables[i].name for i in range(n) if not placed[i]]
        raise ValueError(f"cyclic init-rule dependencies among: {', '.join(cyc)}")
    return order


def _candidates(v: VarDef, rule: Optional[FExpr], values: tuple,
                step: Optional[int] = None) -> tuple[Value, ...]:
    """v's values under rule (its init or next rule) on values: its domain
    if there is no rule, else the rule's candidates, each checked against
    the domain."""
    if rule is None:
        return v.domain.values()
    cands = rule_candidates(rule, values)
    for c in cands:
        if not v.domain.contains(c):
            raise ModelStepError(v.name, c, rule, step)
    return cands


def initial_states(ts: TransitionSystem,
                   order: Optional[list[int]] = None) -> Iterator[State]:
    """All states satisfying the init rules; free init vars range over
    their domains, expanded lexicographically in variable order.

    order, when given, is the order to branch in instead of the init-rule
    dependency order; it must place every variable after those its init
    rule reads.
    """
    order = _init_order(ts) if order is None else order
    values: list = [None] * len(ts.variables)

    def expand(pos: int) -> Iterator[State]:
        if pos == len(order):
            yield State(tuple(values), ts)
            return
        i = order[pos]
        v = ts.variables[i]
        for c in _candidates(v, v.init, tuple(values), step=0):
            values[i] = c
            yield from expand(pos + 1)
        values[i] = None

    yield from expand(0)


def step_memo(ts: TransitionSystem) -> list[tuple[Callable, dict]]:
    """Per variable of ts, the values its next rule reads as a function of
    a state, and a dict from them to its candidates; a variable shared with
    ts's base has the base's entry."""
    memo = ts._steps
    if memo is None:
        memo = ts._steps = [step_memo(ts.base)[i] if ts.shares(i) else (_reader(v.next), {})
                            for i, v in enumerate(ts.variables)]
    return memo


def _step(ts: TransitionSystem, values: tuple) -> list[tuple[Value, ...]]:
    """Each variable's next-value candidates on values, memoized per
    variable and the values its next rule reads (`step_memo`); a poisoned
    candidate raises and is not memoized, so it raises again at every
    call."""
    out = []
    for v, (read, seen) in zip(ts.variables, step_memo(ts)):
        key = read(values)
        cands = seen.get(key)
        if cands is None:
            cands = seen[key] = _candidates(v, v.next, values)
        out.append(cands)
    return out


def _reader(rule: Optional[FExpr]) -> Callable[[tuple], object]:
    """A function of a state's values giving the values rule reads."""
    refs: set[int] = set()
    if rule is not None:
        collect_refs(rule, refs)
    if not refs:
        return lambda values: ()
    return operator.itemgetter(*sorted(refs))


def successors(ts: TransitionSystem, s: State) -> Iterator[State]:
    """All one-step successors of s as States, in lexicographic candidate
    order.

    Raises ModelStepError at the call, before anything is yielded, when the
    step from s is poisoned.
    """
    return (State(values, ts) for values in itertools.product(*_step(ts, s.values)))


def is_successor(ts: TransitionSystem, s: State, t: State) -> bool:
    """Transition-relation membership without enumerating the product.

    A poisoned step has no successors, so nothing follows s then.
    """
    try:
        cands = _step(ts, s.values)
    except ModelStepError:
        return False
    return all(t.values[i] in c for i, c in enumerate(cands))


def satisfies_init(ts: TransitionSystem, s: State) -> bool:
    """Init-rule membership; an init rule with an out-of-range candidate
    admits no initial state, as in initial_states."""
    for i in _init_order(ts):
        v = ts.variables[i]
        try:
            if s.values[i] not in _candidates(v, v.init, s.values, step=0):
                return False
        except ModelStepError:
            return False
    return True


# --- choosers and simulation ----------------------------------------------

Chooser = Callable[[int, str, tuple], Value]


def first_choice(step: int, var: str, candidates: tuple) -> Value:
    return candidates[0]


def seeded_random_chooser(seed: int) -> Chooser:
    rng = random.Random(seed)

    def choose(step: int, var: str, candidates: tuple) -> Value:
        return rng.choice(candidates)

    return choose


def simulate(ts: TransitionSystem, steps: int, chooser: Chooser = first_choice) -> Trace:
    """Run steps synchronous updates, resolving nondeterminism via chooser.

    Deterministic models yield the same trace under any policy. Runtime model
    errors propagate with the step index attached.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    values: list = [None] * len(ts.variables)
    for i in _init_order(ts):
        v = ts.variables[i]
        cands = _candidates(v, v.init, tuple(values), step=0)
        values[i] = chooser(0, v.name, cands) if len(cands) > 1 else cands[0]
    current = tuple(values)
    states = [State(current, ts)]
    for step in range(1, steps + 1):
        try:
            cands = _step(ts, current)
        except ModelStepError as err:
            raise err.with_step(step) from None
        current = tuple(chooser(step, v.name, c) if len(c) > 1 else c[0]
                        for v, c in zip(ts.variables, cands))
        states.append(State(current, ts))
    return Trace(tuple(states))
