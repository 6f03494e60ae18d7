"""Stepping and evaluation over elaborated systems.

One emitter compiles step kernels. `step_kernel` compiles a system's next
rules into `_step_all(s, k)`: it returns every variable's candidate tuple,
then checks the candidates of each int-range variable that has a next rule
against its domain. The first out-of-range value, in variable order, raises
ModelStepError: the step is poisoned, and a poisoned step has no successors.
Given a clock variable, the kernel reads it only through inputs: each
maximal subexpression that reads the clock and no other variable is emitted
as `k[j]`, which the caller evaluates at the clock's value (the checker's
state graph does, see checker.core), and the clock's own candidate is its
init value, unchecked. Without a clock, k is empty. `_ops` caches a
system's clock-free kernel, through which successors, is_successor and
simulate step. The latches that past-operator elimination appends are
ordinary variables, which the kernel can step; the checker keeps them out
of its state graph and steps them with one compiled function of the
current state.

Successor enumeration is lexicographic over the ordered variable list with
set-literal choices in listed order, so every enumerator-based test is
deterministic. eval_fexpr and rule_candidates are the reference tree-walking
evaluators, used for init rules, spec atoms, kernel inputs and tests.
"""
from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Optional

from .system import (
    Const, FBinary, FCase, FChoice, FExpr, FUnary, IntDomain, State, Trace,
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
    if isinstance(e, VarRef):
        return values[e.index]
    if isinstance(e, Const):
        return e.value
    if isinstance(e, FBinary):
        op = e.op
        if op == "&":
            return bool(eval_fexpr(e.left, values)) and bool(eval_fexpr(e.right, values))
        if op == "|":
            return bool(eval_fexpr(e.left, values)) or bool(eval_fexpr(e.right, values))
        if op == "->":
            return (not eval_fexpr(e.left, values)) or bool(eval_fexpr(e.right, values))
        a = eval_fexpr(e.left, values)
        b = eval_fexpr(e.right, values)
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(e, FUnary):
        v = eval_fexpr(e.operand, values)
        return (not v) if e.op == "!" else -v
    if isinstance(e, FCase):
        for guard, result in e.arms:
            if eval_fexpr(guard, values):
                return eval_fexpr(result, values)
        raise ValueError("case expression fell through (missing TRUE default)")
    if isinstance(e, FChoice):
        raise ValueError("set literal evaluated in value position")
    raise TypeError(f"unknown flat expression {e!r}")


def eval_expr(e: FExpr, s: State) -> Value:
    """Evaluate a choice-free expression on a state.

    Case returns the first arm whose guard is true. Integer arithmetic is
    exact here; domain membership is enforced where values are assigned to
    variables, not on intermediate results.
    """
    return eval_fexpr(e, s.values)


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


class _Ops:
    __slots__ = ("step_all", "init_order")

    def __init__(self, step_all, init_order):
        self.step_all = step_all
        self.init_order = init_order


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
    checks = []
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
            checks.append(
                f"    for x in c[{i}]:\n"
                f"        if not {v.domain.lo} <= x <= {v.domain.hi}:\n"
                f"            raise ModelStepError(_vars[{i}].name, x, _vars[{i}].next)\n"
            )
    body = (",\n        ".join(parts) + ",") if parts else ""
    src = f"def _step_all(s, k=()):\n    c = (\n        {body}\n    )\n{''.join(checks)}    return c\n"
    # the namespace holds the variables but not ts, and not the function
    # either, whose globals it is: no reference cycle forms, and the kernel
    # is freed with its last user, not at the next cyclic collection
    ns: dict = {"_uniq": _uniq, "_vars": ts.variables, "ModelStepError": ModelStepError}
    exec(compile(src, f"<step:{ts.source_name}>", "exec"), ns)
    return ns.pop("_step_all"), tuple(inputs)


def _ops(ts: TransitionSystem) -> _Ops:
    if ts._ops is None:
        ts._ops = _Ops(step_kernel(ts)[0], _init_order(ts))
    return ts._ops


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


def _init_candidates(v: VarDef, values: tuple) -> tuple[Value, ...]:
    """Initial values of v: its domain if it has no init rule, else the
    rule's candidates on values, each checked against the domain."""
    if v.init is None:
        return v.domain.values()
    cands = rule_candidates(v.init, values)
    for c in cands:
        if not v.domain.contains(c):
            raise ModelStepError(v.name, c, v.init, step=0)
    return cands


def initial_states(ts: TransitionSystem,
                   order: Optional[list[int]] = None) -> Iterator[State]:
    """All states satisfying the init rules; free init vars range over
    their domains, expanded lexicographically in variable order.

    order, when given, is the order to branch in instead of the init-rule
    dependency order; it must place every variable after those its init
    rule reads.
    """
    order = _ops(ts).init_order if order is None else order
    values: list = [None] * len(ts.variables)

    def expand(pos: int) -> Iterator[State]:
        if pos == len(order):
            yield State(tuple(values), ts)
            return
        i = order[pos]
        for c in _init_candidates(ts.variables[i], tuple(values)):
            values[i] = c
            yield from expand(pos + 1)
        values[i] = None

    yield from expand(0)


def successors(ts: TransitionSystem, s: State) -> Iterator[State]:
    """All one-step successors of s as States, in lexicographic candidate
    order.

    Raises ModelStepError at the call, before anything is yielded, when the
    step from s is poisoned.
    """
    return (State(values, ts) for values in itertools.product(*_ops(ts).step_all(s.values)))


def is_successor(ts: TransitionSystem, s: State, t: State) -> bool:
    """Transition-relation membership without enumerating the product.

    A poisoned step has no successors, so nothing follows s then.
    """
    try:
        cands = _ops(ts).step_all(s.values)
    except ModelStepError:
        return False
    return all(t.values[i] in c for i, c in enumerate(cands))


def satisfies_init(ts: TransitionSystem, s: State) -> bool:
    """Init-rule membership; an init rule with an out-of-range candidate
    admits no initial state, as in initial_states."""
    for i in _ops(ts).init_order:
        v = ts.variables[i]
        try:
            if s.values[i] not in _init_candidates(v, s.values):
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


def scripted_chooser(script: dict[tuple[int, str], Value], default: Chooser = first_choice) -> Chooser:
    """Resolve listed (step, var) decisions from a script, defaulting elsewhere.

    Step 0 chooses initial values; step t>0 chooses the value entering state t.
    """

    def choose(step: int, var: str, candidates: tuple) -> Value:
        key = (step, var)
        if key in script:
            value = script[key]
            if value not in candidates:
                raise ValueError(
                    f"scripted value {value!r} for {var!r} at step {step} "
                    f"is not among candidates {candidates!r}"
                )
            return value
        return default(step, var, candidates)

    return choose


def simulate(ts: TransitionSystem, steps: int, chooser: Chooser = first_choice) -> Trace:
    """Run steps synchronous updates, resolving nondeterminism via chooser.

    Deterministic models yield the same trace under any policy. Runtime model
    errors propagate with the step index attached.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    ops = _ops(ts)
    values: list = [None] * len(ts.variables)
    for i in ops.init_order:
        v = ts.variables[i]
        cands = _init_candidates(v, tuple(values))
        values[i] = chooser(0, v.name, cands) if len(cands) > 1 else cands[0]
    current = tuple(values)
    states = [State(current, ts)]
    for step in range(1, steps + 1):
        try:
            cands = ops.step_all(current)
        except ModelStepError as err:
            raise err.with_step(step) from None
        current = tuple(chooser(step, v.name, c) if len(c) > 1 else c[0]
                        for v, c in zip(ts.variables, cands))
        states.append(State(current, ts))
    return Trace(tuple(states))
