"""Bounded counterexample search.

The search runs over (state, obligation) pairs per depth: the obligation is
the formula rewritten by progression through the states consumed so far,
interned with top/bottom absorption so identical residuals merge. An
obligation collapsing to bottom is exactly a Violated prefix verdict, and
collapsing to top a Holds verdict, so the result contract matches direct
three-valued evaluation while exploring deduplicated states instead of
paths. Per-depth deduplication is sound for counterexample-completeness:
a pair reached earlier has at least as much remaining bound as a later
repeat.

The search runs on the system sliced by `deps.slice_constants`: its
sequential constants are left out, the other variables re-indexed, and the
formula's atoms rewritten through the same substitution; past operators
are eliminated on the sliced system. The constants hold in every reachable
state, so the sliced search visits the projections of the unsliced
search's states in the same order: initial states come in the unsliced
system's init order, and a dropped variable would add only one candidate
to each successor product. Each counterexample state is put back to full
width, with the constants at their indices, before `project` builds the
Trace, and a ModelError quotes the unsliced rule, so the verdict is the
one the unsliced system gives.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from ..ltl import formula as F
from ..ltl.past import eliminate_past
from ..semantics.exec import ModelStepError, _emit, initial_states, next_values
from ..semantics.system import FExpr, State, Trace, TransitionSystem
from .deps import sequential_constants, slice_constants


@dataclass(frozen=True)
class CheckTask:
    ts: TransitionSystem
    formula: F.Formula
    bound_k: int = 70
    timeout: Optional[float] = None  # wall-clock seconds

    def __post_init__(self):
        if self.bound_k < 0:
            raise ValueError("bound_k must be >= 0")


@dataclass(frozen=True)
class NoCounterexampleWithinBound:
    bound: int
    all_paths_decided: bool = False


@dataclass(frozen=True)
class Counterexample:
    trace: Trace
    formula: F.Formula
    violation_step: int


@dataclass(frozen=True)
class ModelError:
    step: int
    detail: str


@dataclass(frozen=True)
class Timeout:
    elapsed: float


Verdict = Union[NoCounterexampleWithinBound, Counterexample, ModelError, Timeout]


class TimeoutBudget:
    def __init__(self, seconds: Optional[float]):
        self.start = time.monotonic()
        self.deadline = None if seconds is None else self.start + seconds

    def exceeded(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def elapsed(self) -> float:
        return time.monotonic() - self.start


# --- obligation nodes -------------------------------------------------------

TOP = 0
BOT = 1


class _Obligations:
    """Hash-consed NNF obligation store with progression."""

    def __init__(self, atoms: list[FExpr]):
        self.atoms = atoms
        self.kind = ["top", "bot"]
        self.payload: list = [None, None]
        self.table: dict = {("top", None): TOP, ("bot", None): BOT}
        self.prog_memo: dict = {}

    def _mk(self, kind: str, payload) -> int:
        key = (kind, payload)
        nid = self.table.get(key)
        if nid is None:
            nid = len(self.kind)
            self.kind.append(kind)
            self.payload.append(payload)
            self.table[key] = nid
        return nid

    def lit(self, atom: int, neg: bool) -> int:
        return self._mk("lit", (atom, neg))

    def conj(self, ids) -> int:
        flat: set[int] = set()
        for i in ids:
            if i == BOT:
                return BOT
            if i == TOP:
                continue
            if self.kind[i] == "and":
                flat.update(self.payload[i])
            else:
                flat.add(i)
        if not flat:
            return TOP
        if len(flat) == 1:
            return next(iter(flat))
        return self._mk("and", tuple(sorted(flat)))

    def disj(self, ids) -> int:
        flat: set[int] = set()
        for i in ids:
            if i == TOP:
                return TOP
            if i == BOT:
                continue
            if self.kind[i] == "or":
                flat.update(self.payload[i])
            else:
                flat.add(i)
        if not flat:
            return BOT
        if len(flat) == 1:
            return next(iter(flat))
        return self._mk("or", tuple(sorted(flat)))

    def progress(self, nid: int, bits: tuple) -> int:
        if nid == TOP or nid == BOT:
            return nid
        key = (nid, bits)
        hit = self.prog_memo.get(key)
        if hit is not None:
            return hit
        kind = self.kind[nid]
        p = self.payload[nid]
        if kind == "lit":
            atom, neg = p
            out = BOT if (bits[atom] == neg) else TOP
        elif kind == "and":
            out = self.conj(self.progress(c, bits) for c in p)
        elif kind == "or":
            out = self.disj(self.progress(c, bits) for c in p)
        elif kind == "x":
            out = p
        elif kind == "f":
            out = self.disj((self.progress(p, bits), nid))
        elif kind == "g":
            out = self.conj((self.progress(p, bits), nid))
        elif kind == "u":
            l, r = p
            out = self.disj((self.progress(r, bits), self.conj((self.progress(l, bits), nid))))
        elif kind == "r":
            l, r = p
            out = self.conj((self.progress(r, bits), self.disj((self.progress(l, bits), nid))))
        elif kind == "fw":
            lo, hi, sub = p
            if lo > 0:
                out = self._mk("fw", (lo - 1, hi - 1, sub))
            elif hi == 0:
                out = self.progress(sub, bits)
            else:
                out = self.disj((self.progress(sub, bits), self._mk("fw", (0, hi - 1, sub))))
        elif kind == "gw":
            lo, hi, sub = p
            if lo > 0:
                out = self._mk("gw", (lo - 1, hi - 1, sub))
            elif hi == 0:
                out = self.progress(sub, bits)
            else:
                out = self.conj((self.progress(sub, bits), self._mk("gw", (0, hi - 1, sub))))
        else:
            raise ValueError(f"cannot progress node kind {kind}")
        self.prog_memo[key] = out
        return out


def _collect_atoms(f: F.Formula, out: dict[FExpr, int]) -> None:
    if isinstance(f, F.Atom):
        out.setdefault(f.expr, len(out))
        return
    for c in F.children(f):
        _collect_atoms(c, out)


def _nnf(f: F.Formula, neg: bool, ob: _Obligations, atom_ids: dict) -> int:
    # a constant atom is a literal too: it is decided by the state that
    # reads it, so X FALSE is violated at step 1, not at step 0
    if isinstance(f, F.Atom):
        return ob.lit(atom_ids[f.expr], neg)
    if isinstance(f, F.Not):
        return _nnf(f.sub, not neg, ob, atom_ids)
    if isinstance(f, F.And):
        mk = ob.disj if neg else ob.conj
        return mk((_nnf(f.left, neg, ob, atom_ids), _nnf(f.right, neg, ob, atom_ids)))
    if isinstance(f, F.Or):
        mk = ob.conj if neg else ob.disj
        return mk((_nnf(f.left, neg, ob, atom_ids), _nnf(f.right, neg, ob, atom_ids)))
    if isinstance(f, F.Implies):
        return _nnf(F.Or(F.Not(f.left), f.right), neg, ob, atom_ids)
    if isinstance(f, F.Next):
        return ob._mk("x", _nnf(f.sub, neg, ob, atom_ids))
    if isinstance(f, F.Finally_):
        return ob._mk("g" if neg else "f", _nnf(f.sub, neg, ob, atom_ids))
    if isinstance(f, F.Globally):
        return ob._mk("f" if neg else "g", _nnf(f.sub, neg, ob, atom_ids))
    if isinstance(f, F.Until):
        l = _nnf(f.left, neg, ob, atom_ids)
        r = _nnf(f.right, neg, ob, atom_ids)
        return ob._mk("r" if neg else "u", (l, r))
    if isinstance(f, F.Release):
        l = _nnf(f.left, neg, ob, atom_ids)
        r = _nnf(f.right, neg, ob, atom_ids)
        return ob._mk("u" if neg else "r", (l, r))
    if isinstance(f, F.FinallyWithin):
        sub = _nnf(f.sub, neg, ob, atom_ids)
        return ob._mk("gw" if neg else "fw", (f.lo, f.hi, sub))
    if isinstance(f, F.GloballyWithin):
        sub = _nnf(f.sub, neg, ob, atom_ids)
        return ob._mk("fw" if neg else "gw", (f.lo, f.hi, sub))
    raise TypeError(f"past operator reached the progression engine: {f!r}")


def _compile_atoms(atoms: list[FExpr]):
    if not atoms:
        return lambda s: ()
    body = ", ".join(f"bool({_emit(a)})" for a in atoms)
    src = f"def _atoms(s):\n    return ({body},)\n"
    ns: dict = {}
    exec(compile(src, "<atoms>", "exec"), ns)
    return ns["_atoms"]


def check_bounded(task: CheckTask) -> Verdict:
    """Counterexample-complete bounded search.

    If any initialized path of length <= bound_k has a Violated prefix
    verdict, a Counterexample with the earliest possible violation step is
    returned; a counterexample takes precedence over a runtime model error,
    which takes precedence over the bound-limited no-counterexample result.
    A state whose obligation is decided still steps, without an obligation,
    until the bound or the first poisoned step, so a model error on any path
    within the bound is reported.
    """
    budget = TimeoutBudget(task.timeout)
    sliced = slice_constants(task.ts, sequential_constants(task.ts))
    formula, ts = eliminate_past(F.map_atoms(task.formula, sliced.rewrite), sliced.system)
    atom_ids: dict[FExpr, int] = {}
    _collect_atoms(formula, atom_ids)
    atoms = list(atom_ids)
    ob = _Obligations(atoms)
    root = _nnf(formula, False, ob, atom_ids)
    atom_fn = _compile_atoms(atoms)
    # latches go last; their inits are constants, so where they branch is moot
    init_order = sliced.init_order + list(range(len(sliced.system.variables),
                                                len(ts.variables)))

    def project(values_chain: list[tuple]) -> Trace:
        return Trace(tuple(State(sliced.expand(v), task.ts) for v in values_chain))

    def unsliced(err: ModelStepError) -> str:
        """err's message quoting the task's rule, not the folded one."""
        v = task.ts.var(err.var)
        return str(ModelStepError(err.var, err.value,
                                  v.init if err.step == 0 else v.next, err.step))

    poison: Optional[tuple[int, str]] = None
    undecided_tail = False

    # entries: (values, obligation, parent entry or None)
    frontier: dict[tuple, tuple] = {}
    settled: dict[tuple, None] = {}  # decided states, in insertion order
    try:
        for s in initial_states(ts, init_order):
            bits = atom_fn(s.values)
            res = ob.progress(root, bits)
            if res == BOT:
                return Counterexample(project([s.values]), task.formula, 0)
            if res == TOP:
                settled[s.values] = None
                continue
            key = (s.values, res)
            if key not in frontier:
                frontier[key] = (s.values, res, None)
    except ModelStepError as err:
        return ModelError(0, unsliced(err))

    for depth in range(1, task.bound_k + 1):
        if not frontier and not settled:
            break
        new_frontier: dict[tuple, tuple] = {}
        new_settled: dict[tuple, None] = {}
        for entry in frontier.values():
            values, obligation, _parent = entry
            if budget.exceeded():
                return Timeout(budget.elapsed())
            try:
                succ_values = next_values(ts, values)
            except ModelStepError as err:
                if poison is None:
                    poison = (depth, unsliced(err))
                continue
            for nv in succ_values:
                bits = atom_fn(nv)
                res = ob.progress(obligation, bits)
                if res == BOT:
                    chain = [nv]
                    node = entry
                    while node is not None:
                        chain.append(node[0])
                        node = node[2]
                    chain.reverse()
                    return Counterexample(project(chain), task.formula, depth)
                if res == TOP:
                    new_settled[nv] = None
                    continue
                key = (nv, res)
                if key not in new_frontier:
                    new_frontier[key] = (nv, res, entry)
        if poison is None:
            for values in settled:
                if budget.exceeded():
                    return Timeout(budget.elapsed())
                try:
                    new_settled.update(dict.fromkeys(next_values(ts, values)))
                except ModelStepError as err:
                    poison = (depth, unsliced(err))
                    break
        frontier = new_frontier
        settled = new_settled if poison is None else {}

    if frontier:
        undecided_tail = True
    if poison is not None:
        return ModelError(poison[0], poison[1])
    return NoCounterexampleWithinBound(task.bound_k, all_paths_decided=not undecided_tail)
