"""Bounded counterexample search over a shared state graph.

The search runs over (state, obligation) pairs per depth: the obligation is
the formula rewritten by progression through the states consumed so far
(Bacchus & Kabanza, AI 116, 2000), interned with top/bottom absorption so
identical residuals merge. Its nodes are literals, and/or, next, until and
release (F s being TRUE U s and G s FALSE R s) and the windows F[a,b] and
G[a,b]. An obligation collapsing to bottom is exactly a Violated prefix
verdict, and collapsing to top a Holds verdict, so the result contract
matches direct three-valued evaluation while exploring deduplicated
states instead of paths. A past operator is a one-bit monitor of the step
before (Havelund & Rosu, TACAS 2002), and its bit is kept in the
obligation beside the future residual (see `_Obligations`), so a pair's
future depends on its state and its obligation alone.

An obligation store is shared by every check in a process whose formula has
one skeleton, the formula with each distinct atom replaced by its number.
Progression reads a state only through its atom bits, indexed by atom
number, so a store depends on the skeleton alone; a check compiles its own
atoms, rewritten through the slice, and tells from them whether they read
the depth clock. A node's structure is its identity within one table, and
the id order of a join only changes which children a short-circuit skips,
so no check's result depends on which checks filled the store before it.

The states come from a `StateGraph` of the system sliced by
`deps.slice_constants`: its sequential constants are left out, the other
variables re-indexed, and the formula's atoms rewritten through the same
substitution. The graph interns each sliced state as an int and memoizes
its successors; it is built at the first check of a system and cached on
it, so every spec checked on one instance shares one exploration, as in
multi-property checking (Cabodi & Nocco, DATE 2011).

The graph also keeps its breadth-first levels: level 0 is the initial
states, and level d+1 the successors of level d's states whose step is not
poisoned, deduplicated in first-encounter order, with each level-d
position's successors as a bitset of level d+1's positions, a Python int.
The search steps sets of states at once, as image computation does in
symbolic model checking (Burch, Clarke, McMillan, Dill & Hwang, LICS 1990),
but over explicit interned states. Before depth d's states are read, each
obligation maps to the bitset of level d's positions it reaches; at depth 0
the formula reaches all of level 0. Level d's positions are grouped by
their atom bits, and an obligation is progressed once per bits value whose
group its bitset meets: bottom is a violation at depth d, top is dropped,
and any other result holds on the meet. That frontier, each undecided
obligation with the positions holding it, reaches the OR of its positions'
successor bitsets at depth d+1; all of level d reaches all of level d+1.

Per-depth deduplication is sound for counterexample-completeness: a pair
reached earlier has at least as much remaining bound as a later repeat.
The search stops at the first depth with a bottom result, so the violation
step is the earliest. The counterexample is canonical: the
lexicographically least of the shortest violating paths, as a sequence of
an init position and successor positions in the kernel's order, which is
the path the oracle `brute_force_check` returns. Each depth keeps its
moves, (obligation, positions, result), and the trace is read back from
them without stepping any obligation again. Going backward from the
violating depth D, each depth's positions are marked, per obligation, if
they have a path to a bottom result at D; every marked pair above D has a
marked successor. Going forward from the least marked initial position,
each step takes the state's first successor in kernel order that is
marked under the result of the move it is in, which spells out that least
path.

A model error is the graph's, shared by every spec of an instance: a path
ends at a poisoned step whatever its obligation, so a poisoned state's
successor bitset is empty, and the levels record the poison. Level 0 holds
the init rule's, reported before anything else; level d+1 that of level
d's first poisoned state. With no counterexample, the first poisoned level
d >= 1 within the bound gives ModelError(d). A level is in the order of
its states' least paths, and the oracle's depth-first walk meets paths in
least-path order too, so both quote the same step of one state.

The constants hold in every reachable state, so the sliced search visits
the projections of the unsliced search's states in the same order: initial
states come in the unsliced system's init order, and a dropped variable
would add only one candidate to each successor product. Each
counterexample state is put back to full width, with the constants at
their indices, before the Trace is built, and a ModelError quotes the
unsliced rule, so the verdict is the one the unsliced system gives.

The sliced system's depth clock, if it has one (`deps.depth_clock`; a VCS
instance's `Step`), is held out of the graph's states in turn. Every state
at depth d holds the clock's value at d, so dropping it is a bijection on
each level that keeps first-encounter order and successor bitsets. The
graph interns a state with the clock held at its init value, and the kernel
reads the clock only through its inputs, the maximal subexpressions of the
next rules that read the clock alone, which the graph evaluates at each
depth's clock value: that tuple is the depth's signature, and the clock
never leaves its domain. Two depths with one signature therefore step a
state to the same successors, or the same Poison, and the graph memoizes
a step per (state id, signature). So the frontiers, verdicts, violation
steps, model errors and traces are those of the search over the full
states; a trace puts back each depth's clock value. The atoms of a
formula that read the clock are evaluated on the state at its depth, and
all others once per state, as without a clock.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from ..ltl import formula as F
from ..semantics.exec import ModelStepError, _emit, initial_states, step_kernel
from ..semantics.system import FExpr, State, Trace, TransitionSystem, Value, collect_refs
from .deps import Clock, ConstantSlice, depth_clock, sequential_constants, slice_constants


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
    """Hash-consed NNF obligation store with progression.

    The node kinds are top and bot; lit, an atom or its negation; and, or,
    one join with the absorbing and neutral nodes swapped; x, next; u and
    r, until and its dual release, with F s stored as TRUE U s and G s as
    FALSE R s; fw and gw, the dual windows F[a,b] and G[a,b]; and past.
    Each dual pair has one progression rule.

    Each distinct O, Y or H subformula is registered once as a monitor
    (op, body node), the body a state formula over the atoms and the inner
    monitors' values, and it reads as a pseudo-atom. A formula with
    monitors has a `past` root, which holds the monitors' bits of the step
    before (for Y its body's value, for O and H its own) and the future
    residual. Progressing it through a state's atom bits computes the
    monitors' values there, memoized per monitor bits and atom bits, and
    then progresses the residual over the outer atoms, those read outside
    any past body and numbered first, followed by the values of the
    monitors read there; so the residual's memo keys hold no bit that only
    a past body reads.

    A store is built once per skeleton in a process (`obligation_store`)
    and shared by its formulas: its atoms are numbers, not expressions.
    """

    def __init__(self, formula: F.Formula):
        self.atom_ids, self.outer = _number_atoms(formula)
        self.kind = ["top", "bot"]
        self.payload: list = [None, None]
        self.table: dict = {("top", None): TOP, ("bot", None): BOT}
        self.prog_memo: dict = {}
        self.monitors: dict[tuple[str, int], int] = {}  # (op, body) -> its index
        self.exports: dict[int, int] = {}  # a monitor read outside past bodies -> its place
        self.past_memo: dict = {}
        root = self._nnf(formula, False, False)
        # monitor -> the monitors its body reads, each registered before it
        self.reads = [self._pseudo_atoms(body) for _, body in self.monitors]
        if self.monitors:
            root = self._mk("past", (tuple(op == "H" for op, _ in self.monitors), root))
        self.root = root

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

    def join(self, op: str, ids) -> int:
        """The conjunction (op "and") or disjunction ("or") of ids, flattened.
        BOT absorbs a conjunction and TOP is neutral in it; a disjunction
        swaps the two."""
        absorbing, neutral = (BOT, TOP) if op == "and" else (TOP, BOT)
        flat: set[int] = set()
        for i in ids:
            if i == absorbing:
                return absorbing
            if i == neutral:
                continue
            if self.kind[i] == op:
                flat.update(self.payload[i])
            else:
                flat.add(i)
        if not flat:
            return neutral
        if len(flat) == 1:
            return next(iter(flat))
        return self._mk(op, tuple(sorted(flat)))

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
        elif kind == "and" or kind == "or":
            out = self.join(kind, (self.progress(c, bits) for c in p))
        elif kind == "x":
            out = p
        elif kind == "u" or kind == "r":
            # l U r = r | (l & X (l U r)), and R is its dual
            outer, inner = ("or", "and") if kind == "u" else ("and", "or")
            l, r = p
            later = self.join(inner, (self.progress(l, bits), nid))
            out = self.join(outer, (self.progress(r, bits), later))
        elif kind == "fw" or kind == "gw":
            lo, hi, sub = p
            if lo > 0:
                out = self._mk(kind, (lo - 1, hi - 1, sub))
            elif hi == 0:
                out = self.progress(sub, bits)
            else:  # F[0,h] s = s | F[0,h-1] s, and G[0,h] its dual
                later = self._mk(kind, (0, hi - 1, sub))
                out = self.join("or" if kind == "fw" else "and", (self.progress(sub, bits), later))
        elif kind == "past":
            was, residual = p
            step = self.past_memo.get((was, bits))
            if step is None:
                step = self.past_memo[(was, bits)] = self._past_step(was, bits)
            now, values = step
            out = self.progress(residual, values)
            if out != TOP and out != BOT:
                out = self._mk("past", (now, out))
        else:
            raise ValueError(f"cannot progress node kind {kind}")
        self.prog_memo[key] = out
        return out

    def _past_step(self, was: tuple, bits: tuple) -> tuple[tuple, tuple]:
        """The monitors' bits after a state with atom bits `bits`, given
        their bits `was` before it, and the bits the residual reads there."""
        values: list[bool] = []
        now = []
        for (op, body), before in zip(self.monitors, was):
            held = self.progress(body, bits + tuple(values)) == TOP
            if op == "O":
                held = before or held
            elif op == "H":
                held = before and held
            values.append(before if op == "Y" else held)
            now.append(held)
        # a monitor that neither the residual nor a live monitor reads is
        # reset, so obligations that differ only in its bit merge: an O
        # once true, or an H once false, never reads its body again
        live = set(self.exports)
        for j, (op, _) in reversed(list(enumerate(self.monitors))):
            if j in live and (op == "Y" or now[j] != (op == "O")):
                live |= self.reads[j]
        now = [held and j in live for j, held in enumerate(now)]
        return tuple(now), bits[:self.outer] + tuple(values[j] for j in self.exports)

    def _pseudo_atoms(self, nid: int) -> set[int]:
        """The monitors a state formula node of a past body reads."""
        if self.kind[nid] == "lit":
            atom = self.payload[nid][0] - len(self.atom_ids)
            return {atom} if atom >= 0 else set()
        if self.kind[nid] in ("and", "or"):
            return set().union(*map(self._pseudo_atoms, self.payload[nid]))
        return set()

    def _nnf(self, f: F.Formula, neg: bool, body: bool) -> int:
        """f, negated if neg, as a node. In a past body, a monitor's
        pseudo-atom follows all atoms; outside, it follows the outer atoms,
        in the order the monitors read there are first met."""
        # a constant atom is a literal too: it is decided by the state that
        # reads it, so X FALSE is violated at step 1, not at step 0
        if isinstance(f, F.Atom):
            return self.lit(self.atom_ids[f.expr], neg)
        if isinstance(f, F.Not):
            return self._nnf(f.sub, not neg, body)
        if isinstance(f, F.PAST_OPS):
            key = (type(f).__name__[0], self._nnf(f.sub, False, True))  # O, Y or H
            j = self.monitors.setdefault(key, len(self.monitors))
            if body:
                return self.lit(len(self.atom_ids) + j, neg)
            return self.lit(self.outer + self.exports.setdefault(j, len(self.exports)), neg)
        if isinstance(f, F.Implies):
            return self._nnf(F.Or(F.Not(f.left), f.right), neg, body)
        if isinstance(f, (F.And, F.Or)):
            op = "and" if isinstance(f, F.And) != neg else "or"
            return self.join(op, (self._nnf(f.left, neg, body), self._nnf(f.right, neg, body)))
        if body:
            raise F.PastEliminationError(f)  # `obligation_store` quotes it with its atoms
        if isinstance(f, F.Next):
            return self._mk("x", self._nnf(f.sub, neg, body))
        if isinstance(f, (F.Until, F.Finally_, F.Release, F.Globally)):
            # F s is TRUE U s and G s is FALSE R s
            kind = "u" if isinstance(f, (F.Until, F.Finally_)) != neg else "r"
            if isinstance(f, (F.Until, F.Release)):
                l, r = self._nnf(f.left, neg, body), self._nnf(f.right, neg, body)
            else:
                l, r = (TOP if kind == "u" else BOT), self._nnf(f.sub, neg, body)
            return self._mk(kind, (l, r))
        if isinstance(f, (F.FinallyWithin, F.GloballyWithin)):
            kind = "fw" if isinstance(f, F.FinallyWithin) != neg else "gw"
            return self._mk(kind, (f.lo, f.hi, self._nnf(f.sub, neg, body)))
        raise TypeError(f"unknown formula node {f!r}")


def _number_atoms(formula: F.Formula) -> tuple[dict[FExpr, int], int]:
    """formula's atoms numbered, outer ones first; and how many are outer."""
    atom_ids: dict[FExpr, int] = {}
    bodies: list[F.Formula] = []
    _collect_atoms(formula, atom_ids, bodies)
    outer = len(atom_ids)
    while bodies:
        _collect_atoms(bodies.pop(), atom_ids, bodies)
    return atom_ids, outer


def _collect_atoms(f: F.Formula, out: dict[FExpr, int], bodies: list[F.Formula]) -> None:
    """Number f's atoms read outside any past body; list the outermost
    past bodies."""
    if isinstance(f, F.Atom):
        out.setdefault(f.expr, len(out))
    elif isinstance(f, F.PAST_OPS):
        bodies.append(f.sub)
    else:
        for c in F.children(f):
            _collect_atoms(c, out, bodies)


_store = functools.lru_cache(maxsize=1024)(_Obligations)  # skeleton -> its store


def obligation_store(formula: F.Formula) -> tuple[_Obligations, tuple[FExpr, ...]]:
    """The obligation store of formula's skeleton, formula with the
    expression of its atom i replaced by i, and formula's atoms in that
    order. A store is built once per skeleton in a process and shared by
    every formula with that skeleton."""
    atom_ids, _ = _number_atoms(formula)
    atoms = tuple(atom_ids)
    try:
        return _store(F.map_atoms(formula, atom_ids.__getitem__)), atoms
    except F.PastEliminationError as err:
        sub = F.map_atoms(err.args[0], atoms.__getitem__)
        raise F.PastEliminationError(
            f"past operator over a future subformula: {F.format_formula(sub)}") from None


@functools.lru_cache(maxsize=1024)
def _compile_tuple(name: str, items: tuple[str, ...]):
    """A function of a state tuple s returning the tuple of items, each a
    Python expression over s; compiled once per source in a process."""
    if not items:
        return lambda s: ()
    src = f"def {name}(s):\n    return ({', '.join(items)},)\n"
    ns: dict = {}
    exec(compile(src, f"<{name}>", "exec"), ns)
    return ns.pop(name)  # so the function and its globals form no cycle


# --- the shared state graph -------------------------------------------------


@dataclass(frozen=True)
class Poison:
    """A poisoned step, as data: var's rule gave value, outside its domain."""

    var: str
    value: Value


class Level(NamedTuple):
    """One breadth-first level of a StateGraph."""

    ids: tuple[int, ...]    # its states, in first-encounter order
    # level d+1: per position of level d, the bitset of its successors'
    # positions here, 0 for a poisoned step; level 0: ()
    masks: tuple[int, ...]
    # level 0: the init rule's, if any; level d+1: level d's first poisoned step
    poison: Optional[Poison]


class StateGraph:
    """The reachable states of a sliced system, explored on demand.

    A state is interned as an int, its id, when it is first reached. With
    a depth clock, a state is interned with the clock held at its init
    value: every state at one depth holds the same clock value, which
    `at(depth)` puts back. The kernel reads the clock only through its
    inputs, the maximal subexpressions of the next rules that read the
    clock alone; a depth's signature is their values at that depth's clock
    value. Each id's successor ids are memoized per signature, in the
    kernel's lexicographic order; a poisoned step is memoized as its
    Poison. So the kernel steps a state once per signature it is reached
    at, not once per depth. Without a clock, every depth has the one empty
    signature. Every check of the system the graph is cached on reads and
    extends the same graph, so the kernel steps each state at most once
    per signature, whichever spec reaches it first.

    The graph also keeps its breadth-first levels, built on demand and only
    as deep as some check asked for. Level 0 is the initial ids, with the
    Poison of the init rule that cut their enumeration short; level d+1
    is the successors of level d's states whose step is not poisoned,
    deduplicated in first-encounter order (level d in order, each state's
    successors in kernel order), with the successor bitset of each position
    of level d over it, and with the Poison of level d's first poisoned
    state. A level is cached only once it is complete.

    Level d+1 is a function of level d's ids and of depth d's signature,
    since the successors are memoized per signature. So each level built is
    kept under that pair, and a level whose pair repeats an earlier one's is
    that same Level object, with no state stepped and no budget poll.
    """

    def __init__(self, sliced: ConstantSlice, clock: Optional[Clock]):
        self.sliced = sliced
        self.clock = clock
        self._kernel, self._inputs = step_kernel(
            sliced.system, None if clock is None else clock.index)
        # their values on a state; instances whose inputs print alike share it
        self._input_fn = _compile_tuple("_inputs", tuple(map(_emit, self._inputs)))
        self.values: list[tuple] = []  # id -> sliced value tuple, the clock held
        self._succ: list[list] = []    # signature -> id -> successor ids, a Poison, or None
        self._keys: list[tuple] = []   # signature -> the values of the kernel's inputs
        self._signatures: list[int] = []  # depth -> its signature
        self._ids: dict[tuple, int] = {}
        self._levels: list[Level] = []
        self._after: dict[tuple, Level] = {}  # (level d's ids, signature(d)) -> level d + 1

    def intern(self, values: tuple) -> int:
        sid = self._ids.get(values)
        if sid is None:
            sid = self._ids[values] = len(self.values)
            self.values.append(values)
            for succ in self._succ:
                succ.append(None)
        return sid

    def signature(self, depth: int) -> int:
        """The signature of depth, as a small int."""
        signatures = self._signatures
        while len(signatures) <= depth:
            key = ()
            if self.clock is not None:
                probe: list = [None] * len(self.sliced.system.variables)
                probe[self.clock.index] = self.clock.at(len(signatures))
                key = self._input_fn(probe)
            if key not in self._keys:
                self._keys.append(key)
                self._succ.append([None] * len(self.values))
            signatures.append(self._keys.index(key))
        return signatures[depth]

    def at(self, depth: int) -> Sequence[tuple]:
        """id -> the sliced value tuple of that state at depth, with the
        clock's value put back."""
        if self.clock is None:
            return self.values
        return _AtDepth(self.values, self.clock.index, self.clock.at(depth))

    def step(self, sid: int, depth: int):
        """The successor ids of sid at depth, or the Poison of its step."""
        sig = self.signature(depth)
        succ = self._succ[sig]
        out = succ[sid]
        if out is None:
            try:
                cands = self._kernel(self.values[sid], self._keys[sig])
                out = tuple(map(self.intern, itertools.product(*cands)))
            except ModelStepError as err:
                out = Poison(err.var, err.value)
            succ[sid] = out
        return out

    def level(self, depth: int, budget: TimeoutBudget) -> Optional[Level]:
        """Level depth, building the levels before it as needed; None if the
        budget runs out first, polled once per state stepped."""
        levels = self._levels
        if not levels:
            ids: dict[int, None] = {}
            poison = None
            try:
                for s in initial_states(self.sliced.system, self.sliced.init_order):
                    ids[self.intern(s.values)] = None
            except ModelStepError as err:
                poison = Poison(err.var, err.value)
            levels.append(Level(tuple(ids), (), poison))
        while len(levels) <= depth:
            d = len(levels) - 1
            key = (levels[d].ids, self.signature(d))
            if key in self._after:
                levels.append(self._after[key])
                continue
            succ = self._succ[key[1]]
            position: dict[int, int] = {}  # id -> its position in level d + 1
            masks = []
            poison = None
            for sid in levels[-1].ids:
                if budget.exceeded():
                    return None
                out = succ[sid]
                if out is None:
                    out = self.step(sid, d)
                mask = 0
                if isinstance(out, Poison):
                    if poison is None:
                        poison = out
                else:
                    for nid in out:
                        mask |= 1 << position.setdefault(nid, len(position))
                masks.append(mask)
            levels.append(Level(tuple(position), tuple(masks), poison))
            self._after[key] = levels[-1]
        return levels[depth]


class _AtDepth:
    """A graph's value tuples with the clock's value at one depth put back."""

    __slots__ = ("values", "index", "value")

    def __init__(self, values: list[tuple], index: int, value: Value):
        self.values = values
        self.index = index
        self.value = value

    def __getitem__(self, sid: int) -> tuple:
        s = self.values[sid]
        return s[:self.index] + (self.value,) + s[self.index + 1:]


def state_graph(ts: TransitionSystem) -> StateGraph:
    """ts's state graph, built on its constant slice and that slice's depth
    clock at the first call, and cached on ts."""
    if ts._graph is None:
        sliced = slice_constants(ts, sequential_constants(ts))
        ts._graph = StateGraph(sliced, depth_clock(sliced.system))
    return ts._graph


# --- the search ---------------------------------------------------------------


def check_bounded(task: CheckTask) -> Verdict:
    """Counterexample-complete bounded search.

    If any initialized path of length <= bound_k has a Violated prefix
    verdict, a Counterexample with the earliest possible violation step is
    returned, along the canonical path (see the module docstring); a
    counterexample takes precedence over a runtime model error, which takes
    precedence over the bound-limited no-counterexample result. An init
    rule that leaves its domain is ModelError(0) before all that, as in
    the oracle. Model errors are read from the graph's levels only.

    One loop runs over the depths. At depth d, each obligation's bitset of
    level d's positions is progressed once per atom-bits group of level d it
    meets, and the undecided results' positions are stepped to level d+1
    through the level's successor bitsets. The atom bits are read through
    one per-state memo, and a level's groups through one memo per level, so
    the atoms are evaluated once per state, and a level whose states repeat
    an earlier one's is grouped once. When an atom reads the depth clock,
    the atoms are evaluated on the states at their depth, and the memos last
    one depth. The budget is polled once per depth, and once per state
    stepped while a level is built.
    """
    budget = TimeoutBudget(task.timeout)
    graph = state_graph(task.ts)
    sliced = graph.sliced
    ob, atoms = obligation_store(task.formula)
    atoms = tuple(map(sliced.rewrite, atoms))
    atom_fn = _compile_tuple("_atoms", tuple(f"bool({_emit(a)})" for a in atoms))
    progress = ob.progress
    # at(depth): the states' values as the atoms read them at depth; unless
    # they read the clock, the graph's own serve every depth
    reads: set[int] = set()
    for e in atoms:
        collect_refs(e, reads)
    timed = graph.clock is not None and graph.clock.index in reads
    at = graph.at if timed else lambda depth: graph.values
    # state id -> its atom bits, and a level's ids -> its atom-bits groups;
    # if timed, for one depth
    bits_of: dict[int, tuple] = {}
    grouped: dict[tuple[int, ...], dict[tuple, int]] = {}

    def groups(depth: int, ids: tuple[int, ...]) -> dict[tuple, int]:
        """A level's atom-bits values, each with the bitset of the
        positions holding it."""
        if timed:
            bits_of.clear()
            grouped.clear()
        out = grouped.get(ids)
        if out is None:
            now = at(depth)
            out = grouped[ids] = {}
            for i, sid in enumerate(ids):
                bits = bits_of.get(sid)
                if bits is None:
                    bits = bits_of[sid] = atom_fn(now[sid])
                out[bits] = out.get(bits, 0) | 1 << i
        return out

    def unsliced(p: Poison, at_init: bool) -> str:
        """p's message, quoting the task's rule and not the folded one."""
        v = task.ts.var(p.var)
        if at_init:
            return str(ModelStepError(p.var, p.value, v.init, 0))
        return str(ModelStepError(p.var, p.value, v.next))

    level = graph.level(0, budget)
    if level.poison is not None:
        return ModelError(0, unsliced(level.poison, True))
    levels = [level]
    history: list[list[tuple[int, int, int]]] = []  # depth -> its moves
    reach = {ob.root: (1 << len(level.ids)) - 1}  # obligation -> its positions at depth
    for depth in range(task.bound_k + 1):
        moves = []
        frontier: dict[int, int] = {}  # undecided obligation -> its positions
        violated = False
        for bits, group in groups(depth, level.ids).items():
            for obligation, positions in reach.items():
                meet = positions & group
                if meet:
                    res = progress(obligation, bits)
                    moves.append((obligation, meet, res))
                    if res == BOT:
                        violated = True
                    elif res != TOP:
                        frontier[res] = frontier.get(res, 0) | meet
        history.append(moves)
        if violated:
            return Counterexample(_trace(graph, levels, history, ob.root, task.ts),
                                  task.formula, depth)
        if not frontier or depth == task.bound_k:
            break
        if budget.exceeded():
            return Timeout(budget.elapsed())
        full = (1 << len(level.ids)) - 1
        level = graph.level(depth + 1, budget)
        if level is None:
            return Timeout(budget.elapsed())
        levels.append(level)
        reach = {}
        for obligation, positions in frontier.items():
            if positions == full:
                image = (1 << len(level.ids)) - 1
            else:
                image = 0
                for i in _members(positions):
                    image |= level.masks[i]
            if image:
                reach[obligation] = image

    for depth in range(1, task.bound_k + 1):
        level = graph.level(depth, budget)
        if level is None:
            return Timeout(budget.elapsed())
        if level.poison is not None:
            return ModelError(depth, unsliced(level.poison, False))
    return NoCounterexampleWithinBound(task.bound_k, all_paths_decided=not frontier)


def _members(bitset: int):
    """The positions in a bitset, in increasing order."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def _trace(graph: StateGraph, levels: list[Level], history: list[list[tuple]],
           root: int, ts: TransitionSystem) -> Trace:
    """The canonical counterexample to the bottom moves of the last depth
    of history: the least path, in kernel order, through pairs marked as
    having a path to one of them."""
    last = len(history) - 1
    marked: dict[int, int] = {}  # obligation -> its positions with a path to bottom
    for obligation, meet, res in history[last]:
        if res == BOT:
            marked[obligation] = marked.get(obligation, 0) | meet
    marks = [marked]
    for depth in range(last - 1, -1, -1):
        masks = levels[depth + 1].masks
        later, marked = marked, {}
        for obligation, meet, res in history[depth]:
            target = later.get(res)
            if target:
                for i in _members(meet):
                    if masks[i] & target:
                        marked[obligation] = marked.get(obligation, 0) | 1 << i
        marks.append(marked)
    marks.reverse()
    i = next(_members(marks[0][root]))
    obligation = root
    sids = [levels[0].ids[i]]
    for depth in range(last):
        obligation = next(res for held, meet, res in history[depth]
                          if held == obligation and meet >> i & 1)
        target = marks[depth + 1][obligation]
        position = {sid: j for j, sid in enumerate(levels[depth + 1].ids)}
        sid = next(nid for nid in graph.step(sids[-1], depth) if target >> position[nid] & 1)
        sids.append(sid)
        i = position[sid]
    expand = graph.sliced.expand
    return Trace(tuple(State(expand(graph.at(d)[sid]), ts) for d, sid in enumerate(sids)))
