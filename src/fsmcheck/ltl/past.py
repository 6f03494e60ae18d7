"""Past-operator elimination by latch variables.

Each distinct past subformula adds one ordinary boolean variable, its latch
L, which holds the subformula's value before the current step: the
standard past-time LTL construction (Havelund & Rosu, TACAS 2002). With p
the subformula's body:

* ``Y p``: init FALSE, next p; the atom is L;
* ``O p``: init FALSE, next L | p; the atom is L | p;
* ``H p``: init TRUE, next L & p; the atom is L & p.

So the atom equals the subformula at every step, and each latch is a
deterministic next rule of the current state: the checker compiles the
latches' rules into one function and appends its value to every successor
of its state graph. Structurally identical past subformulas share one
latch. Bodies must be state formulas (atoms, boolean connectives, and
already-eliminated inner past operators): a latch read at step t cannot
equal a property of states after t, so past over future operators has no
exact latch realization and is rejected.
"""
from __future__ import annotations

from ..semantics.system import (
    BoolDomain, Const, FBinary, FExpr, FUnary, TransitionSystem, VarDef, VarRef,
)
from . import formula as F


class PastEliminationError(Exception):
    pass


_OPS = {F.Once: "O", F.Historically: "H", F.Yesterday: "Y"}


def eliminate_past(f: F.Formula, ts: TransitionSystem) -> tuple[F.Formula, TransitionSystem]:
    """Returns (future-only formula, system with the latches appended).

    On every trace of the augmented system, each atom that replaces a past
    subformula equals that subformula's semantics at every step. Systems
    without past operators are returned unchanged.
    """
    if not F.has_past(f):
        return f, ts
    elim = _Eliminator(ts)
    out = elim.walk(f)
    system = TransitionSystem(ts.variables + tuple(elim.latches),
                              defines=ts.defines, source_name=ts.source_name)
    return out, system


class _Eliminator:
    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.latches: list[VarDef] = []
        self.cache: dict[tuple[str, FExpr], FExpr] = {}
        self.taken = set(ts.index)

    def walk(self, f: F.Formula) -> F.Formula:
        if isinstance(f, F.Atom):
            return f
        if isinstance(f, tuple(_OPS)):
            body = self._to_state_expr(self.walk(f.sub))
            return F.Atom(self._latch(_OPS[type(f)], body))
        if isinstance(f, F.Not):
            return F.Not(self.walk(f.sub))
        if isinstance(f, (F.And, F.Or, F.Implies, F.Until, F.Release)):
            return type(f)(self.walk(f.left), self.walk(f.right))
        if isinstance(f, (F.Next, F.Finally_, F.Globally)):
            return type(f)(self.walk(f.sub))
        if isinstance(f, (F.FinallyWithin, F.GloballyWithin)):
            return type(f)(f.lo, f.hi, self.walk(f.sub))
        raise TypeError(f"unknown formula node {f!r}")

    def _latch(self, op: str, body: FExpr) -> FExpr:
        """Add the latch of `op body` (once) and return the atom over it."""
        key = (op, body)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        name = self._fresh_name(op, body)
        latch = VarRef(len(self.ts.variables) + len(self.latches), name)
        if op == "Y":
            init, nxt, atom = Const(False), body, latch
        else:
            conn = "|" if op == "O" else "&"
            init, atom = Const(op == "H"), FBinary(conn, latch, body)
            nxt = atom
        self.latches.append(VarDef(name, BoolDomain(), init=init, next=nxt))
        self.cache[key] = atom
        return atom

    def _fresh_name(self, op: str, body: FExpr) -> str:
        if isinstance(body, VarRef):
            base = f"{op}_{body.name.replace('.', '_')}"
        else:
            base = f"{op}_sub{len(self.latches)}"
        name = base
        n = 1
        while name in self.taken:
            n += 1
            name = f"{base}_{n}"
        self.taken.add(name)
        return name

    def _to_state_expr(self, f: F.Formula) -> FExpr:
        if isinstance(f, F.Atom):
            return f.expr
        if isinstance(f, F.Not):
            return FUnary("!", self._to_state_expr(f.sub))
        if isinstance(f, (F.And, F.Or, F.Implies)):
            op = {"And": "&", "Or": "|", "Implies": "->"}[type(f).__name__]
            return FBinary(op, self._to_state_expr(f.left), self._to_state_expr(f.right))
        raise PastEliminationError(
            "past operator over a future subformula has no exact latch "
            f"realization: {F.format_formula(f)}"
        )
