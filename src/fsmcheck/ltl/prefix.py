"""Three-valued formula evaluation on finite, loop-free prefixes.

The semantics distinguishes what a prefix proves from what it merely fails
to refute:

* atoms and boolean connectives evaluate pointwise (strong Kleene);
* X at the last position is Inconclusive;
* F holds when some position holds and is never violated without a loop;
  G is violated by a violating position and never positively decided;
* F[a,b] / G[a,b] decide exactly when the window fits inside the prefix;
* U and R follow the standard bounded recursion with an Inconclusive
  off-the-end verdict;
* past operators look backwards only, so they are always decided on
  pure-state bodies.

Extending a prefix can resolve Inconclusive but never flips a decided
verdict.
"""
from __future__ import annotations

from enum import Enum

from ..semantics.exec import eval_fexpr
from ..semantics.system import Trace
from . import formula as F


class PrefixVerdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def negate(self) -> "PrefixVerdict":
        if self is PrefixVerdict.HOLDS:
            return PrefixVerdict.VIOLATED
        if self is PrefixVerdict.VIOLATED:
            return PrefixVerdict.HOLDS
        return self


H = PrefixVerdict.HOLDS
V = PrefixVerdict.VIOLATED
I = PrefixVerdict.INCONCLUSIVE


def and3(a: PrefixVerdict, b: PrefixVerdict) -> PrefixVerdict:
    if a is V or b is V:
        return V
    if a is H and b is H:
        return H
    return I


def or3(a: PrefixVerdict, b: PrefixVerdict) -> PrefixVerdict:
    if a is H or b is H:
        return H
    if a is V and b is V:
        return V
    return I


def holds_on_prefix(f: F.Formula, trace: Trace) -> PrefixVerdict:
    """Verdict of f at position 0 of the prefix."""
    memo: dict = {}
    return _eval(f, 0, trace, memo)


def _eval(f: F.Formula, i: int, trace: Trace, memo: dict) -> PrefixVerdict:
    # keyed by identity: hashing a frozen formula node hashes its whole
    # subtree. f and its subformulas live for the whole holds_on_prefix
    # call that owns memo, so no id is reused while memo is read.
    key = (id(f), i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = len(trace)
    if isinstance(f, F.Atom):
        out = H if eval_fexpr(f.expr, trace[i].values) else V
    elif isinstance(f, F.Not):
        out = _eval(f.sub, i, trace, memo).negate()
    elif isinstance(f, F.And):
        out = and3(_eval(f.left, i, trace, memo), _eval(f.right, i, trace, memo))
    elif isinstance(f, F.Or):
        out = or3(_eval(f.left, i, trace, memo), _eval(f.right, i, trace, memo))
    elif isinstance(f, F.Implies):
        out = or3(_eval(f.left, i, trace, memo).negate(), _eval(f.right, i, trace, memo))
    elif isinstance(f, F.Next):
        out = _eval(f.sub, i + 1, trace, memo) if i + 1 < n else I
    elif isinstance(f, F.Finally_):
        out = I
        for j in range(i, n):
            if _eval(f.sub, j, trace, memo) is H:
                out = H
                break
    elif isinstance(f, F.Globally):
        out = I
        for j in range(i, n):
            if _eval(f.sub, j, trace, memo) is V:
                out = V
                break
    elif isinstance(f, F.FinallyWithin):
        out = _window(f, i, trace, memo, positive=H)
    elif isinstance(f, F.GloballyWithin):
        out = _window(f, i, trace, memo, positive=V)
    elif isinstance(f, F.Until):
        out = I
        for j in range(n - 1, i - 1, -1):
            out = or3(_eval(f.right, j, trace, memo),
                      and3(_eval(f.left, j, trace, memo), out))
    elif isinstance(f, F.Release):
        out = I
        for j in range(n - 1, i - 1, -1):
            out = and3(_eval(f.right, j, trace, memo),
                       or3(_eval(f.left, j, trace, memo), out))
    elif isinstance(f, F.Once):
        out = V
        for j in range(0, i + 1):
            out = or3(out, _eval(f.sub, j, trace, memo))
            if out is H:
                break
    elif isinstance(f, F.Yesterday):
        out = V if i == 0 else _eval(f.sub, i - 1, trace, memo)
    elif isinstance(f, F.Historically):
        out = H
        for j in range(0, i + 1):
            out = and3(out, _eval(f.sub, j, trace, memo))
            if out is V:
                break
    else:
        raise TypeError(f"unknown formula node {f!r}")
    memo[key] = out
    return out


def _window(f, i: int, trace: Trace, memo: dict, positive: PrefixVerdict) -> PrefixVerdict:
    """Shared F[a,b]/G[a,b] evaluation; `positive` is the short-circuiting
    verdict (HOLDS for F, VIOLATED for G)."""
    n = len(trace)
    lo, hi = i + f.lo, i + f.hi
    fits = hi < n
    other = positive.negate()
    all_other = True
    for j in range(lo, min(hi, n - 1) + 1):
        v = _eval(f.sub, j, trace, memo)
        if v is positive:
            return positive
        if v is not other:
            all_other = False
    if fits and all_other and lo <= hi:
        return other
    return I
