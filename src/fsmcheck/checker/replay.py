"""Counterexample replay: transition-membership validation plus re-evaluation.

Membership is decided by the tree walker of semantics.exec, which shares no
stepping code with the checker's compiled kernel, so a trace that a faulty
kernel let the checker reach is rejected here.
"""
from __future__ import annotations

from ..ltl import formula as F
from ..ltl.prefix import PrefixVerdict, holds_on_prefix
from ..semantics.exec import is_successor, satisfies_init
from ..semantics.system import Trace, TransitionSystem


class InvalidTrace(Exception):
    pass


def replay_counterexample(
    ts: TransitionSystem, trace: Trace, formula: F.Formula
) -> PrefixVerdict:
    """Validate the trace against the system, then evaluate the formula.

    Every emitted Counterexample must replay to Violated; this is the
    self-check run before a trace is filed.
    """
    if len(trace) == 0:
        raise InvalidTrace("empty trace")
    for i, state in enumerate(trace.states):
        if len(state.values) != len(ts.variables):
            raise InvalidTrace(f"state {i} has wrong arity for this system")
        for v, value in zip(ts.variables, state.values):
            if not v.domain.contains(value):
                raise InvalidTrace(f"state {i}: {value!r} not in domain of {v.name!r}")
    if not satisfies_init(ts, trace[0]):
        raise InvalidTrace("state 0 does not satisfy the init rules")
    for i in range(len(trace) - 1):
        if not is_successor(ts, trace[i], trace[i + 1]):
            raise InvalidTrace(f"states {i} -> {i + 1} are not in the transition relation")
    return holds_on_prefix(formula, trace)
