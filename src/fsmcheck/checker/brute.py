"""Exhaustive path-enumeration oracle.

Enumerates every initialized path up to the bound in lexicographic successor
order and evaluates the formula directly with three-valued prefix semantics,
past operators included, with no elimination and no deduplication. Verdicts
must equal check_bounded on the same task; this is the ground truth the
randomized equivalence suites lean on. It steps the system through the
tree walker of semantics.exec and shares no stepping code with the
checker, whose state graph steps a compiled kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ltl.prefix import PrefixVerdict, holds_on_prefix
from ..semantics.exec import ModelStepError, initial_states, successors
from ..semantics.system import State, Trace
from .core import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
    Timeout, TimeoutBudget, Verdict,
)


class CapExceeded(Exception):
    def __init__(self, what: str, limit: int):
        self.what = what
        self.limit = limit
        super().__init__(f"enumeration exceeded {what} cap of {limit}")


@dataclass
class _Search:
    best_step: Optional[int] = None
    best_trace: Optional[tuple] = None
    poison_step: Optional[int] = None
    poison_detail: str = ""
    undecided: bool = False
    paths: int = 0
    states: int = 0


def brute_force_check(
    task: CheckTask,
    max_states: int = 2_000_000,
    max_paths: int = 200_000,
) -> Verdict:
    """Requires the model to be small enough for full path enumeration."""
    budget = TimeoutBudget(task.timeout)
    search = _Search()
    k = task.bound_k

    def finish_path(path: list[State]) -> None:
        search.paths += 1
        if search.paths > max_paths:
            raise CapExceeded("paths", max_paths)
        trace = Trace(tuple(path))
        verdict = holds_on_prefix(task.formula, trace)
        if verdict is PrefixVerdict.VIOLATED:
            step = _earliest_violation(task.formula, path)
            if search.best_step is None or step < search.best_step:
                search.best_step = step
                search.best_trace = tuple(path[: step + 1])
        elif verdict is PrefixVerdict.INCONCLUSIVE:
            search.undecided = True

    def walk(path: list[State]) -> None:
        if budget.exceeded():
            raise _TimeoutSignal()
        depth = len(path) - 1
        if depth == k:
            finish_path(path)
            return
        try:
            succ = list(successors(task.ts, path[-1]))
        except ModelStepError as err:
            if search.poison_step is None or depth + 1 < search.poison_step:
                search.poison_step = depth + 1
                search.poison_detail = str(err)
            finish_path(path)
            return
        for s in succ:
            search.states += 1
            if search.states > max_states:
                raise CapExceeded("states", max_states)
            path.append(s)
            walk(path)
            path.pop()

    try:
        for s0 in initial_states(task.ts):
            search.states += 1
            if search.states > max_states:
                raise CapExceeded("states", max_states)
            walk([s0])
    except _TimeoutSignal:
        return Timeout(budget.elapsed())
    except ModelStepError as err:
        return ModelError(0, str(err))

    if search.best_step is not None:
        return Counterexample(Trace(search.best_trace), task.formula, search.best_step)
    if search.poison_step is not None:
        return ModelError(search.poison_step, search.poison_detail)
    return NoCounterexampleWithinBound(k, all_paths_decided=not search.undecided)


class _TimeoutSignal(Exception):
    pass


def _earliest_violation(formula, path: list[State]) -> int:
    for length in range(1, len(path) + 1):
        if holds_on_prefix(formula, Trace(tuple(path[:length]))) is PrefixVerdict.VIOLATED:
            return length - 1
    raise AssertionError("violated path has no violating prefix")
