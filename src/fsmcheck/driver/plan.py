"""Batch planning: enumerate single/double failure tasks over a matrix range.

Range addressing is 1-based inclusive over ordered pairs (row = first
failure, column = second). A full plan is all N singles followed by all
N x N ordered pairs; diagonal cells plan as the single-failure scenario for
that axis, which is the only reading consistent with failures occurring at
most once per run while keeping the N + N^2 count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .catalog import FATAL, FailureCatalog, FailureEntry, TargetModeMatrix
from .specs import SpecCatalog, SpecEntry


class PlanRangeError(Exception):
    pass


@dataclass(frozen=True)
class PlannedTask:
    row: int                      # first-failure axis index (1-based)
    col: int                      # second-failure axis index; 0 for pure singles
    scenario: str                 # "single" | "double"
    axis_a: FailureEntry
    axis_b: Optional[FailureEntry]
    target: Optional[str]         # None when the combination is FATAL
    fatal: bool
    model_id: str
    specs: tuple[str, ...]        # applicable spec names, catalog order

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.row, self.col)


@dataclass(frozen=True)
class BatchPlan:
    tasks: tuple[PlannedTask, ...]
    n_axes: int
    bound: int

    def __len__(self) -> int:
        return len(self.tasks)


Selector = Union[str, tuple[int, int, int, int]]


def plan_batch(
    catalog: FailureCatalog,
    matrix: TargetModeMatrix,
    specs: SpecCatalog,
    selector: Selector = "full",
    bound: int = 70,
) -> BatchPlan:
    """selector: "full", "singles", or an inclusive range (r1, c1, r2, c2)."""
    axes = catalog.axes
    n = len(axes)
    tasks: list[PlannedTask] = []
    if selector == "full":
        for i in range(1, n + 1):
            tasks.append(_single(axes, matrix, specs, i, col=0))
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                tasks.append(_cell(axes, matrix, specs, r, c))
    elif selector == "singles":
        for i in range(1, n + 1):
            tasks.append(_single(axes, matrix, specs, i, col=0))
    else:
        r1, c1, r2, c2 = selector
        if not (1 <= r1 <= r2 <= n and 1 <= c1 <= c2 <= n):
            raise PlanRangeError(
                f"range {r1} {c1} {r2} {c2} out of bounds for {n} axes"
            )
        for r in range(r1, r2 + 1):
            for c in range(c1, c2 + 1):
                tasks.append(_cell(axes, matrix, specs, r, c))
    return BatchPlan(tuple(tasks), n_axes=n, bound=bound)


def _cell(axes, matrix, specs, r: int, c: int) -> PlannedTask:
    if r == c:
        return _single(axes, matrix, specs, r, col=c)
    a, b = axes[r - 1], axes[c - 1]
    cell = matrix.target(r, c)
    fatal = cell == FATAL
    names = tuple(e.name for e in specs.for_scenario("double", fatal))
    return PlannedTask(
        row=r, col=c, scenario="double", axis_a=a, axis_b=b,
        target=None if fatal else cell, fatal=fatal,
        model_id=f"pair_{r:02d}_{c:02d}", specs=names,
    )


def _single(axes, matrix, specs, i: int, col: int) -> PlannedTask:
    a = axes[i - 1]
    cell = matrix.target(i, i)
    fatal = cell == FATAL
    names = tuple(e.name for e in specs.for_scenario("single", fatal))
    model_id = f"single_{i:02d}" if col == 0 else f"pair_{i:02d}_{i:02d}"
    return PlannedTask(
        row=i, col=col, scenario="single", axis_a=a, axis_b=None,
        target=None if fatal else cell, fatal=fatal,
        model_id=model_id, specs=names,
    )
