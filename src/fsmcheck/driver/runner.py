"""Parallel batch execution.

The unit of parallelism is one (combination, spec) pair. The coordinator
builds no instance: it checks that every task can be injected, substitutes
each task's spec formulas, and hands the units to W workers, one call per
unit, in report order (tasks by (row, col), specs in catalog order). Each
worker is a one-process pool of its own, and the specs of one combination
go to one worker together, as a job (see `unit_jobs`), so the
combination's instance is built and explored once whatever the timing;
the next job goes to the first worker that is free. The elaborated
template goes to each worker once, through the pool initializer
(in-process when W is 1). A worker keeps the last instance system it
built, keyed by task and window, so the specs of a combination share its
slice, its compiled kernels and the state graph its checks explore. A
worker returns a `SpecResult` and the counterexample trace as text; no
unit id travels. The coordinator takes the results back in dispatch
order, each task taking as many as it has specs, so report content is a
pure function of the inputs and never of worker scheduling. It files the
traces, one directory per combination.
"""
from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO

from ..checker import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
    Timeout, check_bounded, replay_counterexample,
)
from ..ltl import PrefixVerdict, parse_ltl
from ..semantics import TransitionSystem, trace_to_text
from .inject import check_injection, instance_system, spec_formulas
from .plan import BatchPlan, PlannedTask
from .specs import SpecCatalog

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

VERDICTS = ("PASS", "VIOLATED", "INCONCLUSIVE", "TIMEOUT", "ERROR")
_SEVERITY = {v: i for i, v in enumerate(("PASS", "INCONCLUSIVE", "VIOLATED", "TIMEOUT", "ERROR"))}


@dataclass(frozen=True)
class SpecResult:
    name: str
    verdict: str
    violation_step: Optional[int] = None
    trace_path: Optional[str] = None
    detail: str = ""
    elapsed: float = 0.0


@dataclass(frozen=True)
class TaskResult:
    row: int
    col: int
    scenario: str
    model_id: str
    target: Optional[str]
    fatal: bool
    specs: tuple[SpecResult, ...]
    wall_time: float

    @property
    def verdict(self) -> str:
        """Aggregate task verdict: the most severe of its spec verdicts."""
        if not self.specs:
            return "PASS"
        return max((s.verdict for s in self.specs), key=_SEVERITY.get)


@dataclass
class BatchReport:
    tasks: list[TaskResult]
    n_axes: int
    bound: int
    workers: int
    window: tuple[int, int]
    total_elapsed: float = 0.0

    def task_counts(self) -> dict[str, int]:
        counts = {v: 0 for v in VERDICTS}
        for t in self.tasks:
            counts[t.verdict] += 1
        return counts

    def unit_counts(self) -> dict[str, int]:
        counts = {v: 0 for v in VERDICTS}
        for t in self.tasks:
            for s in t.specs:
                counts[s.verdict] += 1
        return counts

    def exit_code(self) -> int:
        """0 = all PASS; 1 = a violation was found; 2 = errors, timeouts, or
        inconclusive results (nothing to certify)."""
        units = self.unit_counts()
        if units["ERROR"] or units["TIMEOUT"]:
            return 2
        if units["VIOLATED"]:
            return 1
        if units["INCONCLUSIVE"]:
            return 2
        return 0


# --- worker side -------------------------------------------------------------

_template: Optional[TransitionSystem] = None
_last: Optional[tuple[tuple, TransitionSystem]] = None  # ((task, window), instance)


def _init_worker(template: TransitionSystem) -> None:
    global _template, _last
    _template = template
    _last = None  # an instance of another template may share its key


def _instance(task: PlannedTask, window: tuple[int, int]) -> TransitionSystem:
    """The instance system of task, reused while the same task comes again."""
    global _last
    key = (task, window)
    if _last is None or _last[0] != key:
        _last = None  # drop the old instance before building the new one
        _last = (key, instance_system(_template, task, window))
    return _last[1]


def check_unit(task: PlannedTask, name: str, formula: str, window: tuple[int, int],
               bound: int, timeout: Optional[float]) -> tuple[SpecResult, Optional[str]]:
    """Check one (combination, spec) unit; never raises. Returns the result
    and the counterexample trace as text, if any; the coordinator files the
    trace and fills in `trace_path`."""
    started = time.perf_counter()
    verdict, step, detail, trace = "ERROR", None, "", None
    try:
        ts = _instance(task, window)
        spec = parse_ltl(formula, ts)
        found = check_bounded(CheckTask(ts, spec, bound_k=bound, timeout=timeout))
        if isinstance(found, Counterexample):
            replayed = replay_counterexample(ts, found.trace, spec)
            if replayed is not PrefixVerdict.VIOLATED:
                detail = f"counterexample failed replay: {replayed.value}"
            else:
                verdict, step = "VIOLATED", found.violation_step
                trace = trace_to_text(found.trace)
        elif isinstance(found, NoCounterexampleWithinBound):
            verdict = "PASS" if found.all_paths_decided else "INCONCLUSIVE"
        elif isinstance(found, Timeout):
            verdict, detail = "TIMEOUT", f"budget exhausted after {found.elapsed:.2f}s"
        elif isinstance(found, ModelError):
            detail = f"model error at step {found.step}: {found.detail}"
    except Exception as err:  # worker crash -> ERROR verdict, batch continues
        detail = f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - started
    return SpecResult(name, verdict, step, detail=detail, elapsed=elapsed), trace


# --- coordinator --------------------------------------------------------------


def run_batch(
    plan: BatchPlan,
    template: TransitionSystem,
    spec_catalog: SpecCatalog,
    *,
    out_dir,
    window: tuple[int, int] = (15, 40),
    workers: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[TextIO] = None,
) -> BatchReport:
    """Run every unit of plan. With progress, a line goes to that stream
    each time a task's results are all in, in report order: tasks done of
    the total, the time so far, and an estimate of the time left."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    tasks = sorted(plan.tasks, key=lambda t: t.sort_key)
    units = []
    for task in tasks:
        check_injection(template, task, window)
        units += [(task, name, formula, window, plan.bound, timeout)
                  for name, formula in spec_formulas(task, window, spec_catalog)]

    task_results = []
    with ExitStack() as stack:
        if workers <= 1:
            _init_worker(template)
            results = (check_unit(*unit) for unit in units)
        else:
            # imported here, as in _run_pooled and _submit: the process pool
            # pulls in multiprocessing and logging, which a one-worker batch
            # does not use
            from concurrent.futures import ProcessPoolExecutor
            pools = [stack.enter_context(ProcessPoolExecutor(
                max_workers=1, initializer=_init_worker, initargs=(template,)))
                for _ in range(workers)]
            results = _run_pooled(units, unit_jobs(tasks, workers), pools)
        for task in tasks:
            specs = []
            for _ in task.specs:
                result, trace = next(results)
                if trace is not None:
                    path = out / task.model_id / f"{result.name}.trace"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(trace)
                    result = replace(result, trace_path=str(path.relative_to(out)))
                specs.append(result)
            task_results.append(TaskResult(
                row=task.row, col=task.col, scenario=task.scenario,
                model_id=task.model_id, target=task.target, fatal=task.fatal,
                specs=tuple(specs), wall_time=sum(s.elapsed for s in specs),
            ))
            if progress is not None:
                done, spent = len(task_results), time.perf_counter() - started
                eta = spent / done * (len(tasks) - done)
                print(f"progress: {done}/{len(tasks)} tasks, {spent:.1f}s elapsed, "
                      f"ETA {eta:.1f}s", file=progress, flush=True)

    return BatchReport(
        tasks=task_results, n_axes=plan.n_axes, bound=plan.bound, workers=workers,
        window=window, total_elapsed=time.perf_counter() - started,
    )


def unit_jobs(tasks: list[PlannedTask], workers: int) -> list[slice]:
    """The units of tasks, in unit order, cut into jobs that each run on one
    worker: a job is the units of one task. While there are fewer jobs than
    workers, the largest is split in two, so a batch of one task still runs
    in parallel."""
    sizes = [len(t.specs) for t in tasks if t.specs]
    while 0 < len(sizes) < workers and max(sizes) > 1:
        i = sizes.index(max(sizes))
        sizes[i:i + 1] = [sizes[i] - sizes[i] // 2, sizes[i] // 2]
    ends = list(accumulate(sizes, initial=0))
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _run_pooled(units: list[tuple], jobs: list[slice], pools: list[ProcessPoolExecutor]):
    """The results of units, in unit order, from one-process pools, one call
    per unit. The jobs go out in order, each to the first pool that has
    finished its last one. A pool whose worker crashed gets no more jobs
    while another pool still runs one."""
    from concurrent.futures import FIRST_COMPLETED, wait

    pending = iter(jobs)
    futures: list[Future] = []
    running: dict[Future, ProcessPoolExecutor] = {}  # a job's last unit -> its pool

    def give(pool: ProcessPoolExecutor) -> None:
        job = next(pending, None)
        if job is not None:
            futures.extend(_submit(pool, unit) for unit in units[job])
            running[futures[-1]] = pool

    for pool in pools:
        give(pool)
    for i, (_, name, *_) in enumerate(units):
        while i >= len(futures) or not futures[i].done():
            done, _ = wait([*running, *futures[i:i + 1]], return_when=FIRST_COMPLETED)
            for fut in done & running.keys():
                pool = running.pop(fut)
                if fut.exception() is None or not running:
                    give(pool)
        yield _collect(futures[i], name)


def _submit(pool: ProcessPoolExecutor, unit: tuple) -> Future:
    """pool's future of unit; a broken pool's is failed already."""
    from concurrent.futures import BrokenExecutor, Future

    try:
        return pool.submit(check_unit, *unit)
    except BrokenExecutor as err:
        fut: Future = Future()
        fut.set_exception(err)
        return fut


def _collect(fut, name: str) -> tuple[SpecResult, Optional[str]]:
    """The result of a unit's future; a hard worker crash is an ERROR."""
    try:
        return fut.result()
    except Exception as err:
        return SpecResult(name, "ERROR", detail=f"worker crashed: {type(err).__name__}: {err}"), None
