"""Parallel batch execution.

The unit of work is one (combination, spec) pair. The coordinator builds
no instance: it checks that every task can be injected, substitutes each
task's spec formulas, and lists the units in report order (tasks by
(row, col), specs in catalog order). A job is the units of one task (see
`unit_jobs`), and `check_job` runs it: it builds the task's instance at
the job's first unit, checks each unit on it with `check_unit`, and drops
it when the job ends, so nothing here keeps an instance between jobs or
batches. Jobs run in this process with one worker, else in W workers it
forks itself once the template, what every instance derives from it (its
sequential constants and the tree walker's memo) and the catalog's
obligation stores are in memory. They inherit all of it, whatever start
method `multiprocessing` defaults to, which nothing here imports, and each
inherits its share of the jobs, every W-th: the coordinator sends a worker
nothing. Per unit the worker writes back a length-prefixed pickled
`SpecResult` and trace text. A dead worker costs the unit it was running
("worker crashed: ..."): the rest of its share goes to a fresh worker. The
results come back in unit order, so report content never depends on
scheduling; the coordinator files the traces, one directory per
combination. No worker outlives `run_batch`: each is reaped once its
share's results are in, on an error killed and reaped.
"""
from __future__ import annotations

import os
import sys
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Optional, TextIO

from ..checker import (
    CheckTask, Counterexample, InvalidTrace, ModelError, NoCounterexampleWithinBound,
    Timeout, check_bounded, replay_counterexample,
)
from ..checker.deps import sequential_constants
from ..ltl import PrefixVerdict, parse_ltl
from ..semantics import TransitionSystem, trace_to_text
from ..semantics.exec import step_memo
from .inject import check_injection, instance_system, spec_formulas
from .plan import BatchPlan, PlannedTask
from .specs import SpecCatalog

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


def check_job(template: TransitionSystem,
              units: list[tuple]) -> Iterator[tuple[SpecResult, Optional[str]]]:
    """The result and trace text of each unit of one task's job, in order;
    never raises. The task's instance is built at the job's first unit, whose
    `elapsed` includes the build, and kept for its other units; a build that
    raises makes its unit an ERROR, and the next unit tries again. The
    instance is dropped when the job ends."""
    ts = None
    for task, name, formula, window, bound, timeout in units:
        started = time.perf_counter()
        try:
            if ts is None:
                ts = instance_system(template, task, window)
            result, trace = check_unit(ts, name, formula, bound, timeout)
        except Exception as err:  # an ERROR verdict; the job and the batch go on
            result, trace = SpecResult(name, "ERROR", detail=f"{type(err).__name__}: {err}"), None
        yield replace(result, elapsed=time.perf_counter() - started), trace


def check_unit(ts: TransitionSystem, name: str, formula: str, bound: int,
               timeout: Optional[float]) -> tuple[SpecResult, Optional[str]]:
    """Check one spec formula on its task's instance ts. Returns the result,
    without its elapsed time, and the counterexample trace as text, if any;
    the coordinator files the trace and fills in `trace_path`."""
    verdict, step, detail, trace = "ERROR", None, "", None
    spec = parse_ltl(formula, ts)
    found = check_bounded(CheckTask(ts, spec, bound_k=bound, timeout=timeout))
    if isinstance(found, Counterexample):
        try:
            replayed = replay_counterexample(ts, found.trace, spec).value
        except InvalidTrace as err:  # the trace is not a path of ts
            replayed = str(err)
        if replayed != PrefixVerdict.VIOLATED.value:
            detail = f"counterexample failed replay: {replayed}"
        else:
            verdict, step = "VIOLATED", found.violation_step
            trace = trace_to_text(found.trace)
    elif isinstance(found, NoCounterexampleWithinBound):
        verdict = "PASS" if found.all_paths_decided else "INCONCLUSIVE"
    elif isinstance(found, Timeout):
        verdict, detail = "TIMEOUT", f"budget exhausted after {found.elapsed:.2f}s"
    elif isinstance(found, ModelError):
        detail = f"model error at step {found.step}: {found.detail}"
    return SpecResult(name, verdict, step, detail=detail), trace


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
    # what every instance derives from the template, before any fork so workers inherit it
    sequential_constants(template)
    step_memo(template)
    jobs = unit_jobs(tasks)
    if workers <= 1:
        results = (r for job in jobs for r in check_job(template, units[job.start:job.stop]))
    else:
        results = _run_forked(template, units, jobs, workers)
    with closing(results):  # on an error, a forked worker is killed and reaped
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


def unit_jobs(tasks: list[PlannedTask]) -> list[range]:
    """The units of tasks, in unit order, cut into jobs: a job is the range
    of unit indices of one task."""
    ends = list(accumulate((len(t.specs) for t in tasks if t.specs), initial=0))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


class _Worker:
    """A forked worker, as the coordinator sees it."""

    def __init__(self, pid: int, results: int, share: list[range]):
        self.pid, self.results = pid, results
        self.buf = bytearray()  # bytes from its result pipe not yet unpickled
        self.held = deque(share)  # its share's jobs, cut to the units whose results are not in


def _run_forked(template: TransitionSystem, units: list[tuple], jobs: list[range],
                workers: int):
    """The results of units, in unit order, from W workers forked here.
    Worker k inherits template, units and its share of the jobs, jobs k,
    k + W, k + 2W, ..., and is sent nothing: it runs each job of its share
    through `check_job`, so it builds one instance per job and keeps none
    between jobs, and writes each unit's result to its own pipe, in share
    order. A worker is reaped once its share's last result is read. A dead
    one costs the unit it was running, and the rest of its share, the rest
    of its task first, goes to one fresh worker, which builds that task's
    instance again. The deal is fixed: a unit that runs to its timeout
    (900 s by default in the CLI) holds up the rest of its worker's share,
    which handing jobs out as workers free up could have given to an idle
    worker. No workload has shown that case: every task costs about the
    same on them."""
    import pickle
    import select
    import signal

    live: dict[int, _Worker] = {}  # result pipe -> its worker
    got: dict[int, tuple] = {}     # unit index -> its result, until yielded

    def fork(share: list[range]) -> None:
        results_r, results_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:  # a worker leaves only through os._exit: never into the caller's frames
                for fd in (results_r, *live):
                    os.close(fd)  # so a write to a result pipe fails once the coordinator is gone
                with open(results_w, "wb") as sink:
                    for job in share:
                        for result in check_job(template, units[job.start:job.stop]):
                            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                            sink.write(len(data).to_bytes(8, "little") + data)
                            sink.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(results_w)
        live[results_r] = _Worker(pid, results_r, share)

    def reap(w: _Worker, kill: bool = False) -> int:
        del live[w.results]
        if kill:
            os.kill(w.pid, signal.SIGKILL)
        os.close(w.results)
        return os.waitstatus_to_exitcode(os.waitpid(w.pid, 0)[1])

    def receive(w: _Worker) -> None:
        chunk = os.read(w.results, 1 << 16)
        if chunk:
            w.buf += chunk
            while len(w.buf) >= 8 + (size := int.from_bytes(w.buf[:8], "little")):
                job = w.held[0]
                got[job[0]] = pickle.loads(w.buf[8:8 + size])
                del w.buf[:8 + size]
                if len(job) > 1:
                    w.held[0] = job[1:]
                else:
                    w.held.popleft()
            if not w.held:  # its share is done
                reap(w)
            return
        code = reap(w)
        job = w.held.popleft()
        why = f"exit status {code}" if code >= 0 else f"signal {-code} ({signal.strsignal(-code)})"
        got[job[0]] = SpecResult(units[job[0]][1], "ERROR", detail=f"worker crashed: {why}"), None
        if rest := [j for j in (job[1:], *w.held) if j]:
            fork(rest)

    try:
        for k in range(min(workers, len(jobs))):
            fork(jobs[k::workers])
        for i in range(len(units)):
            while i not in got:
                for fd in select.select(list(live), [], [])[0]:
                    receive(live[fd])
            yield got.pop(i)
    finally:
        for w in list(live.values()):
            reap(w, kill=True)
