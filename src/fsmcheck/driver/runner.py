"""Parallel batch execution.

The unit of work is one (combination, spec) pair. The coordinator builds
no instance: it checks that every task can be injected, substitutes each
task's spec formulas, and hands out the units in report order (tasks by
(row, col), specs in catalog order), one `check_unit` call each: in this
process with one worker, else in W workers it forks itself once the
template and the catalog's obligation stores are in memory. They inherit
both, whatever start method `multiprocessing` defaults to, which nothing
here imports. The specs of one combination go to one worker as a job (see
`unit_jobs`), so its instance is built and explored once. A job is sent
as its range of unit indices, two 8-byte ints: the worker inherited the
units at the fork. A worker keeps the last instance it built, reads jobs
from its job pipe, and has its running job and the next one queued there,
so it never waits between jobs. A job pipe never holds more than those two
16-byte jobs, so a write to it never blocks. Per unit the worker writes
back a length-prefixed pickled `SpecResult` and trace text. A dead worker
costs the unit it was running ("worker crashed: ..."): its unstarted units
go back to the front of the queue, for a fresh worker. The results come
back in unit order, so report content never depends on scheduling; the
coordinator files the traces, one directory per combination. No worker
outlives `run_batch`: at the end their job pipes close and they are
reaped, on an error killed and reaped.

Before any fork, `_init_worker` also computes what every instance derives
from the template (its `base`): its sequential constants and the tree
walker's memo, so the workers inherit them too.
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
from typing import Optional, TextIO

from ..checker import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
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

_template: Optional[TransitionSystem] = None
_last: Optional[tuple[tuple, TransitionSystem]] = None  # ((task, window), instance)


def _init_worker(template: TransitionSystem) -> None:
    global _template, _last
    _template = template
    _last = None  # an instance of another template may share its key
    sequential_constants(template)  # what every instance derives from it
    step_memo(template)


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
    _init_worker(template)  # before any fork, so forked workers inherit it
    if workers <= 1:
        results = (check_unit(*unit) for unit in units)
    else:
        results = _run_forked(units, unit_jobs(tasks, workers), workers)
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


class _Worker:
    """A forked worker, as the coordinator sees it."""

    def __init__(self, pid: int, jobs: int, results: int):
        self.pid, self.jobs, self.results = pid, jobs, results
        self.buf = bytearray()  # bytes from its result pipe not yet unpickled
        self.held: deque[range] = deque()  # its running job's unit indices, then the next's


def _run_forked(units: list[tuple], jobs: list[slice], workers: int):
    """The results of units, in unit order, from workers forked here, which
    inherit units and are sent each job as its range of unit indices. Each
    holds its running job and the next; a dead one costs the unit it was
    running, and its unstarted units go first to a fresh worker."""
    import pickle
    import select
    import signal
    import struct

    queue = deque(range(job.start, job.stop) for job in jobs)
    live: dict[int, _Worker] = {}  # result pipe -> its worker
    got: dict[int, tuple] = {}     # unit index -> its result, until yielded

    def fork() -> _Worker:
        jobs_r, jobs_w = os.pipe()
        results_r, results_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:  # a worker leaves only through os._exit: never into the caller's frames
                inherited = (fd for w in live.values() for fd in (w.jobs, w.results))
                for fd in (jobs_w, results_r, *inherited):
                    os.close(fd)  # so each job pipe ends when the coordinator closes it
                with open(jobs_r, "rb") as source, open(results_w, "wb") as sink:
                    while job := source.read(16):
                        start, stop = struct.unpack("<2q", job)
                        for unit in units[start:stop]:
                            data = pickle.dumps(check_unit(*unit), pickle.HIGHEST_PROTOCOL)
                            sink.write(len(data).to_bytes(8, "little") + data)
                            sink.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(results_w)
        live[results_r] = _Worker(pid, jobs_w, results_r)
        return live[results_r]

    def give(w: _Worker) -> None:
        if queue:
            job = queue.popleft()
            w.held.append(job)
            try:  # 16 bytes into a pipe that holds at most two jobs: never blocks
                os.write(w.jobs, struct.pack("<2q", job.start, job.stop))
            except BrokenPipeError:
                pass  # its worker died: its result pipe tells

    def reap(w: _Worker, kill: bool = False) -> int:
        del live[w.results]
        if kill:
            os.kill(w.pid, signal.SIGKILL)
        os.close(w.jobs)  # unless killed, it leaves when its job pipe ends
        os.close(w.results)
        return os.waitstatus_to_exitcode(os.waitpid(w.pid, 0)[1])

    def receive(w: _Worker) -> None:
        chunk = os.read(w.results, 1 << 16)
        if chunk:
            w.buf += chunk
            while len(w.buf) >= 8 + (size := int.from_bytes(w.buf[:8], "little")):
                job = w.held.popleft()
                got[job[0]] = pickle.loads(w.buf[8:8 + size])
                del w.buf[:8 + size]
                if len(job) > 1:
                    w.held.appendleft(job[1:])
                else:
                    give(w)
            return
        code = reap(w)
        if w.held:
            job = w.held.popleft()
            why = f"exit status {code}" if code >= 0 else f"signal {-code} ({signal.strsignal(-code)})"
            got[job[0]] = SpecResult(units[job[0]][1], "ERROR", detail=f"worker crashed: {why}"), None
            queue.extendleft(reversed([j for j in (job[1:], *w.held) if j]))
        if queue:
            for fresh in [fork()] * 2:
                give(fresh)

    try:
        for w in [fork() for _ in range(min(workers, len(jobs)))] * 2:
            give(w)  # every worker's first job, then the ones queued ahead
        for i in range(len(units)):
            while i not in got:
                for fd in select.select(list(live), [], [])[0]:
                    receive(live[fd])
            if i == len(units) - 1:  # every result is in
                for w in list(live.values()):
                    reap(w)
            yield got.pop(i)
    finally:
        for w in list(live.values()):
            reap(w, kill=True)
