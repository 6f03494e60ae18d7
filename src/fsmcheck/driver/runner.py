"""Parallel batch execution.

The unit of parallelism is one (combination, spec) pair. The coordinator
builds no instance: it checks that every task can be injected, substitutes
each task's spec formulas, and hands the units to W workers. The elaborated
template goes to each worker once, through the pool initializer (in-process
when W is 1), and a worker builds the instance system of each unit it runs
from it. Results merge in deterministic (row, col, spec) order, so report
content is a pure function of the inputs and never of worker scheduling.
Workers render counterexample traces with `traceio`; the coordinator files
them, one directory per combination.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..checker import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
    Timeout, check_bounded, replay_counterexample,
)
from ..ltl import PrefixVerdict, parse_ltl
from ..semantics import TransitionSystem, trace_to_text
from .inject import check_injection, instance_system, spec_formulas
from .plan import BatchPlan
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


def _init_worker(template: TransitionSystem) -> None:
    global _template
    _template = template


def run_unit(payload: dict) -> dict:
    """Check one (combination, spec) unit; never raises."""
    started = time.perf_counter()
    out = {
        "row": payload["row"],
        "col": payload["col"],
        "spec_index": payload["spec_index"],
        "spec_name": payload["spec_name"],
        "verdict": "ERROR",
        "violation_step": None,
        "detail": "",
        "trace": None,
    }
    try:
        ts = instance_system(_template, payload["task"], payload["window"])
        formula = parse_ltl(payload["formula"], ts)
        verdict = check_bounded(
            CheckTask(ts, formula, bound_k=payload["bound"], timeout=payload["timeout"])
        )
        if isinstance(verdict, Counterexample):
            replayed = replay_counterexample(ts, verdict.trace, formula)
            if replayed is not PrefixVerdict.VIOLATED:
                out["detail"] = f"counterexample failed replay: {replayed.value}"
            else:
                out["verdict"] = "VIOLATED"
                out["violation_step"] = verdict.violation_step
                out["trace"] = trace_to_text(verdict.trace)
        elif isinstance(verdict, NoCounterexampleWithinBound):
            out["verdict"] = "PASS" if verdict.all_paths_decided else "INCONCLUSIVE"
        elif isinstance(verdict, Timeout):
            out["verdict"] = "TIMEOUT"
            out["detail"] = f"budget exhausted after {verdict.elapsed:.2f}s"
        elif isinstance(verdict, ModelError):
            out["detail"] = f"model error at step {verdict.step}: {verdict.detail}"
    except Exception as err:  # worker crash -> ERROR verdict, batch continues
        out["detail"] = f"{type(err).__name__}: {err}"
    out["elapsed"] = time.perf_counter() - started
    return out


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
    bound: Optional[int] = None,
) -> BatchReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    k = bound if bound is not None else plan.bound

    payloads = []
    for task in plan.tasks:
        check_injection(template, task, window)
        for spec_index, (name, formula) in enumerate(
                spec_formulas(task, window, spec_catalog)):
            payloads.append({
                "row": task.row,
                "col": task.col,
                "spec_index": spec_index,
                "spec_name": name,
                "task": task,
                "window": window,
                "formula": formula,
                "bound": k,
                "timeout": timeout,
            })

    if workers <= 1:
        _init_worker(template)
        results = [run_unit(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(template,)) as pool:
            futures = [pool.submit(run_unit, p) for p in payloads]
            results = []
            for payload, fut in zip(payloads, futures):
                try:
                    results.append(fut.result())
                except Exception as err:  # hard worker crash
                    results.append({
                        "row": payload["row"], "col": payload["col"],
                        "spec_index": payload["spec_index"],
                        "spec_name": payload["spec_name"],
                        "verdict": "ERROR", "violation_step": None,
                        "detail": f"worker crashed: {type(err).__name__}: {err}",
                        "trace": None, "elapsed": 0.0,
                    })

    results.sort(key=lambda r: (r["row"], r["col"], r["spec_index"]))
    grouped: dict[tuple[int, int], list[dict]] = {}
    for r in results:
        grouped.setdefault((r["row"], r["col"]), []).append(r)

    task_results = []
    for task in sorted(plan.tasks, key=lambda t: t.sort_key):
        units = grouped.get((task.row, task.col), [])
        spec_results = []
        for u in units:
            trace_path = None
            if u["trace"] is not None:
                path = out / task.model_id / f"{u['spec_name']}.trace"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(u["trace"])
                trace_path = str(path.relative_to(out))
            spec_results.append(SpecResult(
                name=u["spec_name"],
                verdict=u["verdict"],
                violation_step=u["violation_step"],
                trace_path=trace_path,
                detail=u["detail"],
                elapsed=u["elapsed"],
            ))
        task_results.append(TaskResult(
            row=task.row, col=task.col, scenario=task.scenario,
            model_id=task.model_id, target=task.target, fatal=task.fatal,
            specs=tuple(spec_results),
            wall_time=sum(s.elapsed for s in spec_results),
        ))

    report = BatchReport(
        tasks=task_results, n_axes=plan.n_axes, bound=k, workers=workers,
        window=window, total_elapsed=time.perf_counter() - started,
    )
    return report
