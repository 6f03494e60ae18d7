"""Correctness gate: compare a batch's report.json and filed traces with the
recorded expectation, and replay every filed counterexample.

An expectation is report.json without its timing fields, plus a digest of
the filed traces. The digest covers the parsed content of each trace (the
value of every variable at every step), not its bytes.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

TIMING_FIELDS = frozenset({"elapsed", "wall_time", "total_elapsed", "workers"})
TASK_FIELDS = ("scenario", "model_id", "target", "fatal")
DECIDED = frozenset({"PASS", "VIOLATED"})


def strip_timing(obj):
    """report.json content with every timing field removed, recursively."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def units(report: dict) -> dict[tuple[int, int, int], dict]:
    """One record per (row, col, spec_index) unit, with its task's fields."""
    out = {}
    for task in report["tasks"]:
        for i, spec in enumerate(task["specs"]):
            record = {k: task.get(k) for k in TASK_FIELDS}
            record.update(spec)
            out[(task["row"], task["col"], i)] = record
    return out


def compare(expected: dict, actual: dict) -> tuple[set, list[str]]:
    """Return (failed unit ids, problems) of a stripped report against its
    expectation. A unit fails when it is missing, unexpected, undecided
    (ERROR, TIMEOUT, INCONCLUSIVE) or differs in any verdict field."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key != "tasks" and expected.get(key) != actual.get(key):
            problems.append(f"report field {key!r}: expected {expected.get(key)!r}, "
                            f"got {actual.get(key)!r}")
    want, got = units(expected), units(actual)
    failed = set()
    for uid in sorted(set(want) | set(got)):
        w, g = want.get(uid), got.get(uid)
        if g is None:
            problems.append(f"unit {uid}: missing")
        elif w is None:
            problems.append(f"unit {uid}: not expected")
        elif g["verdict"] not in DECIDED:
            problems.append(f"unit {uid}: {g['verdict']} {g.get('detail', '')}")
        elif w != g:
            diff = {k: (w.get(k), g.get(k)) for k in sorted(set(w) | set(g))
                    if w.get(k) != g.get(k)}
            problems.append(f"unit {uid}: expected/got {diff}")
        else:
            continue
        failed.add(uid)
    return failed, problems


def read_trace_file(text: str) -> list[dict[str, str]]:
    """Parse a filed trace: `step <i>` blocks of `name = value` lines."""
    steps: list[dict[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("step "):
            if line != f"step {len(steps)}":
                raise ValueError(f"out-of-order step line {line!r}")
            steps.append({})
            continue
        name, sep, value = line.partition(" = ")
        if not sep or not steps:
            raise ValueError(f"bad trace line {line!r}")
        steps[-1][name] = value
    if not steps:
        raise ValueError("trace has no steps")
    return steps


def filed_traces(report: dict, out_dir: Path) -> dict[str, list[dict[str, str]]]:
    """Every trace the report names, read back from out_dir."""
    return {
        spec["trace"]: read_trace_file((out_dir / spec["trace"]).read_text())
        for task in report["tasks"] for spec in task["specs"] if spec.get("trace")
    }


def trace_digest(traces: dict[str, list[dict[str, str]]]) -> str:
    canonical = json.dumps(sorted(traces.items()), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def as_trace_text(steps: list[dict[str, str]], names) -> str:
    """Render steps in the text trace format, restricted to `names` (the
    instance's own variables; past-operator monitors are left out)."""
    blocks = []
    for i, step in enumerate(steps):
        lines = [f"step {i}"] + [f"{n} = {step[n]}" for n in sorted(names) if n in step]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
