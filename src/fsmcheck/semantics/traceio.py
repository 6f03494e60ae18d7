"""Trace serialization.

Two stable formats:

* text — one block per step: a ``step <i>`` line followed by ``name = value``
  lines sorted by qualified name, blocks separated by blank lines;
* json — a single document with a steps array, for machine use.
"""
from __future__ import annotations

import json
from typing import Optional

from .system import (
    BoolDomain, EnumDomain, IntDomain, State, Trace, TransitionSystem, Value,
)


class TraceFormatError(Exception):
    pass


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)


def _parse_value(text: str, domain) -> Value:
    if isinstance(domain, BoolDomain):
        if text in ("TRUE", "FALSE"):
            return text == "TRUE"
        raise TraceFormatError(f"expected TRUE/FALSE, got {text!r}")
    if isinstance(domain, IntDomain):
        try:
            return int(text)
        except ValueError:
            raise TraceFormatError(f"expected an integer, got {text!r}")
    if isinstance(domain, EnumDomain):
        if text in domain.symbols:
            return text
        raise TraceFormatError(f"{text!r} is not a symbol of {domain}")
    raise TraceFormatError(f"unknown domain {domain!r}")


def trace_to_text(trace: Trace) -> str:
    blocks = []
    for i, state in enumerate(trace.states):
        lines = [f"step {i}"]
        for name in sorted(state.system.index):
            lines.append(f"{name} = {format_value(state[name])}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def trace_from_text(text: str, ts: TransitionSystem) -> Trace:
    states: list[State] = []
    current: Optional[dict] = None

    def flush():
        if current is None:
            return
        missing = set(ts.index) - set(current)
        if missing:
            raise TraceFormatError(f"step missing variables: {sorted(missing)[:3]}...")
        values = tuple(current[v.name] for v in ts.variables)
        states.append(State(values, ts))

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("step "):
            flush()
            current = {}
            continue
        if current is None:
            raise TraceFormatError(f"value line outside a step block: {line!r}")
        name, _, value = line.partition(" = ")
        if name not in ts.index:
            raise TraceFormatError(f"unknown variable {name!r}")
        current[name] = _parse_value(value, ts.var(name).domain)
    flush()
    if not states:
        raise TraceFormatError("trace has no steps")
    return Trace(tuple(states))


def trace_to_obj(trace: Trace) -> dict:
    sys = trace.states[0].system
    return {
        "format": "fsmcheck-trace",
        "version": 1,
        "step_duration_ms": sys.step_duration_ms,
        "steps": [
            {"step": i, "values": {n: s[n] for n in sorted(s.system.index)}}
            for i, s in enumerate(trace.states)
        ],
    }


def trace_to_json(trace: Trace) -> str:
    return json.dumps(trace_to_obj(trace), indent=2, sort_keys=True) + "\n"


def trace_from_json(text: str, ts: TransitionSystem) -> Trace:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"bad json: {err}")
    if obj.get("format") != "fsmcheck-trace":
        raise TraceFormatError("not an fsmcheck trace document")
    states = []
    for entry in obj["steps"]:
        vals = entry["values"]
        try:
            values = tuple(vals[v.name] for v in ts.variables)
        except KeyError as err:
            raise TraceFormatError(f"step missing variable {err}")
        for v, value in zip(ts.variables, values):
            if not v.domain.contains(value):
                raise TraceFormatError(f"{value!r} not in domain of {v.name!r}")
        states.append(State(values, ts))
    if not states:
        raise TraceFormatError("trace has no steps")
    return Trace(tuple(states))
