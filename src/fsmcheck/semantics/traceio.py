"""Trace serialization.

One stable text format: one block per step, a ``step <i>`` line followed by
``name = value`` lines sorted by qualified name, blocks separated by blank
lines.
"""
from __future__ import annotations

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
    system = order = None
    for i, state in enumerate(trace.states):
        if state.system is not system:
            system = state.system
            order = [(name, system.index[name]) for name in sorted(system.index)]
        values = state.values
        lines = [f"step {i}"]
        lines += [f"{name} = {format_value(values[j])}" for name, j in order]
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
