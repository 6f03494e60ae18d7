"""Variable-dependency diagnostics (no reduction is applied; report only)."""
from __future__ import annotations

from ..semantics.system import TransitionSystem, collect_refs


def dependency_graph(ts: TransitionSystem) -> dict[str, set[str]]:
    """Map each variable to the variables its next rule reads.

    Free variables map to an empty set. Computed for diagnostics; the
    checker deliberately performs no cone-of-influence reduction.
    """
    out: dict[str, set[str]] = {}
    for v in ts.variables:
        reads: set[int] = set()
        if v.next is not None:
            collect_refs(v.next, reads)
        out[v.name] = {ts.variables[i].name for i in reads}
    return out


def format_dependency_report(ts: TransitionSystem) -> str:
    graph = dependency_graph(ts)
    lines = ["variable dependencies (next-state reads):"]
    for name in sorted(graph):
        deps = ", ".join(sorted(graph[name])) or "(none: free or constant)"
        lines.append(f"  {name} <- {deps}")
    return "\n".join(lines)
