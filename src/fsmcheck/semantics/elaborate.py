"""Elaboration: expand the module instance tree into a flat system.

Parameter passing is by expression aliasing: each parameter occurrence is
replaced by its argument expression resolved in the caller's scope, so all
rules end up over qualified variable names and are evaluated against the
current state only. DEFINEs are inlined into rules but also kept on the
system, flattened and with their types, for spec-atom resolution and
diagnostics.

The walk that flattens the model is the one that validates it
(`lang.validate.bind_model`), so a model elaborates exactly when
`validate_model` reports no error.
"""
from __future__ import annotations

from ..lang import ast
# A module, not a name from it: lang.validate imports semantics.system, so
# this package can be initialising while lang.validate is still loading.
from ..lang import validate
from .system import TransitionSystem


class ElaborationError(Exception):
    """The model has errors; `diagnostics` holds each one."""

    def __init__(self, source_name: str, diagnostics: list):
        self.source_name = source_name
        self.diagnostics = diagnostics
        super().__init__(f"{source_name}: " + "; ".join(str(d) for d in diagnostics))


def elaborate(model: ast.ModelAst, source_name: str = "<model>") -> TransitionSystem:
    """Flatten model into a TransitionSystem; raise ElaborationError listing
    every error diagnostic if it has any."""
    diagnostics, ts = validate.bind_model(model, source_name)
    if ts is None:
        raise ElaborationError(source_name, [d for d in diagnostics if d.severity == "error"])
    return ts
