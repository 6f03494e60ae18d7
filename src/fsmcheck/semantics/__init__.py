from .elaborate import ElaborationError, elaborate
from .exec import (
    ModelStepError, first_choice, initial_states, is_successor,
    rule_candidates, satisfies_init, seeded_random_chooser,
    simulate, successors,
)
from .system import (
    BoolDomain, Const, EnumDomain, FBinary, FCase, FChoice,
    FExpr, FUnary, IntDomain, State, Trace, TransitionSystem,
    Value, VarDef, VarRef, format_fexpr,
)
from .traceio import trace_from_text, trace_to_text

__all__ = [
    "elaborate", "ElaborationError",
    "initial_states", "successors", "simulate", "is_successor",
    "satisfies_init", "rule_candidates", "ModelStepError",
    "first_choice", "seeded_random_chooser",
    "TransitionSystem", "State", "Trace", "VarDef", "VarRef",
    "BoolDomain", "EnumDomain", "IntDomain",
    "FExpr", "Const", "FUnary", "FBinary", "FCase", "FChoice", "format_fexpr",
    "Value",
    "trace_to_text", "trace_from_text",
]
