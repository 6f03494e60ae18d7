from .elaborate import ElaborationError, elaborate
from .exec import (
    Chooser, ModelStepError, ResolutionError, eval_expr, first_choice,
    infer_kind, initial_states, is_successor, parse_state_expr, resolve_expr,
    rule_candidates, satisfies_init, scripted_chooser, seeded_random_chooser,
    simulate, successors,
)
from .system import (
    BoolDomain, Const, EnumDomain, FBinary, FCase, FChoice,
    FExpr, FUnary, IntDomain, MonitorRule, State, Trace, TransitionSystem,
    Value, VarDef, VarRef, format_fexpr,
)
from .traceio import (
    TraceFormatError, trace_from_json, trace_from_text, trace_to_json,
    trace_to_obj, trace_to_text,
)

__all__ = [
    "elaborate", "ElaborationError",
    "eval_expr", "initial_states", "successors", "simulate", "is_successor",
    "satisfies_init", "rule_candidates", "parse_state_expr", "resolve_expr",
    "infer_kind", "ModelStepError", "ResolutionError",
    "Chooser", "first_choice", "seeded_random_chooser", "scripted_chooser",
    "TransitionSystem", "State", "Trace", "VarDef", "VarRef", "MonitorRule",
    "BoolDomain", "EnumDomain", "IntDomain",
    "FExpr", "Const", "FUnary", "FBinary", "FCase", "FChoice", "format_fexpr",
    "Value",
    "trace_to_text", "trace_from_text", "trace_to_json", "trace_from_json",
    "trace_to_obj", "TraceFormatError",
]
