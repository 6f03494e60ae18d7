from .core import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
    Timeout, Verdict, check_bounded,
)
from .deps import dependency_graph, format_dependency_report
from .replay import InvalidTrace, replay_counterexample

__all__ = [
    "CheckTask",
    "check_bounded",
    "replay_counterexample",
    "Verdict",
    "NoCounterexampleWithinBound",
    "Counterexample",
    "ModelError",
    "Timeout",
    "InvalidTrace",
    "dependency_graph",
    "format_dependency_report",
]
