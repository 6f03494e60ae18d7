from . import formula
from .formula import Formula, PastEliminationError, format_formula, has_unbounded
from .parser import parse_ltl
from .prefix import PrefixVerdict, holds_on_prefix

__all__ = [
    "formula",
    "Formula",
    "format_formula",
    "has_unbounded",
    "parse_ltl",
    "PastEliminationError",
    "holds_on_prefix",
    "PrefixVerdict",
]
