from . import formula
from .formula import Formula, format_formula, has_past, has_unbounded
from .parser import LtlError, parse_ltl
from .past import PastEliminationError, eliminate_past
from .prefix import PrefixVerdict, holds_on_prefix

__all__ = [
    "formula",
    "Formula",
    "format_formula",
    "has_past",
    "has_unbounded",
    "parse_ltl",
    "LtlError",
    "eliminate_past",
    "PastEliminationError",
    "holds_on_prefix",
    "PrefixVerdict",
]
