from . import ast
from .lexer import ParseError
from .parser import parse_model
from .printer import pretty_print, print_expr
from .validate import validate_model

__all__ = [
    "ast",
    "ParseError",
    "parse_model",
    "pretty_print",
    "print_expr",
    "validate_model",
]
