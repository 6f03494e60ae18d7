"""The regular-expression tokenizer against the per-character reference in
helpers: the same tokens (kind, value, line, col) or the same ParseError,
on generated strings and on the bundles' templates and specs."""
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fsmcheck.driver import (
    instance_system, load_failure_catalog, load_target_matrix, parse_spec_file, plan_batch,
)
from fsmcheck.driver.inject import placeholders
from fsmcheck.lang import ParseError, parse_model
from fsmcheck.lang import parser as model_parser
from fsmcheck.lang.lexer import _PUNCT, KEYWORDS, tokenize
from fsmcheck.ltl import parse_ltl
from fsmcheck.ltl import parser as ltl_parser
from fsmcheck.semantics import elaborate
from fsmcheck.vcs.generate import VcsConfig, generate_vcs_model

from helpers import FIXTURES, per_character_tokenize

# Non-ASCII characters that a str predicate or a regex class would take for
# a letter or a digit: U+00B2 is isdigit() but not \d, U+00BD and U+2163 are
# \w but neither isdigit() nor isalpha(), U+0661 and U+1D7CE are \d; also an
# accented letter, a feminine ordinal, a combining mark and a no-break space.
# Each one is an unexpected character outside a comment.
_NON_ASCII = ["²", "¹", "½", "Ⅳ", "①", "١", "\U0001d7ce",
              "é", "ª", "̀", " ", "été", "x²", "7²"]
_PIECES = ([lit for lit, _ in _PUNCT] + sorted(KEYWORDS)
           + ["--", "-- a note", " ", "  ", "\t", "\r", "\n", "@", "#", "$", "~", "\f", "\x00",
              "a", "Zz", "_", "_x1", "x_9", "0", "7", "42", "007"] + _NON_ASCII)


def outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as err:
        return ("ParseError", err.message, err.line, err.col)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=16))
def test_tokens_match_the_per_character_reference(pieces):
    text = "".join(pieces)
    assert outcome(tokenize, text) == outcome(per_character_tokenize, text)


@pytest.mark.parametrize("text, message", [
    ("x²", "unexpected character '²'"), ("²¹", "unexpected character '²'"),
    ("1١²a", "unexpected character '١'"), ("été_1", "unexpected character 'é'"),
    ("a -- tail", None), ("a\n  -- tail", None), ("a -- été ²", None),
    ("½", "unexpected character '½'"), ("Ⅳx", "unexpected character 'Ⅳ'"),
    ("ok\n  @", "unexpected character '@'"), ("G[0, \t²] !b", "unexpected character '²'"),
])
def test_non_ascii_and_trailing_comments(text, message):
    got = outcome(tokenize, text)
    assert got == outcome(per_character_tokenize, text)
    if message is not None:
        assert got[1] == message
    else:
        assert got[-1].kind == "EOF"


def with_spans(node):
    """A node as nested tuples that keep the spans its equality leaves out."""
    if is_dataclass(node):
        return (type(node).__name__,) + tuple(with_spans(getattr(node, f.name))
                                              for f in fields(node))
    if isinstance(node, tuple):
        return tuple(with_spans(item) for item in node)
    return node


@pytest.fixture(scope="module")
def bundles():
    return [generate_vcs_model(VcsConfig.desk()), generate_vcs_model(VcsConfig.full())]


def test_templates_parse_alike(bundles, monkeypatch):
    texts = [b.model_text for b in bundles] + [p.read_text() for p in FIXTURES.glob("*.fsm")]
    fast = [parse_model(t) for t in texts]
    monkeypatch.setattr(model_parser, "tokenize", per_character_tokenize)
    for text, model in zip(texts, fast):
        assert tokenize(text) == per_character_tokenize(text)
        assert with_spans(parse_model(text)) == with_spans(model)


@pytest.mark.parametrize("index", [0, 1], ids=["desk", "full"])
def test_spec_formulas_of_a_pair_parse_alike(bundles, index, tmp_path, monkeypatch):
    bundle = bundles[index]
    for name, text in (("failures.csv", bundle.failures_text), ("modes.csv", bundle.matrix_text),
                       ("specs.ltl", bundle.specs_text)):
        (tmp_path / name).write_text(text)
    template = elaborate(parse_model(bundle.model_text))
    catalog = load_failure_catalog(tmp_path / "failures.csv")
    matrix = load_target_matrix(tmp_path / "modes.csv", catalog, modes=template.symbol_universe())
    specs = parse_spec_file(tmp_path / "specs.ltl")
    plan = plan_batch(catalog, matrix, specs, "full", bound=70)
    task = next(t for t in plan.tasks if t.scenario == "double" and t.target is not None)
    ts = instance_system(template, task, (15, 40))
    formulas = [entry.instantiate(placeholders(task, (15, 40))) for entry in specs]
    assert formulas
    fast = [parse_ltl(text, ts) for text in formulas]
    monkeypatch.setattr(ltl_parser, "tokenize", per_character_tokenize)
    for text, formula in zip(formulas, fast):
        assert tokenize(text) == per_character_tokenize(text)
        assert parse_ltl(text, ts) == formula
