import random

import pytest

from fsmcheck.lang import parse_model, validate_model
from fsmcheck.lang import ast
from fsmcheck.semantics import ElaborationError, elaborate

from helpers import random_model


def errors(model_src):
    diags = validate_model(parse_model(model_src))
    return [d for d in diags if d.severity == "error"]


def codes(model_src):
    return {d.code for d in errors(model_src)}


WELL_FORMED = """
MODULE glob
DEFINE
  T_MAX := 5;

MODULE counter(Glob, run)
VAR
  t : 0..Glob.T_MAX;
ASSIGN
  init(t) := 0;
  next(t) := case
    t = Glob.T_MAX : t;
    run : t + 1;
    TRUE : t;
  esac;

MODULE main
VAR
  go : boolean;
  g : glob;
  c : counter(g, go);
ASSIGN
  init(go) := TRUE;
  next(go) := {TRUE, FALSE};
"""


def test_well_formed_model_is_clean():
    assert errors(WELL_FORMED) == []


def test_unresolved_identifier():
    src = """
MODULE main
VAR x : boolean;
ASSIGN
  next(x) := S_ECU9;
"""
    found = errors(src)
    assert len(found) == 1
    assert found[0].code == "unresolved"
    assert "S_ECU9" in found[0].message
    assert found[0].span is not None


def test_duplicate_main():
    two_mains = ast.ModelAst(
        (
            ast.ModuleDecl("main", (), vars=(ast.VarDecl("x", ast.BoolType()),)),
            ast.ModuleDecl("main", (), vars=(ast.VarDecl("y", ast.BoolType()),)),
        )
    )
    diags = [d for d in validate_model(two_mains) if d.severity == "error"]
    assert len(diags) == 1
    assert diags[0].code == "duplicate-main"


def test_missing_main():
    assert "missing-main" in codes("MODULE other VAR x : boolean;")


def test_main_with_params():
    assert "main-params" in codes("MODULE main(p) VAR x : boolean;")


def test_case_without_default():
    src = """
MODULE main
VAR x : boolean;
ASSIGN
  next(x) := case x : FALSE; esac;
"""
    assert "case-default" in codes(src)


def test_duplicate_rule():
    src = """
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := TRUE;
  init(x) := FALSE;
"""
    assert "duplicate-rule" in codes(src)


def test_set_literal_outside_rule():
    src = """
MODULE main
VAR x : boolean;
DEFINE d := {TRUE, FALSE};
"""
    assert "choice-position" in codes(src)


def test_set_literal_in_case_arm_is_fine():
    src = """
MODULE main
VAR x : boolean;
ASSIGN
  next(x) := case x : {TRUE, FALSE}; TRUE : x; esac;
"""
    assert errors(src) == []


def test_instantiation_cycle():
    src = """
MODULE a
VAR b1 : b;

MODULE b
VAR a1 : a;

MODULE main
VAR root : a;
"""
    assert "instantiation-cycle" in codes(src)


def test_arity_mismatch():
    src = """
MODULE helper(p)
VAR y : boolean;

MODULE main
VAR h : helper(TRUE, FALSE);
"""
    assert "arity" in codes(src)


def test_define_cycle():
    src = """
MODULE main
VAR x : boolean;
DEFINE
  a := b;
  b := a;
"""
    assert "define-cycle" in codes(src)


def test_type_mismatch_in_assignment():
    src = """
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := 3;
"""
    assert "assign-type" in codes(src)


def test_enum_symbol_outside_domain():
    src = """
MODULE main
VAR
  s : {On, Off};
  m : {Fast, Slow};
ASSIGN
  next(s) := Fast;
"""
    assert "assign-type" in codes(src)


def test_enum_comparison_with_member_symbol():
    src = """
MODULE main
VAR s : {On, Off};
VAR x : boolean;
ASSIGN
  next(x) := s = On;
"""
    assert errors(src) == []


def test_unresolved_module():
    src = """
MODULE main
VAR h : nothere;
"""
    assert "unresolved-module" in codes(src)


def test_instance_used_as_value():
    src = """
MODULE helper
VAR y : boolean;

MODULE main
VAR
  x : boolean;
  h : helper;
ASSIGN
  next(x) := h;
"""
    assert "instance-value" in codes(src)


def test_dotted_read_of_instance_var_allowed():
    src = """
MODULE helper
VAR y : boolean;
ASSIGN
  init(y) := TRUE;

MODULE main
VAR
  x : boolean;
  h : helper;
ASSIGN
  next(x) := h.y;
"""
    assert errors(src) == []


def test_range_bound_must_be_constant():
    src = """
MODULE main
VAR
  y : 0..3;
  x : 0..y;
"""
    assert "range-bound-const" in codes(src)
    with pytest.raises(ElaborationError, match="constant"):
        elaborate(parse_model(src))


def test_empty_range():
    src = "MODULE main VAR x : 5..2;"
    assert "range-empty" in codes(src)
    with pytest.raises(ElaborationError, match="empty"):
        elaborate(parse_model(src))


def test_instance_argument_may_name_a_later_or_nested_instance():
    src = """
MODULE glob
DEFINE N := 3;

MODULE outer
VAR g : glob;

MODULE helper(G)
VAR y : 0..G.N;

MODULE main
VAR
  h1 : helper(g);
  h2 : helper(o.g);
  g : glob;
  o : outer;
"""
    assert errors(src) == []
    ts = elaborate(parse_model(src))
    assert [str(v.domain) for v in ts.variables] == ["0..3", "0..3"]


def test_validation_and_elaboration_agree():
    disagree = []
    for seed in range(1000):
        model = random_model(random.Random(seed))
        rejected = bool([d for d in validate_model(model) if d.severity == "error"])
        try:
            elaborate(model)
            raised = False
        except ElaborationError:
            raised = True
        if rejected != raised:
            disagree.append(seed)
    assert disagree == []
