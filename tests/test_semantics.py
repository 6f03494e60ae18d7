import random

import pytest

from fsmcheck.lang import parse_model, validate_model
from fsmcheck.semantics import (
    ElaborationError, IntDomain, ModelStepError, elaborate, eval_expr,
    first_choice, initial_states, parse_state_expr, scripted_chooser,
    seeded_random_chooser, simulate, successors, trace_from_json,
    trace_from_text, trace_to_json, trace_to_text,
)

from helpers import fixture_text


def build(src):
    model = parse_model(src)
    errs = [d for d in validate_model(model) if d.severity == "error"]
    assert errs == [], errs
    return elaborate(model)


TWO_BOOL = """
MODULE main
VAR
  a : boolean;
  b : boolean;
ASSIGN
  init(a) := TRUE;
  next(a) := !a;
  init(b) := FALSE;
  next(b) := a & !b;
"""


def test_single_module_two_booleans():
    ts = build(TWO_BOOL)
    assert ts.names() == ["a", "b"]
    states = list(initial_states(ts))
    assert len(states) == 1
    succ = list(successors(ts, states[0]))
    assert len(succ) == 1
    assert succ[0].as_dict() == {"a": False, "b": True}


def test_free_boolean_init_gives_two_states():
    ts = build("MODULE main VAR x : boolean; ASSIGN next(x) := x;")
    states = list(initial_states(ts))
    assert [s["x"] for s in states] == [False, True]


def test_choice_rule_gives_two_successors():
    ts = build("MODULE main VAR x : boolean; ASSIGN init(x) := FALSE; next(x) := {TRUE, FALSE};")
    (s0,) = initial_states(ts)
    succ = list(successors(ts, s0))
    assert [s["x"] for s in succ] == [True, False]  # listed choice order


def test_instance_flattening_and_dotted_defines():
    src = """
MODULE glob
DEFINE
  T_MAX := 3;

MODULE ticker(Glob)
VAR
  t : 0..Glob.T_MAX;
ASSIGN
  init(t) := 0;
  next(t) := case
    t = Glob.T_MAX : t;
    TRUE : t + 1;
  esac;

MODULE main
VAR
  g : glob;
  k1 : ticker(g);
  k2 : ticker(g);
"""
    ts = build(src)
    assert ts.names() == ["k1.t", "k2.t"]
    assert ts.var("k1.t").domain == IntDomain(0, 3)
    trace = simulate(ts, 5)
    assert [s["k1.t"] for s in trace] == [0, 1, 2, 3, 3, 3]


def test_var_count_matches_instance_sum():
    src = """
MODULE ecu(peer)
VAR s : {Init, Ready};
ASSIGN
  init(s) := Init;

MODULE main
VAR
  e1 : ecu(e2.s);
  e2 : ecu(e1.s);
  m : boolean;
"""
    ts = build(src)
    assert len(ts.variables) == 3  # 1 per ecu + main's m


def test_arity_mismatch_raises():
    src = """
MODULE helper(a, b)
VAR x : boolean;

MODULE main
VAR h : helper(TRUE);
"""
    with pytest.raises(ElaborationError, match="argument"):
        elaborate(parse_model(src))


def test_unresolvable_range_bound():
    src = """
MODULE glob
VAR v : boolean;
DEFINE LIM := v;

MODULE main
VAR
  g : glob;
  t : 0..g.LIM;
"""
    with pytest.raises(ElaborationError, match="constant"):
        elaborate(parse_model(src))


def test_timer_pattern_increment():
    src = """
MODULE glob
DEFINE T1_MAX := 5;

MODULE main
VAR
  g : glob;
  run : boolean;
  Timer : 0..g.T1_MAX;
ASSIGN
  init(run) := TRUE;
  next(run) := run;
  init(Timer) := 0;
  next(Timer) := case
    !run : 0;
    Timer = g.T1_MAX : Timer;
    run : Timer + 1;
    TRUE : Timer;
  esac;
"""
    ts = build(src)
    (s0,) = initial_states(ts)
    (s1,) = successors(ts, s0)
    assert s1["Timer"] == 1


def test_case_first_true_guard_wins():
    ts = build("""
MODULE main
VAR
  x : boolean;
  m : {A, B};
ASSIGN
  init(x) := TRUE;
  init(m) := A;
  next(m) := case
    x : B;
    !x : A;
    TRUE : m;
  esac;
""")
    reordered = build("""
MODULE main
VAR
  x : boolean;
  m : {A, B};
ASSIGN
  init(x) := TRUE;
  init(m) := A;
  next(m) := case
    !x : A;
    x : B;
    TRUE : m;
  esac;
""")
    (s0,) = initial_states(ts)
    (r0,) = initial_states(reordered)
    # both guards are decided by x=TRUE, so order picks different arms only
    # when both could fire; here they agree, so craft an overlapping pair:
    overlap = build("""
MODULE main
VAR m : {A, B};
ASSIGN
  init(m) := A;
  next(m) := case
    TRUE : B;
    TRUE : A;
  esac;
""")
    (o0,) = initial_states(overlap)
    (o1,) = successors(overlap, o0)
    assert o1["m"] == "B"


def test_eval_expr_and_parse_state_expr():
    ts = build(TWO_BOOL)
    (s0,) = initial_states(ts)
    e = parse_state_expr(ts, "a & !b")
    assert eval_expr(e, s0) is True
    e2 = parse_state_expr(ts, "case TRUE : a; esac")
    assert eval_expr(e2, s0) is True


def test_out_of_range_poisons_step():
    src = """
MODULE main
VAR t : 0..2;
ASSIGN
  init(t) := 0;
  next(t) := t + 1;
"""
    ts = build(src)
    (s0,) = initial_states(ts)
    s = s0
    for _ in range(2):
        (s,) = successors(ts, s)
    with pytest.raises(ModelStepError) as err:
        list(successors(ts, s))
    assert err.value.var == "t"
    assert err.value.value == 3
    with pytest.raises(ModelStepError) as err2:
        simulate(ts, 5)
    assert err2.value.step == 3


def test_simulate_zero_steps():
    ts = build(TWO_BOOL)
    trace = simulate(ts, 0)
    assert len(trace) == 1


def test_deterministic_model_identical_under_policies():
    ts = build(TWO_BOOL)
    t1 = simulate(ts, 10, first_choice)
    t2 = simulate(ts, 10, seeded_random_chooser(7))
    assert t1 == t2


def test_scripted_chooser_controls_choices():
    ts = build("MODULE main VAR x : boolean; ASSIGN init(x) := FALSE; next(x) := {FALSE, TRUE};")
    trace = simulate(ts, 3, scripted_chooser({(2, "x"): True}))
    assert [s["x"] for s in trace] == [False, False, True, False]


def test_free_var_rerandomizes_every_step():
    ts = build("MODULE main VAR x : boolean;")
    (s0, s1) = initial_states(ts)
    succ = list(successors(ts, s0))
    assert len(succ) == 2  # free vars range over their domain every step


def test_synchrony_rule_order_irrelevant():
    # permuting assign order must not change the successor set
    base = """
MODULE main
VAR
  a : 0..7;
  b : 0..7;
ASSIGN
  init(a) := 1;
  init(b) := 2;
  next(a) := b + 1;
  next(b) := a + 1;
"""
    permuted = """
MODULE main
VAR
  a : 0..7;
  b : 0..7;
ASSIGN
  next(b) := a + 1;
  next(a) := b + 1;
  init(b) := 2;
  init(a) := 1;
"""
    ts1, ts2 = build(base), build(permuted)
    (x,) = initial_states(ts1)
    (y,) = initial_states(ts2)
    assert x.values == y.values
    (sx,) = successors(ts1, x)
    (sy,) = successors(ts2, y)
    assert sx.values == sy.values == (3, 2)


def test_successive_states_are_successors():
    rng = random.Random(5)
    ts = build("""
MODULE main
VAR
  x : boolean;
  n : 0..5;
ASSIGN
  init(n) := 0;
  next(n) := case n = 5 : 0; TRUE : n + 1; esac;
""")
    trace = simulate(ts, 8, seeded_random_chooser(3))
    for a, b in zip(trace.states, trace.states[1:]):
        assert any(s.values == b.values for s in successors(ts, a))


def test_trace_text_roundtrip():
    ts = build(TWO_BOOL)
    trace = simulate(ts, 4)
    text = trace_to_text(trace)
    assert text.splitlines()[0] == "step 0"
    back = trace_from_text(text, ts)
    assert [s.values for s in back.states] == [s.values for s in trace.states]


def test_trace_json_roundtrip():
    ts = build(TWO_BOOL)
    trace = simulate(ts, 4)
    back = trace_from_json(trace_to_json(trace), ts)
    assert [s.values for s in back.states] == [s.values for s in trace.states]


def test_listing_module_steps_like_paper():
    # instantiate the ECU listing in a harness and observe Init -> Ready -> Active
    src = fixture_text("ecu_module.fsm") + """
MODULE main
VAR
  e : M_ECU1(Ready, Ready, FALSE, FALSE);
"""
    ts = build(src)
    trace = simulate(ts, 3)
    assert [s["e.S_ECU1"] for s in trace] == ["Init", "Ready", "Active", "Active"]


def test_listing_failure_wins_over_other_arms():
    src = fixture_text("ecu_module.fsm") + """
MODULE main
VAR
  e : M_ECU1(Ready, Ready, TRUE, TRUE);
"""
    ts = build(src)
    trace = simulate(ts, 1)
    assert trace[1]["e.S_ECU1"] == "Passive"
