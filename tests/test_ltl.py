import random

import pytest

from fsmcheck.lang import ParseError, parse_model, validate_model
from fsmcheck.lang.parser import parse_expr_text
from fsmcheck.ltl import (
    PastEliminationError, PrefixVerdict, eliminate_past, format_formula,
    has_unbounded, holds_on_prefix, parse_ltl,
)
from fsmcheck.ltl import formula as F
from fsmcheck.semantics import (
    Trace, elaborate, initial_states, simulate, seeded_random_chooser, successors,
)

H = PrefixVerdict.HOLDS
V = PrefixVerdict.VIOLATED
I = PrefixVerdict.INCONCLUSIVE


def build(src):
    model = parse_model(src)
    assert [d for d in validate_model(model) if d.severity == "error"] == []
    return elaborate(model)


FLAGS = """
MODULE main
VAR
  OpModeA : boolean;
  OpModeB : boolean;
  Mode : {Startup, Normal, Fallback};
  n : 0..9;
ASSIGN
  init(n) := 0;
  next(n) := case n = 9 : n; TRUE : n + 1; esac;
"""


@pytest.fixture(scope="module")
def ts():
    return build(FLAGS)


def trace_of(ts, rows):
    """Build a trace from a list of dicts (no transition checking)."""
    from fsmcheck.semantics.system import State

    states = []
    for row in rows:
        values = tuple(row[v.name] for v in ts.variables)
        states.append(State(values, ts))
    return Trace(tuple(states))


def rows(ts, n, **overrides):
    base = {"OpModeA": False, "OpModeB": False, "Mode": "Startup", "n": 0}
    out = []
    for i in range(n):
        row = dict(base)
        row["n"] = min(i, 9)
        for name, values in overrides.items():
            row[name] = values[i]
        out.append(row)
    return out


# --- parsing -------------------------------------------------------------


def test_parse_paper_mutual_exclusion_shape(ts):
    f = parse_ltl("G !(O OpModeA & O OpModeB)", ts)
    assert isinstance(f, F.Globally)
    inner = f.sub
    assert isinstance(inner, F.Not)
    assert isinstance(inner.sub, F.And)
    assert isinstance(inner.sub.left, F.Once)
    assert isinstance(inner.sub.right, F.Once)


def test_parse_bounded_window(ts):
    f = parse_ltl("F[0,5] Mode = Normal", ts)
    assert isinstance(f, F.FinallyWithin)
    assert (f.lo, f.hi) == (0, 5)
    assert isinstance(f.sub, F.Atom)


def test_parse_error_at_end(ts):
    with pytest.raises(ParseError):
        parse_ltl("OpModeA U", ts)


def test_parse_precedence(ts):
    f = parse_ltl("OpModeA | OpModeB -> X OpModeA & OpModeB", ts)
    # -> binds loosest; & tighter than |; X tighter than &
    assert isinstance(f, F.Implies)
    assert isinstance(f.left, F.Or)
    assert isinstance(f.right, F.And)
    assert isinstance(f.right.left, F.Next)


def test_parse_until_tighter_than_and(ts):
    f = parse_ltl("OpModeA U OpModeB & OpModeA", ts)
    assert isinstance(f, F.And)
    assert isinstance(f.left, F.Until)


def test_parse_arithmetic_atom(ts):
    f = parse_ltl("(n + 1) = 5 & OpModeA", ts)
    assert isinstance(f, F.And)
    assert isinstance(f.left, F.Atom)


def test_parse_rejects_non_boolean_atom(ts):
    with pytest.raises(ParseError, match="not boolean"):
        parse_ltl("n + 1", ts)


def test_parse_unresolved_atom(ts):
    with pytest.raises(ParseError, match="unresolved"):
        parse_ltl("G NoSuchVar", ts)


def test_parse_bad_window(ts):
    with pytest.raises(ParseError, match="ordered"):
        parse_ltl("F[3,1] OpModeA", ts)


def test_unbounded_detection(ts):
    assert has_unbounded(parse_ltl("G OpModeA", ts))
    assert has_unbounded(parse_ltl("!(F OpModeA)", ts))
    assert not has_unbounded(parse_ltl("G[0,70] (OpModeA -> F[0,5] OpModeB)", ts))


# --- prefix semantics ------------------------------------------------------


def test_g_inconclusive_on_all_true(ts):
    tr = trace_of(ts, rows(ts, 5, OpModeA=[True] * 5))
    assert holds_on_prefix(parse_ltl("G OpModeA", ts), tr) is I


def test_g_violated(ts):
    vals = [True, True, True, False, True]
    tr = trace_of(ts, rows(ts, 5, OpModeA=vals))
    assert holds_on_prefix(parse_ltl("G OpModeA", ts), tr) is V


def test_f_holds_and_inconclusive(ts):
    tr = trace_of(ts, rows(ts, 4, OpModeA=[False, False, True, False]))
    assert holds_on_prefix(parse_ltl("F OpModeA", ts), tr) is H
    tr2 = trace_of(ts, rows(ts, 4))
    assert holds_on_prefix(parse_ltl("F OpModeA", ts), tr2) is I


def test_x_at_prefix_end(ts):
    tr = trace_of(ts, rows(ts, 1))
    assert holds_on_prefix(parse_ltl("X OpModeA", ts), tr) is I


def test_bounded_window_decides_exactly_when_it_fits(ts):
    f = parse_ltl("F[0,5] Mode = Normal", ts)
    short = trace_of(ts, rows(ts, 4, Mode=["Startup"] * 4))
    assert holds_on_prefix(f, short) is I
    full = trace_of(ts, rows(ts, 7, Mode=["Startup"] * 7))
    assert holds_on_prefix(f, full) is V
    hit = trace_of(ts, rows(ts, 4, Mode=["Startup", "Normal", "Startup", "Startup"]))
    assert holds_on_prefix(f, hit) is H


def test_until_and_release(ts):
    f = parse_ltl("OpModeA U OpModeB", ts)
    tr = trace_of(ts, rows(ts, 4, OpModeA=[True, True, False, False],
                           OpModeB=[False, False, True, False]))
    assert holds_on_prefix(f, tr) is H
    fail = trace_of(ts, rows(ts, 4, OpModeA=[True, False, False, False]))
    assert holds_on_prefix(f, fail) is V
    r = parse_ltl("OpModeA R OpModeB", ts)
    held = trace_of(ts, rows(ts, 3, OpModeB=[True, True, True]))
    assert holds_on_prefix(r, held) is I
    released = trace_of(ts, rows(ts, 3, OpModeA=[False, True, False],
                                 OpModeB=[True, True, False]))
    assert holds_on_prefix(r, released) is H


def test_past_operators_decided(ts):
    f = parse_ltl("G !(O OpModeA & O OpModeB)", ts)
    tr = trace_of(ts, rows(ts, 6, OpModeA=[False, True, False, False, False, False],
                           OpModeB=[False, False, False, True, False, False]))
    assert holds_on_prefix(f, tr) is V  # both became true at least once
    ok = trace_of(ts, rows(ts, 6, OpModeA=[False, True, True, False, False, False]))
    assert holds_on_prefix(f, ok) is I  # G still unprovable, but not violated


def test_yesterday(ts):
    f = parse_ltl("Y OpModeA", ts)
    tr = trace_of(ts, rows(ts, 3, OpModeA=[True, False, False]))
    assert holds_on_prefix(f, tr) is V  # Y is false at the start
    shifted = parse_ltl("X Y OpModeA", ts)
    assert holds_on_prefix(shifted, tr) is H


def test_monotonicity_random(ts):
    rng = random.Random(99)
    ops = ["G OpModeA", "F OpModeB", "OpModeA U OpModeB", "F[1,3] OpModeA",
           "G[0,2] (OpModeA | OpModeB)", "X X OpModeA", "O OpModeA",
           "G !(O OpModeA & O OpModeB)", "Y OpModeB -> OpModeA"]
    for _ in range(200):
        text = rng.choice(ops)
        f = parse_ltl(text, ts)
        n = rng.randrange(1, 7)
        a = [rng.random() < 0.5 for _ in range(n + 1)]
        b = [rng.random() < 0.5 for _ in range(n + 1)]
        full = trace_of(ts, rows(ts, n + 1, OpModeA=a, OpModeB=b))
        shorter = Trace(full.states[:n])
        before = holds_on_prefix(f, shorter)
        after = holds_on_prefix(f, full)
        if before is not I:
            assert after is before, f"{text}: {before} flipped to {after}"


# --- past elimination -------------------------------------------------------


def test_latch_progression(ts):
    f = parse_ltl("O OpModeA", ts)
    out, aug = eliminate_past(f, ts)
    assert isinstance(out, F.Atom)
    assert aug.names()[-1] == "O_OpModeA"
    # p first true at step 2 -> latch reads F,F,T,T,...
    from fsmcheck.semantics.system import State

    vals = [False, False, True, False, False]
    latch = []
    prev = None
    for i, v in enumerate(vals):
        model = {"OpModeA": v, "OpModeB": False, "Mode": "Startup", "n": min(i, 9)}
        base = tuple(model[x.name] for x in ts.variables)
        if prev is None:
            from fsmcheck.semantics.exec import _monitor_init

            mon = _monitor_init(aug, list(base))
        else:
            from fsmcheck.semantics.exec import _monitor_step, _ops

            mon = _monitor_step(aug, _ops(aug), prev, list(base))
        prev = base + tuple(mon)
        latch.append(mon[0])
    assert latch == [False, False, True, True, True]


def test_paper_formula_two_latches(ts):
    f = parse_ltl("G !(O OpModeA & O OpModeB)", ts)
    out, aug = eliminate_past(f, ts)
    new = aug.names()[len(ts.names()):]
    assert new == ["O_OpModeA", "O_OpModeB"]
    assert format_formula(out) == "G !(O_OpModeA & O_OpModeB)"


def test_structural_dedup(ts):
    f = parse_ltl("O OpModeA & (O OpModeA | Y OpModeB)", ts)
    out, aug = eliminate_past(f, ts)
    added = len(aug.variables) - len(ts.variables)
    assert added == 2  # one latch per distinct past subformula


def test_past_over_future_rejected(ts):
    f = F.Once(F.Next(parse_ltl("OpModeA", ts)))
    with pytest.raises(PastEliminationError):
        eliminate_past(f, ts)


def test_no_past_returns_same_system(ts):
    f = parse_ltl("G[0,3] OpModeA", ts)
    out, aug = eliminate_past(f, ts)
    assert aug is ts and out is f


def test_elimination_equivalence_random():
    """Eliminated formula evaluated on augmented-system traces agrees with
    direct past-aware evaluation on the original traces."""
    src = """
MODULE main
VAR
  a : boolean;
  b : boolean;
  c : boolean;
ASSIGN
  init(a) := FALSE;
  next(a) := {TRUE, FALSE};
  init(b) := TRUE;
  next(b) := case a : {FALSE, TRUE}; TRUE : b; esac;
"""
    ts = build(src)
    rng = random.Random(123)
    atoms = ["a", "b", "c", "a & b", "b | !c"]
    pasts = [lambda s: F.Once(s), lambda s: F.Yesterday(s), lambda s: F.Historically(s)]

    def random_past_formula(depth):
        sub = parse_ltl(rng.choice(atoms), ts)
        f = rng.choice(pasts)(sub)
        for _ in range(depth - 1):
            f = rng.choice(pasts)(f)
        return f

    for i in range(100):
        f = F.Globally(F.Not(random_past_formula(rng.randrange(1, 3))))
        if rng.random() < 0.5:
            f = F.Or(random_past_formula(1), F.Next(random_past_formula(1)))
        out, aug = eliminate_past(f, ts)
        trace = simulate(aug, rng.randrange(1, 8), seeded_random_chooser(i))
        projected = Trace(
            tuple(
                type(s)(s.values[: ts.n_model_vars], ts) for s in trace.states
            )
        )
        direct = holds_on_prefix(f, projected)
        latched = holds_on_prefix(out, trace)
        assert direct is latched, f"case {i}: {format_formula(f)}"
