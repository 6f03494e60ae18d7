import random

import pytest

from fsmcheck.lang import ParseError, parse_model, validate_model
from fsmcheck.checker import (
    CheckTask, Counterexample, NoCounterexampleWithinBound, check_bounded,
)
from fsmcheck.checker.brute import brute_force_check
from fsmcheck.checker.core import obligation_store
from fsmcheck.ltl import (
    PastEliminationError, PrefixVerdict, format_formula, has_unbounded, holds_on_prefix,
    parse_ltl,
)
from fsmcheck.ltl import formula as F
from fsmcheck.semantics import (
    Const, FBinary, FUnary, Trace, VarRef, elaborate, format_fexpr, trace_to_text,
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


TYPED = """
MODULE main
VAR
  a : boolean;
  b : boolean;
  c : boolean;
  x : boolean;
  Mode : {Off, On};
  n : 0..9;
"""


@pytest.mark.parametrize("text", [
    "G ((a + 1) = 2)", "G (Mode = 3)", "G (n = Off)", "G (a < 2)", "G (n = TRUE)",
    "G (Mode = Step)",
])
def test_parse_rejects_ill_typed_atom(text):
    with pytest.raises(ParseError, match=r"\[(cmp|op)-type\] "):
        parse_ltl(text, build(TYPED + "  Step : 0..9;\n"))


TYPED_DEFINES = """
MODULE main
VAR
  b : boolean;
  n : 0..5;
  m : {Off, On, Idle};
  e : {Aa, Bb};
  probe : boolean;
DEFINE
  db := b & n > 2;
  dn := n + 1;
  de := case b : Off; TRUE : On; esac;
  dc := case n > 2 : Aa; TRUE : Bb; esac;
"""
_LEAVES = {"bool": ["b", "db", "TRUE", "FALSE"], "int": ["n", "dn", "0", "3", "7"],
           "enum": ["m", "e", "de", "dc", "Off", "On", "Idle", "Aa", "Bb"]}


def _random_operand(rng: random.Random, kind: str, depth: int) -> str:
    """Model text of the given kind, but for a slip now and then: a
    subexpression of another kind, an unknown name, a `!` before a bare
    operand of any kind, a case with no default or a set literal."""
    slip = rng.random()
    if slip < 0.06:
        kind = rng.choice(sorted(_LEAVES))
    elif slip < 0.07:
        return "zq"
    elif slip < 0.10:
        return "!" + rng.choice(_LEAVES[rng.choice(sorted(_LEAVES))])
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        return rng.choice(_LEAVES[kind])
    sub = lambda k: _random_operand(rng, k, depth - 1)
    if slip > 0.98:
        return "{" + f"{sub(kind)}, {sub(kind)}" + "}"
    if pick < 0.8 and kind == "int":
        return f"-({sub('int')})" if pick < 0.45 else f"({sub('int')} {rng.choice('+-')} {sub('int')})"
    if pick < 0.8 and kind == "bool":
        if pick < 0.45:
            return f"!({sub('bool')})"
        if pick < 0.6:
            return f"({sub('bool')} {rng.choice(['&', '|', '->'])} {sub('bool')})"
        k = rng.choice(sorted(_LEAVES))
        op = rng.choice(["<", ">="] if k == "int" else ["=", "!="])
        return f"({sub(k)} {op} {sub(k)})"
    arms = [f"{sub('bool')} : {sub(kind)};" for _ in range(rng.randrange(1, 3))]
    if slip < 0.95:
        arms.append(f"TRUE : {sub(kind)};")
    return f"(case {' '.join(arms)} esac)"


def test_spec_atoms_are_typed_as_model_text():
    """An atom is accepted exactly when the same text validates as a boolean
    define, and both reject it with the same first error code."""
    rng = random.Random(15)
    ts = build(TYPED_DEFINES)
    accepted = 0
    for _ in range(1500):
        kind = rng.choice(sorted(_LEAVES))
        op = rng.choice(["<", ">="] if kind == "int" else ["=", "!="])
        atom = f"{_random_operand(rng, kind, 3)} {op} {_random_operand(rng, kind, 3)}"
        model = parse_model(TYPED_DEFINES + f"  zz := {atom};\nASSIGN\n  init(probe) := zz;\n")
        errors = [d.code for d in validate_model(model) if d.severity == "error"]
        try:
            parse_ltl(f"G ({atom})", ts)
        except ParseError as err:
            assert errors, atom
            assert err.message.startswith(f"[{errors[0]}] "), (atom, err.message, errors)
        else:
            assert errors == [], (atom, errors)
            accepted += 1
    assert 300 < accepted < 1200, accepted


def test_parenthesis_opens_a_grouped_formula_unless_a_comparison_follows():
    ts = build(TYPED)
    a, b, c, n = (F.Atom(VarRef(ts.index[v], v)) for v in ("a", "b", "c", "n"))
    assert parse_ltl("(a | b) U c", ts) == F.Until(F.Or(a, b), c)
    assert parse_ltl("(n + 1) = 5 & a", ts) == F.And(
        F.Atom(FBinary("=", FBinary("+", n.expr, Const(1)), Const(5))), a,
    )
    for text in ("(a) = b", "x = (a | b)", "a = !b"):
        assert isinstance(parse_ltl(text, ts), F.Atom), text
    with pytest.raises(ParseError, match="unresolved identifier 'NoSuchVar'"):
        parse_ltl("G (a U NoSuchVar)", ts)


def test_negation_binds_to_its_operand_as_in_model_text():
    ts = build(TYPED)
    a, b, n = (VarRef(ts.index[v], v) for v in ("a", "b", "n"))
    # an operator after the operand of `!` makes the whole text one atom
    assert parse_ltl("!a = b", ts) == F.Atom(FBinary("=", FUnary("!", a), b))
    assert parse_ltl("G (!a != b | a)", ts) == F.Globally(
        F.Or(F.Atom(FBinary("!=", FUnary("!", a), b)), F.Atom(a)))
    for text in ("G (!n = 3)", "!n + 1 < 3", "G !n >= 2"):
        with pytest.raises(ParseError, match=r"\[op-type\] operator '!' needs bool, got int"):
            parse_ltl(text, ts)
    # otherwise `!` negates the formula that follows it
    assert parse_ltl("!(a = b)", ts) == F.Not(F.Atom(FBinary("=", a, b)))
    assert parse_ltl("!a & b", ts) == F.And(F.Not(F.Atom(a)), F.Atom(b))
    assert parse_ltl("!X a U b", ts) == F.Until(F.Not(F.Next(F.Atom(a))), F.Atom(b))
    assert parse_ltl("!(n = 3) = a", ts) == F.Atom(
        FBinary("=", FUnary("!", FBinary("=", n, Const(3))), a))


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


# --- past monitors ----------------------------------------------------------

ONE_PULSE = """
MODULE main
VAR
  n : 0..4;
  a : boolean;
ASSIGN
  init(n) := 0;
  next(n) := case n = 4 : n; TRUE : n + 1; esac;
  init(a) := FALSE;
  next(a) := n = 1;
"""


def test_latch_progression():
    # a holds at step 2 only: O a reads F,F,T,T,T, Y a F,F,F,T,F and
    # H !a T,T,F,F,F, so each spec is violated first where its monitor
    # turns, and each bi-implication, split in two, holds to the bound
    ts = build(ONE_PULSE)
    for text, step in (("G !(O a)", 2), ("G !(Y a)", 3), ("G H !a", 2)):
        verdict = check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=4))
        assert isinstance(verdict, Counterexample) and verdict.violation_step == step, text
    for text in ("G ((O a -> n >= 2) & (n >= 2 -> O a))",
                 "G ((Y a -> n = 3) & (n = 3 -> Y a))",
                 "G ((H !a -> n < 2) & (n < 2 -> H !a))"):
        verdict = check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=4))
        assert isinstance(verdict, NoCounterexampleWithinBound), text


def test_structural_dedup(ts):
    f = parse_ltl("O OpModeA & (O OpModeA | Y OpModeB)", ts)
    assert len(obligation_store(f)[0].monitors) == 2  # one per distinct past subformula


def test_past_over_future_rejected(ts):
    f = F.Once(F.Next(parse_ltl("OpModeA", ts)))
    with pytest.raises(PastEliminationError):
        check_bounded(CheckTask(ts, f, bound_k=3))


def test_past_over_future_error_quotes_its_own_atoms(ts):
    # both formulas have one skeleton, and each error names its own atoms
    for atom, other in (("OpModeA", "OpModeB"), ("OpModeB", "OpModeA"), ("(n > 2)", "n < 2")):
        f = parse_ltl(f"G (O (F ({atom})) | {other})", ts)
        with pytest.raises(PastEliminationError) as err:
            check_bounded(CheckTask(ts, f, bound_k=3))
        assert str(err.value) == f"past operator over a future subformula: F {atom}", atom


def test_formulas_with_one_skeleton_share_a_store(ts):
    first, first_atoms = obligation_store(parse_ltl("G (OpModeA -> O (n > 2))", ts))
    second, second_atoms = obligation_store(parse_ltl("G (OpModeB -> O (n < 5))", ts))
    assert first is second
    assert [format_fexpr(a) for a in first_atoms] == ["OpModeA", "(n > 2)"]
    assert [format_fexpr(a) for a in second_atoms] == ["OpModeB", "(n < 5)"]
    merged, merged_atoms = obligation_store(parse_ltl("G (OpModeA -> O OpModeA)", ts))
    assert merged is not first and len(merged_atoms) == 1


def test_past_monitors_match_oracle_random():
    """check_bounded, which tracks past operators in its obligations, gives
    the verdict and the counterexample trace of the oracle, which evaluates
    them directly on every path."""
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
        task = CheckTask(ts, f, bound_k=rng.randrange(1, 5))
        fast, slow = check_bounded(task), brute_force_check(task)
        case = f"case {i}: {format_formula(f)}\n{fast} vs {slow}"
        if isinstance(slow, Counterexample):
            assert isinstance(fast, Counterexample), case
            assert fast.violation_step == slow.violation_step, case
            assert trace_to_text(fast.trace) == trace_to_text(slow.trace), case
        else:
            assert fast == slow, case
