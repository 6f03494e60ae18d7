import itertools
import random
import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from fsmcheck.checker import (
    CheckTask, Counterexample, InvalidTrace, ModelError, NoCounterexampleWithinBound,
    Timeout, check_bounded, dependency_graph, replay_counterexample,
)
from fsmcheck.checker.brute import CapExceeded, brute_force_check
from fsmcheck.lang import parse_model, validate_model
from fsmcheck.ltl import PrefixVerdict, parse_ltl
from fsmcheck.checker import core
from fsmcheck.checker.core import TimeoutBudget, state_graph
from fsmcheck.checker import deps
from fsmcheck.checker.deps import depth_clock, sequential_constants
from fsmcheck.semantics import (
    BoolDomain, Const, State, Trace, TransitionSystem, VarDef, elaborate, initial_states,
    simulate, successors, trace_to_text,
)
from fsmcheck.semantics.exec import ModelStepError, step_kernel
from fsmcheck.semantics.system import FBinary, FChoice, VarRef

from helpers import (
    Forgetful, as_dict, int_model_atoms, per_entry_check, random_bool_expr, random_bool_model,
    random_constant_model, random_future_formula, random_int_model, random_merging_model,
    random_past_formula,
)

COUNTER = """
MODULE main
VAR
  n : 0..20;
  x : boolean;
ASSIGN
  init(n) := 0;
  next(n) := case n = 20 : n; TRUE : n + 1; esac;
  init(x) := FALSE;
  next(x) := n >= 3;
"""


def build(src):
    model = parse_model(src)
    assert [d for d in validate_model(model) if d.severity == "error"] == []
    return elaborate(model)


def test_g_false_counterexample_at_step_zero():
    ts = build(COUNTER)
    task = CheckTask(ts, parse_ltl("G FALSE", ts), bound_k=0)
    verdict = check_bounded(task)
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 0
    assert len(verdict.trace) == 1


def test_bounded_reach_holds():
    ts = build(COUNTER)
    task = CheckTask(ts, parse_ltl("F[0,10] x", ts), bound_k=10)
    verdict = check_bounded(task)
    assert isinstance(verdict, NoCounterexampleWithinBound)
    assert verdict.all_paths_decided is True


def test_unbounded_g_is_undecided():
    ts = build(COUNTER)
    task = CheckTask(ts, parse_ltl("G n <= 20", ts), bound_k=5)
    verdict = check_bounded(task)
    assert isinstance(verdict, NoCounterexampleWithinBound)
    assert verdict.all_paths_decided is False


def test_free_var_violates_g():
    ts = build("MODULE main\nVAR a : boolean;\nVAR b : boolean;\n")
    task = CheckTask(ts, parse_ltl("G a", ts), bound_k=3)
    verdict = check_bounded(task)
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 0  # some initial state has a = FALSE
    oracle = brute_force_check(task)
    assert isinstance(oracle, Counterexample)
    assert oracle.violation_step == 0


def test_deterministic_model_single_path():
    ts = build(COUNTER)
    task = CheckTask(ts, parse_ltl("G[0,5] n <= 5", ts), bound_k=5)
    assert isinstance(check_bounded(task), NoCounterexampleWithinBound)
    assert isinstance(brute_force_check(task, max_paths=1), NoCounterexampleWithinBound)


def test_cap_exceeded():
    ts = build("MODULE main\nVAR a : boolean;\n")
    task = CheckTask(ts, parse_ltl("G a", ts), bound_k=8)
    with pytest.raises(CapExceeded):
        brute_force_check(task, max_paths=3)


def test_violation_step_and_monotonicity_in_k():
    ts = build(COUNTER)
    f = parse_ltl("G n <= 4", ts)
    low = check_bounded(CheckTask(ts, f, bound_k=3))
    assert isinstance(low, NoCounterexampleWithinBound)
    for k in (5, 6, 12):
        verdict = check_bounded(CheckTask(ts, f, bound_k=k))
        assert isinstance(verdict, Counterexample)
        assert verdict.violation_step == 5
        assert len(verdict.trace) <= k + 1


def test_replay_of_emitted_counterexample():
    ts = build(COUNTER)
    f = parse_ltl("G n <= 4", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=10))
    assert isinstance(verdict, Counterexample)
    assert replay_counterexample(ts, verdict.trace, f) is PrefixVerdict.VIOLATED


def test_replay_rejects_corrupted_trace():
    ts = build(COUNTER)
    f = parse_ltl("G n <= 4", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=10))
    states = list(verdict.trace.states)
    bad = list(states[2].values)
    bad[ts.index["n"]] = 17
    states[2] = State(tuple(bad), ts)
    with pytest.raises(InvalidTrace):
        replay_counterexample(ts, Trace(tuple(states)), f)


def test_replay_rejects_bad_init():
    ts = build(COUNTER)
    f = parse_ltl("G n <= 4", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=10))
    states = list(verdict.trace.states)
    wrong = list(states[0].values)
    wrong[ts.index["n"]] = 9
    states[0] = State(tuple(wrong), ts)
    with pytest.raises(InvalidTrace):
        replay_counterexample(ts, Trace(tuple(states)), f)


def test_model_error_reported():
    src = """
MODULE main
VAR t : 0..3;
ASSIGN
  init(t) := 0;
  next(t) := t + 1;
"""
    ts = build(src)
    f = parse_ltl("G[0,10] t >= 0", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=10))
    assert isinstance(verdict, ModelError)
    assert verdict.step == 4
    oracle = brute_force_check(CheckTask(ts, f, bound_k=10))
    assert isinstance(oracle, ModelError)
    assert oracle.step == 4


def test_counterexample_beats_model_error():
    src = """
MODULE main
VAR t : 0..3;
ASSIGN
  init(t) := 0;
  next(t) := t + 1;
"""
    ts = build(src)
    f = parse_ltl("G[0,10] t <= 1", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=10))
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 2
    oracle = brute_force_check(CheckTask(ts, f, bound_k=10))
    assert isinstance(oracle, Counterexample)
    assert oracle.violation_step == 2


INIT_POISON = """
MODULE main
VAR a : 0..3; b : 0..3;
ASSIGN
  init(a) := {0, 3};
  init(b) := a + 1;
  next(a) := a;
  next(b) := b;
"""


def test_init_rule_leaving_its_domain_beats_any_counterexample():
    # a = 0 gives a state that violates both specs, at step 0 and at step 1;
    # then b = 4 on a = 3 cuts the initial states short
    ts = build(INIT_POISON)
    for text in ("G a != 0", "X a != 0"):
        f = parse_ltl(text, ts)
        for k in (0, 2):
            task = CheckTask(ts, f, bound_k=k)
            verdict = check_bounded(task)
            assert verdict == brute_force_check(task), (text, k)
            assert isinstance(verdict, ModelError) and verdict.step == 0, (text, k)


TWO_POISONS = """
MODULE main
VAR s : 1..2; x : 0..3; y : 0..3;
ASSIGN
  init(s) := {1, 2};
  next(s) := s;
  init(x) := 3;
  next(x) := case s = 2 : x + 1; TRUE : x; esac;
  init(y) := 3;
  next(y) := case s = 1 : y + 1; TRUE : y; esac;
"""


def test_model_error_quotes_the_oracles_first_poisoned_state():
    # both initial states step out of a domain: s = 1 through y, then s = 2
    # through x, whatever spec is checked or how much of it is decided
    ts = build(TWO_POISONS)
    for text in ("s = 1 | X x = 3", "G x >= 0", "O s = 1 | X x = 3"):
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=3)
        verdict = check_bounded(task)
        assert verdict == brute_force_check(task), text
        assert verdict.step == 1, text
        assert verdict.detail.startswith("value 4 for 'y' "), text


def test_timeout_honored():
    ts = build(COUNTER)
    f = parse_ltl("G n <= 100", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=20, timeout=0.0))
    assert isinstance(verdict, Timeout)


def test_determinism_same_task_same_result():
    # the second check reuses the first one's state graph; the third is
    # made on a system built apart, so it explores its own
    src = random_bool_model(random.Random(4), 4, 2)
    results = []
    for ts in (build(src),) * 2 + (build(src),):
        results.append(check_bounded(CheckTask(ts, parse_ltl("G (v0 -> X v1)", ts), bound_k=6)))
    assert results[0] == results[1] == results[2]


def test_dependency_graph():
    ts = build(COUNTER)
    graph = dependency_graph(ts)
    assert graph["x"] == {"n"}
    assert graph["n"] == {"n"}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_bitset_search_matches_per_entry_search(seed):
    """The bitset search gives the per-entry reference search's verdict,
    field by field, and its counterexample's trace text, at bounds up to 12
    that the oracle cannot reach: on past-operator bits that differ across a
    level, on an obligation that splits, or on a bits value that two
    residuals progress apart. Both sides read a model error from the same
    levels; the oracle suites check it."""
    rng = random.Random(seed)
    pick = rng.randrange(4)
    if pick < 2:
        src = random_int_model(rng, counter=pick == 1)
    elif pick == 2:
        src = random_bool_model(rng, rng.randrange(2, 5), rng.randrange(1, 3))
    else:
        src = random_constant_model(rng)[0]
    ts = build(src)
    atoms = int_model_atoms(ts)
    shape = rng.randrange(6)
    lo = rng.randrange(0, 4)
    hi = lo + rng.randrange(0, 6)
    window = rng.choice(["G", "F", f"G[{lo},{hi}]", f"F[{lo},{hi}]"])
    if shape == 0:
        text = f"{window} ({random_bool_expr(rng, atoms, 2)})"
    elif shape == 1:
        # the states where the trigger holds take on a response, the others
        # do not: the obligations of a level differ from state to state
        trigger, response = (random_bool_expr(rng, atoms, 1) for _ in range(2))
        text = f"G ({trigger} -> X {window} ({response}))"
    elif shape == 2:
        # a state's residual depends on its parent's bits, so a state reached
        # from parents with two residuals can take two results
        p, q = (random_bool_expr(rng, atoms, 1) for _ in range(2))
        text = f"G[{lo},{hi}] (({p} & X {p}) -> X {q})"
    elif shape == 3:
        text = random_past_formula(rng, atoms, rng.randrange(1, 4))
    elif shape == 4:
        # a past operator whose bit differs across a level splits the
        # level's obligations
        past = random_bool_expr(rng, atoms, 1)
        for _ in range(rng.randrange(1, 3)):
            past = f"{rng.choice('OYH')} ({past})"
        text = f"{window} (({past}) -> ({random_bool_expr(rng, atoms, 1)}))"
        if rng.random() < 0.5:
            # a disjunct decided on part of a level leaves the others
            # with the past-operator bits they carry
            text = f"F[{lo},{hi}] ({random_bool_expr(rng, atoms, 1)}) | ({text})"
    else:
        text = random_future_formula(rng, atoms, rng.randrange(1, 4))
    bound = rng.randrange(0, 13)
    verdict = check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=bound))
    ref_ts = build(src)
    reference = per_entry_check(CheckTask(ref_ts, parse_ltl(text, ref_ts), bound_k=bound))
    case = f"{text}, k={bound}\n{src}\n{verdict} vs {reference}"
    assert verdict == reference, case
    if isinstance(verdict, Counterexample):
        assert trace_to_text(verdict.trace) == trace_to_text(reference.trace), case


MERGING = """
MODULE main
VAR x : 0..3; y : boolean;
ASSIGN
  init(x) := 0;
  next(x) := case x = 0 : {2, 1}; TRUE : 3; esac;
  init(y) := FALSE;
  next(y) := y;
"""


def test_violating_state_is_reached_from_its_first_parent():
    # x = 3 is reached at step 2 from x = 2 and from x = 1; the kernel lists
    # x = 2 first
    ts = build(MERGING)
    verdict = check_bounded(CheckTask(ts, parse_ltl("G x < 3", ts), bound_k=5))
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 2
    assert trace_to_text(verdict.trace) == (
        "step 0\nx = 0\ny = FALSE\n\n"
        "step 1\nx = 2\ny = FALSE\n\n"
        "step 2\nx = 3\ny = FALSE\n"
    )


def test_levels_keep_each_positions_successors_as_a_bitset():
    # level 1 is x = 2, x = 1 in kernel order, and both step to x = 3
    graph = state_graph(build(MERGING))
    budget = TimeoutBudget(None)
    assert graph.level(1, budget).masks == (0b11,)
    level = graph.level(2, budget)
    assert len(level.ids) == 1
    assert level.masks == (1, 1)


def test_counterexample_leaves_the_violating_states_first_parent():
    # x = 3 is first reached from x = 2, but only the path through x = 1
    # violates at step 2
    ts = build(MERGING)
    task = CheckTask(ts, parse_ltl("G (x = 1 -> X x != 3)", ts), bound_k=5)
    verdict = check_bounded(task)
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 2
    assert [s["x"] for s in verdict.trace] == [0, 1, 3]
    _assert_agrees_with_oracle(task, verdict, "a path past the first parent")


SPLITTING = """
MODULE main
VAR x : 0..4; b : boolean;
ASSIGN
  init(x) := 0;
  next(x) := case x = 4 : 4; TRUE : x + 1; esac;
"""


def test_trace_goes_back_through_a_split_obligation():
    # one obligation covers levels 0 and 1; at level 2 the states with b
    # add `X b`, so level 2's positions split between two obligations, and
    # the trace is read back through the positions of the one that fails
    ts = build(SPLITTING)
    f = parse_ltl("G ((x = 2 & b) -> X b)", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=6))
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 3
    assert trace_to_text(verdict.trace) == (
        "step 0\nb = FALSE\nx = 0\n\n"
        "step 1\nb = FALSE\nx = 1\n\n"
        "step 2\nb = TRUE\nx = 2\n\n"
        "step 3\nb = FALSE\nx = 3\n"
    )
    assert replay_counterexample(ts, verdict.trace, f) is PrefixVerdict.VIOLATED


def test_a_split_obligation_keeps_its_monitor_bit():
    # O (x = 1) holds from step 1 on every path; at level 2 the states
    # with b decide `X X b` to top, so only the others stay undecided, and
    # only the monitor bit their obligation carries makes x = 3 violate at
    # step 3
    ts = build(SPLITTING)
    f = parse_ltl("X X b | G (x < 3 | !(O x = 1))", ts)
    task = CheckTask(ts, f, bound_k=6)
    verdict = check_bounded(task)
    assert isinstance(verdict, Counterexample) and verdict.violation_step == 3
    assert verdict == per_entry_check(task)
    _assert_agrees_with_oracle(task, verdict, "monitor bit of a split obligation")


def test_oracle_equivalence_quick():
    rng = random.Random(2024)
    agree = 0
    for i in range(60):
        src = random_bool_model(rng, rng.randrange(2, 5), rng.randrange(0, 2))
        ts = build(src)
        names = [f"v{j}" for j in range(len(ts.variables))]
        text = random_future_formula(rng, names, rng.randrange(1, 4))
        f = parse_ltl(text, ts)
        k = rng.randrange(0, 7)
        task = CheckTask(ts, f, bound_k=k)
        fast = check_bounded(task)
        slow = brute_force_check(task)
        assert type(fast) is type(slow), f"case {i}: {text}\n{src}\n{fast} vs {slow}"
        if isinstance(fast, Counterexample):
            assert fast.violation_step == slow.violation_step, f"case {i}: {text}"
            assert trace_to_text(fast.trace) == trace_to_text(slow.trace), f"case {i}: {text}"
            assert replay_counterexample(ts, fast.trace, f) is PrefixVerdict.VIOLATED
        if isinstance(fast, NoCounterexampleWithinBound):
            assert fast.all_paths_decided == slow.all_paths_decided, f"case {i}: {text}"
        agree += 1
    assert agree == 60


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_oracle_equivalence_int_domains(seed):
    rng = random.Random(seed)
    src = random_int_model(rng)
    ts = build(src)
    text = random_future_formula(rng, int_model_atoms(ts), rng.randrange(1, 4))
    _assert_matches_oracle(ts, src, text, rng)
    # states with several parents, some of which lead to no violation: the
    # trace must go back through a parent that does
    src = random_merging_model(rng)
    ts = build(src)
    text = random_future_formula(rng, int_model_atoms(ts), rng.randrange(1, 4))
    _assert_matches_oracle(ts, src, text, rng)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_oracle_equivalence_past_operators(seed):
    rng = random.Random(seed)
    src = random_int_model(rng)
    ts = build(src)
    text = random_past_formula(rng, int_model_atoms(ts), rng.randrange(1, 4))
    _assert_matches_oracle(ts, src, text, rng)


def _assert_matches_oracle(ts, src, text, rng):
    """check_bounded agrees with brute_force_check on a random bound, down
    to the counterexample's trace, and every counterexample replays to
    VIOLATED."""
    f = parse_ltl(text, ts)
    task = CheckTask(ts, f, bound_k=rng.randrange(0, 4))
    _assert_agrees_with_oracle(task, check_bounded(task), f"{text}, k={task.bound_k}\n{src}")


def _assert_agrees_with_oracle(task, fast, case):
    slow = brute_force_check(task)
    case = f"{case}\n{fast} vs {slow}"
    assert type(fast) is type(slow), case
    if isinstance(fast, Counterexample):
        assert fast.violation_step == slow.violation_step, case
        # both return the canonical path: the lexicographically least of
        # the shortest violating paths, in successor order
        assert trace_to_text(fast.trace) == trace_to_text(slow.trace), case
        assert replay_counterexample(task.ts, fast.trace, task.formula) is PrefixVerdict.VIOLATED
    if isinstance(fast, NoCounterexampleWithinBound):
        assert fast.all_paths_decided == slow.all_paths_decided, case
    if isinstance(fast, ModelError):
        assert fast == slow, case


def test_replay_rejects_poisoned_step():
    src = """
MODULE main
VAR t : 0..2;
ASSIGN
  init(t) := 0;
  next(t) := {t + 1, 0};
"""
    ts = build(src)
    trace = Trace(tuple(State((t,), ts) for t in (0, 1, 2, 0)))
    with pytest.raises(InvalidTrace):
        replay_counterexample(ts, trace, parse_ltl("G t < 2", ts))


def test_replay_rejects_a_successor_only_the_kernel_adds():
    """The oracle, replay and simulation step without the compiled kernel,
    so a kernel fault is not confirmed by them."""
    ts = build(COUNTER)
    f = parse_ltl("G (x -> n >= 4)", ts)
    graph = state_graph(ts)
    x = graph.sliced.system.index["x"]
    kernel = graph._kernel

    def faulty(s, k=()):
        cands = list(kernel(s, k))
        cands[x] = tuple(dict.fromkeys(cands[x] + (True,)))
        return tuple(cands)

    graph._kernel = faulty
    verdict = check_bounded(CheckTask(ts, f, bound_k=6))
    assert isinstance(verdict, Counterexample) and verdict.violation_step == 1
    with pytest.raises(InvalidTrace, match="not in the transition relation"):
        replay_counterexample(ts, verdict.trace, f)

    fresh = build(COUNTER)
    task = CheckTask(fresh, parse_ltl("G n <= 4", fresh), bound_k=6)
    with patch("fsmcheck.semantics.exec.step_kernel", side_effect=AssertionError("kernel")):
        found = brute_force_check(task)
        assert isinstance(found, Counterexample) and found.violation_step == 5
        assert replay_counterexample(fresh, found.trace, task.formula) is PrefixVerdict.VIOLATED
        assert [s["n"] for s in simulate(fresh, 3)] == [0, 1, 2, 3]
        assert [s["n"] for s in successors(fresh, found.trace[0])] == [1]
        assert fresh._graph is None


def _unsliced_check(src, text, bound):
    """check_bounded with no variable taken for a sequential constant, on a
    system built for it alone: a system caches its slice at its first check."""
    ts = build(src)
    with patch("fsmcheck.checker.core.sequential_constants", return_value={}):
        return check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=bound))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_slicing_matches_unsliced_check(seed):
    """Leaving the sequential constants out changes nothing in a verdict,
    and the oracle agrees with it."""
    rng = random.Random(seed)
    src, pinned, unpinned = random_constant_model(rng)
    ts = build(src)
    consts = {ts.variables[i].name for i in sequential_constants(ts)}
    assert pinned <= consts and not unpinned & consts, src
    atoms = int_model_atoms(ts)
    pick = rng.randrange(3)
    if pick == 0:
        # violated first by whichever initial state comes first, of those
        # that a and b single out: it depends on the order they branch in
        a_atom = rng.choice([x for x in atoms if x.startswith("(a ")])
        text = f"G !({a_atom} | {rng.choice(['b', '!b'])})"
    else:
        make = random_past_formula if pick == 1 else random_future_formula
        text = make(rng, atoms, rng.randrange(1, 4))
    f = parse_ltl(text, ts)
    task = CheckTask(ts, f, bound_k=rng.randrange(0, 4))
    sliced = check_bounded(task)
    unsliced = _unsliced_check(src, text, task.bound_k)
    case = f"{text}, k={task.bound_k}\n{src}"
    # the verdicts compare every field: the step, the trace's values, the
    # decided flag, the model error's step and detail
    assert sliced == unsliced, f"{case}\n{sliced} vs {unsliced}"
    if isinstance(sliced, Counterexample):
        assert trace_to_text(sliced.trace) == trace_to_text(unsliced.trace), case
    _assert_agrees_with_oracle(task, sliced, case)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_shared_graph_matches_fresh_checks(seed):
    """Specs checked in sequence on one system share its state graph; each
    gets the verdict that a check on a freshly built system gives, and the
    oracle agrees. The first check runs out of budget after a random number
    of polls, so the later ones start on a partly explored graph."""
    rng = random.Random(seed)
    # the constant models add sliced variables and init rules out of range
    src = random_int_model(rng) if rng.random() < 0.7 else random_constant_model(rng)[0]
    ts = build(src)
    atoms = int_model_atoms(ts)
    polls = itertools.count()
    cut = rng.randrange(0, 6)
    for i in range(rng.randrange(3, 5)):
        make = rng.choice([random_future_formula, random_past_formula])
        text = make(rng, atoms, rng.randrange(1, 4))
        # deep enough that the cut lands in level building, which must not
        # leave a partial level behind for the later checks
        bound = rng.randrange(0, 10)
        fresh_ts = build(src)
        fresh = check_bounded(CheckTask(fresh_ts, parse_ltl(text, fresh_ts), bound_k=bound))
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=bound)
        case = f"spec {i}: {text}, k={bound}\n{src}"
        if i == 0:
            with patch.object(TimeoutBudget, "exceeded", lambda self: next(polls) >= cut):
                first = check_bounded(CheckTask(ts, task.formula, bound_k=bound, timeout=1.0))
            assert isinstance(first, Timeout) or first == fresh, f"{case}\n{first} vs {fresh}"
        shared = check_bounded(task)
        assert shared == fresh, f"{case}\n{shared} vs {fresh}"
        if isinstance(shared, Counterexample):
            assert trace_to_text(shared.trace) == trace_to_text(fresh.trace), case
        if bound <= 4:  # the oracle enumerates every path
            _assert_agrees_with_oracle(task, shared, case)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_shared_obligations_match_fresh_checks(seed):
    """Formulas with one skeleton share one obligation store in a process:
    checked in a shuffled order on a warm store cache, each unit gets the
    verdict and trace of a check on a cleared cache, and the oracle agrees.
    Some models have a depth clock, so some atoms read it and others of the
    same skeleton do not."""
    rng = random.Random(seed)
    shapes = [rng.choice([random_future_formula, random_past_formula])(
        rng, ["@0", "@1", "@2"], rng.randrange(1, 4)) for _ in range(2)]
    units = []
    for _ in range(2):
        src = random_int_model(rng, counter=rng.random() < 0.6)
        atoms = int_model_atoms(build(src))
        for shape in shapes:
            for _ in range(2):
                names = rng.sample(atoms, 3) if len(atoms) >= 3 else rng.choices(atoms, k=3)
                text = re.sub(r"@(\d)", lambda m: names[int(m.group(1))], shape)
                units.append((src, text, rng.randrange(0, 9)))
    systems = {src: build(src) for src, _, _ in units}
    core._store.cache_clear()
    warm = {}
    for i in rng.sample(range(len(units)), len(units)):
        src, text, bound = units[i]
        warm[i] = check_bounded(CheckTask(systems[src], parse_ltl(text, systems[src]), bound_k=bound))
    for i, (src, text, bound) in enumerate(units):
        core._store.cache_clear()
        ts = build(src)
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=bound)
        fresh = check_bounded(task)
        case = f"unit {i}: {text}, k={bound}\n{src}"
        assert warm[i] == fresh, f"{case}\n{warm[i]} vs {fresh}"
        if isinstance(fresh, Counterexample):
            assert trace_to_text(warm[i].trace) == trace_to_text(fresh.trace), case
        if bound <= 3:  # the oracle enumerates every path
            _assert_agrees_with_oracle(task, fresh, case)


SLICED = """
MODULE main
VAR a : 0..3; k : 0..3; c : boolean; n : 0..1;
ASSIGN
  init(k) := 2; next(k) := k;
  init(a) := {k, 0}; next(a) := a;
  next(c) := c;
  init(n) := 0; next(n) := n + k;
"""


def test_sliced_initial_states_keep_the_unsliced_order():
    # a's init reads k, declared after it, so a branches after c
    ts = build(SLICED)
    assert sequential_constants(ts) == {ts.index["k"]: 2}
    verdict = check_bounded(CheckTask(ts, parse_ltl("G !(c | a = 0)", ts), bound_k=3))
    assert isinstance(verdict, Counterexample)
    assert verdict.violation_step == 0
    assert as_dict(verdict.trace[0]) == {"a": 0, "k": 2, "c": False, "n": 0}


def test_sliced_model_error_quotes_the_unsliced_rule():
    ts = build(SLICED)
    verdict = check_bounded(CheckTask(ts, parse_ltl("G a < 3", ts), bound_k=3))
    assert isinstance(verdict, ModelError)
    assert verdict.step == 1
    assert verdict.detail.endswith("offending rule: (n + k)")


def test_atoms_that_the_slice_makes_equal():
    # k is a sequential constant, so `x = k` and `x = 1` are two atoms of
    # the formula but one expression over the sliced system
    ts = build("MODULE main\nVAR k : 0..3; x : 0..3;\nASSIGN\n"
               "  init(k) := 1; next(k) := k;\n"
               "  init(x) := 0; next(x) := case x = 3 : 0; TRUE : {x, x + 1}; esac;\n")
    sliced = state_graph(ts).sliced
    x_k, x_1 = (parse_ltl(text, ts).expr for text in ("x = k", "x = 1"))
    assert x_k != x_1 and sliced.rewrite(x_k) == sliced.rewrite(x_1)
    for text in ("G (x = k -> X x != 1)", "G !(x = k & x != 1)", "F[0,2] (x = k & x = 1)",
                 "G (O (x = k) -> (x = 1 | Y (x != 1)))"):
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=5)
        _assert_agrees_with_oracle(task, check_bounded(task), text)


def test_constant_atom_is_decided_by_the_state_that_reads_it():
    # X FALSE is violated by the second state, not by the first one
    ts = build("MODULE main\nVAR c : boolean;\nASSIGN\n  init(c) := FALSE;\n  next(c) := c;\n")
    for text in ("X FALSE", "X c", "X TRUE"):
        f = parse_ltl(text, ts)
        for k in (0, 1, 2):
            task = CheckTask(ts, f, bound_k=k)
            fast, slow = check_bounded(task), brute_force_check(task)
            assert type(fast) is type(slow), (text, k)
            if isinstance(fast, Counterexample):
                assert fast.violation_step == slow.violation_step == 1, (text, k)
            else:
                assert fast.all_paths_decided == slow.all_paths_decided, (text, k)


def _clock_free_check(src, text, bound):
    """check_bounded with no depth clock found, on a system built for it
    alone: the kernel then steps the counter like any other variable."""
    ts = build(src)
    with patch("fsmcheck.checker.core.depth_clock", return_value=None):
        return check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=bound))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_clock_matches_clock_free_check(seed):
    """Holding a step counter out of the state graph changes nothing in a
    verdict or a trace, for specs checked in sequence on one system.
    Guards, atoms and past operators read the counter, which saturates or
    wraps, and the rules it guards can leave their range."""
    rng = random.Random(seed)
    src = random_int_model(rng, counter=True)
    ts = build(src)
    if ts.index["t"] not in sequential_constants(ts):
        assert state_graph(ts).clock is not None, src
    atoms = int_model_atoms(ts)
    for i in range(rng.randrange(1, 4)):
        pick = rng.randrange(3)
        if pick == 2:
            trigger, response = (random_bool_expr(rng, atoms, 1) for _ in range(2))
            lo = rng.randrange(0, 4)
            text = f"G ({trigger} -> X F[{lo},{lo + rng.randrange(0, 4)}] ({response}))"
        else:
            make = random_past_formula if pick else random_future_formula
            text = make(rng, atoms, rng.randrange(1, 4))
        bound = rng.randrange(0, 13)
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=bound)
        clocked = check_bounded(task)
        reference = _clock_free_check(src, text, bound)
        case = f"spec {i}: {text}, k={bound}\n{src}"
        assert clocked == reference, f"{case}\n{clocked} vs {reference}"
        if isinstance(clocked, Counterexample):
            assert trace_to_text(clocked.trace) == trace_to_text(reference.trace), case
        if bound <= 3:  # the oracle enumerates every path
            _assert_agrees_with_oracle(task, clocked, case)


def test_depth_clock_values():
    # saturating: n counts to 20 and stays there
    clock = depth_clock(build(COUNTER))
    assert (clock.name, clock.values, clock.loop) == ("n", tuple(range(21)) + (20,), 20)
    assert [clock.at(d) for d in (0, 7, 20, 21, 95)] == [0, 7, 20, 20, 20]
    wrap = "MODULE main\nVAR t : 0..3;\nASSIGN\n  init(t) := 1;\n" \
           "  next(t) := case t = 3 : 0; TRUE : t + 1; esac;\n"
    clock = depth_clock(build(wrap))
    assert (clock.values, clock.loop, clock.period) == ((1, 2, 3, 0, 1), 0, 4)
    assert [clock.at(d) for d in range(9)] == [1, 2, 3, 0, 1, 2, 3, 0, 1]
    # a choice, or a read of another variable, makes no clock
    for rule in ("{t, 0}", "case b : t; TRUE : 0; esac"):
        src = f"MODULE main\nVAR t : 0..3; b : boolean;\nASSIGN\n  init(t) := 0;\n  next(t) := {rule};\n"
        assert depth_clock(build(src)) is None, rule


LEAVING = """
MODULE main
VAR
  x : boolean;
  t : 0..3;
ASSIGN
  init(t) := 0;
  next(t) := t + 1;
  init(x) := FALSE;
  next(x) := t >= 2;
"""


def test_counter_leaving_its_domain_is_no_clock():
    # t would be 4 at step 4: t is stepped by the kernel, which poisons that step
    ts = build(LEAVING)
    assert depth_clock(ts) is None
    for text in ("G TRUE", "G (t < 3 | x)", "G (x -> O (t = 2))"):
        verdict = check_bounded(CheckTask(ts, parse_ltl(text, ts), bound_k=6))
        assert verdict == ModelError(
            4, "value 4 for 't' is outside its domain; offending rule: (t + 1)"), text


def test_clock_reading_atoms_see_the_depth():
    # every state holds n = its depth; the atoms and the past operator read n
    ts = build(COUNTER)
    assert state_graph(ts).clock.name == "n"
    verdict = check_bounded(CheckTask(ts, parse_ltl("G (n < 4 | Y (n = 3))", ts), bound_k=9))
    assert isinstance(verdict, Counterexample) and verdict.violation_step == 5
    assert [s["n"] for s in verdict.trace] == [0, 1, 2, 3, 4, 5]
    assert [s["x"] for s in verdict.trace] == [False, False, False, False, True, True]


@pytest.mark.parametrize("past", [False, True])
def test_atoms_are_evaluated_once_per_state(past):
    # x does not read the clock n, and the levels repeat the graph's two
    # states, x false through depth 3 and x true from depth 4 to the bound:
    # every depth reads one memo of atom bits, also when the obligation
    # carries the state of a past operator
    ts = build(COUNTER)
    calls = []
    compile_tuple = core._compile_tuple

    def counted(name, items):  # the atom functions; the graph compiles its own too
        fn = compile_tuple(name, items)
        return (lambda s: calls.append(s) or fn(s)) if name == "_atoms" else fn

    with patch.object(core, "_compile_tuple", counted):
        text = "G (x -> (X x & O !x))" if past else "G (x -> X x)"
        task = CheckTask(ts, parse_ltl(text, ts), bound_k=30)
        verdict = check_bounded(task)
    assert verdict == NoCounterexampleWithinBound(30)
    assert len(state_graph(ts).values) == 2
    assert len(calls) == 2


# --- systems derived from a base ------------------------------------------------


def _derive(base: TransitionSystem, rng: random.Random, how: str) -> TransitionSystem:
    """base with one or two variables replaced, as an instance replaces its
    failure variables, and a latch appended for each.

    "instance": each replaced variable is a constant of the base, and gets
    a choice of its value or another one, or no next rule, which leaves it
    no candidate. "stays": a constant is replaced by a copy of itself, so
    it stays constant. "unpinned": a variable that is not a constant of the
    base is replaced."""
    found = sequential_constants(base)
    n = len(base.variables)
    pool = sorted(found) if how != "unpinned" else [i for i in range(n) if i not in found]
    variables = list(base.variables)
    for i in rng.sample(pool, min(len(pool), rng.randrange(1, 3))):
        v = variables[i]
        ref = VarRef(i, v.name)
        if how == "instance":
            other = rng.choice([x for x in v.domain.values() if x != found[i]])
            rule = rng.choice([FChoice((ref, Const(other))), None,
                               FChoice((Const(found[i]), Const(other)))])
            variables[i] = VarDef(v.name, v.domain, v.init, rule)
            j = rng.choice([i, *found])  # the latch reads it, or another constant
            moved = FBinary("!=", VarRef(j, base.variables[j].name), Const(found[j]))
        else:
            variables[i] = VarDef(v.name, v.domain, v.init, v.next)
            moved = Const(False)
        latch = VarRef(len(variables), f"{v.name}_occurred")
        # sometimes a latch that never sets, which stays constant
        rule = latch if rng.random() < 0.3 else FBinary("|", latch, moved)
        variables.append(VarDef(latch.name, BoolDomain(), init=Const(False), next=rule))
    return TransitionSystem(tuple(variables), base=base)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_derived_constants_match_the_fixpoint_from_scratch(seed):
    """A derived system's constants, computed from its base's, are the
    greatest set that the work list finds from scratch; where a replaced
    variable breaks a condition, they are computed from scratch."""
    rng = random.Random(seed)
    src, _, _ = random_constant_model(rng)
    base = build(src)
    how = rng.choice(["instance", "instance", "stays", "unpinned"])
    derived = _derive(base, rng, how)
    replaced = [i for i, v in enumerate(base.variables) if derived.variables[i] is not v]
    scratch = deps._fixpoint
    calls = []
    with patch.object(deps, "_fixpoint", lambda ts: calls.append(ts) or scratch(ts)):
        got = sequential_constants(derived)
    assert got == scratch(derived)[0], (how, replaced, src)
    # an instance derives them: the base's are cached, and no fixpoint is
    # computed from scratch; the two broken derivations compute one
    assert calls == ([] if how == "instance" else [derived]), (how, replaced, src)


def test_a_standalone_system_computes_its_constants_once():
    ts = build(SLICED)
    assert ts.base is None
    scratch = deps._fixpoint
    calls = []
    with patch.object(deps, "_fixpoint", lambda ts: calls.append(ts) or scratch(ts)):
        first, second = sequential_constants(ts), sequential_constants(ts)
    assert first == second == {ts.index["k"]: 2} and first is not second
    assert calls == [ts]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_repeated_levels_equal_a_memo_free_rebuild(seed):
    """A level whose (ids, signature) repeats an earlier level's is that
    level again: to depth 70 the levels equal those built with no memo of
    repeated levels, poisoned steps included."""
    rng = random.Random(seed)
    src = random_int_model(rng, counter=rng.random() < 0.7)
    graph, fresh = state_graph(build(src)), state_graph(build(src))
    fresh._after = Forgetful()
    budget = TimeoutBudget(None)
    for depth in range(71):
        assert graph.level(depth, budget) == fresh.level(depth, budget), (depth, src)


def test_a_repeated_level_is_built_once():
    # the graph holds x and the clock n; depth d's signature is n >= 3 at
    # n = d, and x's next value is that. Levels 1-3 come from the state x
    # false under a false signature, and levels 5 on from the state x true
    # under a true one, so only levels 1, 4 and 5 are built, each from one
    # state that the budget is polled for
    ts = build(COUNTER)
    graph = state_graph(ts)
    budget = _CountingBudget()
    levels = [graph.level(d, budget) for d in range(30)]
    assert len(graph.values) == 2
    assert levels[1] is levels[2] is levels[3] and levels[4] is not levels[1]
    assert len({id(level) for level in levels[5:]}) == 1
    assert budget.polls == 3


class _CountingBudget(TimeoutBudget):
    def __init__(self):
        super().__init__(None)
        self.polls = 0

    def exceeded(self) -> bool:
        self.polls += 1
        return False


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_kernel_reports_the_first_variable_out_of_range(order):
    # both ints leave their range in one step: the kernel, the tree walker
    # and the check name the one declared first, with its value
    decls = " ".join(f"{v} : 0..2;" for v in order)
    ts = build(f"MODULE main\nVAR {decls}\nASSIGN\n"
               "  init(a) := 2; next(a) := a + 1;\n  init(b) := 2; next(b) := b + 2;\n")
    first = order[0]
    value = {"a": 3, "b": 4}[first]
    kernel, _ = step_kernel(ts)
    (s,) = initial_states(ts)
    with pytest.raises(ModelStepError) as fast:
        kernel(s.values)
    with pytest.raises(ModelStepError) as slow:
        successors(ts, s)
    assert (fast.value.var, fast.value.value) == (slow.value.var, slow.value.value) == (first, value)
    verdict = check_bounded(CheckTask(ts, parse_ltl("G TRUE", ts), bound_k=2))
    assert isinstance(verdict, ModelError) and verdict.step == 1
    assert f"for {first!r}" in verdict.detail
