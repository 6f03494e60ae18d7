import pytest

from fsmcheck.checker import CheckTask, NoCounterexampleWithinBound, check_bounded
from fsmcheck.driver import (
    instantiate_model, load_failure_catalog, load_target_matrix,
    parse_spec_file, plan_batch,
)
from fsmcheck.lang import parse_model, validate_model
from fsmcheck.ltl import parse_ltl
from fsmcheck.semantics import elaborate, simulate
from fsmcheck.vcs import (
    VcsConfig, axis_entries, channel_of, generate_vcs_model, signals,
)
from fsmcheck.vcs.generate import REACH_WINDOW

from helpers import scripted_chooser


@pytest.fixture(scope="module")
def desk():
    return generate_vcs_model(VcsConfig.desk())


@pytest.fixture(scope="module")
def full():
    return generate_vcs_model(VcsConfig.full())


def build(text):
    model = parse_model(text)
    errs = [d for d in validate_model(model) if d.severity == "error"]
    assert errs == [], errs
    return elaborate(model)


def test_desk_bundle_validates(desk):
    ts = build(desk.model_text)
    assert "Mode" in ts.index
    assert ts.var("Mode").domain.symbols == (
        "Startup", "Normal", "FallbackA", "FallbackB", "FallbackC", "SafeStop"
    )


def test_full_bundle_validates(full):
    build(full.model_text)


def test_axis_count_by_hand():
    """Independent count: power + ecu + bus + directed pairs minus the
    excluded cross-channel peripheral pairs."""
    for cfg in (VcsConfig.desk(), VcsConfig.full()):
        n = cfg.n_ecus
        perip_a = len([k for k in range(3, n + 1) if k % 2 == 1])
        perip_b = len([k for k in range(3, n + 1) if k % 2 == 0])
        expected_p2p = n * (n - 1) - 2 * perip_a * perip_b
        expected = 2 + n + cfg.n_buses + expected_p2p
        assert len(axis_entries(cfg)) == expected


def test_full_catalog_has_42_axes(full, tmp_path):
    paths = full.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    assert len(catalog.axes) == 42


def test_catalog_variables_resolve_in_template(desk):
    ts = build(desk.model_text)
    for e in axis_entries(desk.config):
        assert e.variable in ts.index


def test_matrix_dimension_matches_catalog(full, tmp_path):
    paths = full.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    assert len(matrix.ids) == 42
    assert matrix.target(1, 2) == "FATAL"  # both power supplies
    assert matrix.target(2, 1) == "FATAL"
    assert matrix.target(1, 1) == "FallbackC"


def test_runup_reaches_normal_exactly(desk, full):
    for bundle in (desk, full):
        ts = build(bundle.model_text)
        trace = simulate(ts, 70)
        modes = [s["Mode"] for s in trace]
        assert modes[15] == "Normal"
        assert all(m != "Normal" for m in modes[1:15])
        assert all(m == "Normal" for m in modes[15:])


def test_mode_indicators_exactly_one(desk):
    ts = build(desk.model_text)
    f = parse_ltl("G[0,70] mode_exactly_one", ts)
    verdict = check_bounded(CheckTask(ts, f, bound_k=70))
    assert isinstance(verdict, NoCounterexampleWithinBound)
    assert verdict.all_paths_decided


def test_debounce_exactness(desk, tmp_path):
    """A dropout shorter than the debounce window never latches; one of
    exactly debounce length latches at the debounce-th step after onset."""
    paths = desk.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    specs = parse_spec_file(paths["specs"])
    com_axis = next(i + 1 for i, e in enumerate(catalog.axes) if e.kind == "p2p")
    plan = plan_batch(catalog, matrix, specs, (com_axis, com_axis, com_axis, com_axis))
    inst = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), specs)
    ts = elaborate(parse_model(inst.source))
    var = plan.tasks[0].axis_a.variable          # f_com_i_j
    latch = "bus.cf_" + var[len("f_com_"):]      # matching comm-failure latch
    onset = 20

    # two-cycle dropout: 20, 21 active, released at 22
    script = {(onset, var): True, (onset + 2, var): False}
    trace = simulate(ts, 45, scripted_chooser(script))
    assert all(not s[latch] for s in trace)

    # three-cycle dropout: latch rises exactly at onset + 3
    script = {(onset, var): True, (onset + 3, var): False}
    trace = simulate(ts, 45, scripted_chooser(script))
    first = next(i for i, s in enumerate(trace) if s[latch])
    assert first == onset + 3
    assert all(s[latch] for s in trace.states[first:])  # latched for good


def test_composite_indicators_one_step_delayed(desk, tmp_path):
    paths = desk.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    specs = parse_spec_file(paths["specs"])
    plan = plan_batch(catalog, matrix, specs, (1, 2, 1, 2))  # power pair (FATAL)
    inst = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), specs)
    ts = elaborate(parse_model(inst.source))
    script = {(16, "f_pwr_a"): True, (20, "f_pwr_b"): True}
    trace = simulate(ts, 45, scripted_chooser(script))
    for t in range(len(trace) - 1):
        expect = trace[t]["f_pwr_a"] and trace[t]["f_pwr_b"]
        assert trace[t + 1]["comp_dual_pwr"] == expect
    assert any(s["comp_dual_pwr"] for s in trace)
    assert trace[0]["comp_dual_pwr"] is False


def test_safestop_on_dual_power_and_terminal(desk, tmp_path):
    paths = desk.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    specs = parse_spec_file(paths["specs"])
    plan = plan_batch(catalog, matrix, specs, (1, 2, 1, 2))
    inst = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), specs)
    ts = elaborate(parse_model(inst.source))
    script = {(16, "f_pwr_a"): True, (18, "f_pwr_b"): True}
    trace = simulate(ts, 45, scripted_chooser(script))
    modes = [s["Mode"] for s in trace]
    first = modes.index("SafeStop")
    assert first >= 18
    assert all(m == "SafeStop" for m in modes[first:])


def test_mutant_differs_only_in_cascade_arms():
    base = generate_vcs_model(VcsConfig.desk()).model_text
    swapped = generate_vcs_model(
        VcsConfig.desk(mutant="swapped-fallback-priority")
    ).model_text
    a, b = parse_model(base), parse_model(swapped)
    assert len(a.modules) == len(b.modules)
    for ma, mb in zip(a.modules, b.modules):
        if ma.name != "main":
            assert ma == mb
            continue
        assert ma.vars == mb.vars
        assert ma.defines == mb.defines
        assert ma.instances == mb.instances
        diff = [(ra, rb) for ra, rb in zip(ma.assigns, mb.assigns) if ra != rb]
        assert len(diff) == 1
        ra, rb = diff[0]
        assert ra.target == "Mode" and ra.kind == "next"
        arms_a = list(ra.expr.arms)
        arms_b = list(rb.expr.arms)
        assert len(arms_a) == len(arms_b)
        swapped_positions = [i for i, (x, y) in enumerate(zip(arms_a, arms_b)) if x != y]
        assert len(swapped_positions) == 2
        i, j = swapped_positions
        assert arms_a[i] == arms_b[j] and arms_a[j] == arms_b[i]


def test_single_failure_reaches_target_with_deadline(desk, tmp_path):
    paths = desk.write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    specs = parse_spec_file(paths["specs"])
    cases = {"ecu": "FallbackA", "bus": "FallbackB", "power": "FallbackC"}
    for kind, mode in cases.items():
        axis = next(i + 1 for i, e in enumerate(catalog.axes) if e.kind == kind)
        plan = plan_batch(catalog, matrix, specs, (axis, axis, axis, axis))
        assert plan.tasks[0].target == mode
        inst = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), specs)
        ts = elaborate(parse_model(inst.source))
        var = plan.tasks[0].axis_a.variable
        trace = simulate(ts, 45, scripted_chooser({(20, var): True}))
        modes = [s["Mode"] for s in trace]
        assert mode in modes[20: 21 + REACH_WINDOW], (kind, modes[18:32])


def test_config_validation():
    with pytest.raises(ValueError):
        VcsConfig(n_ecus=1)
    with pytest.raises(ValueError):
        VcsConfig(mutant="unknown")


def test_signal_rule_topology():
    cfg = VcsConfig.full()
    sig = signals(cfg)
    assert len(sig) == 30
    for i, j in sig:
        both_peripheral = i >= 3 and j >= 3
        assert not (both_peripheral and channel_of(i) != channel_of(j))
    # masters exchange both ways
    assert (1, 2) in sig and (2, 1) in sig
