import json
import os
from pathlib import Path

import pytest

from fsmcheck.checker import CheckTask, NoCounterexampleWithinBound, check_bounded
from fsmcheck.driver import (
    CatalogError, FailureEntry, InstantiationError, MatrixError, PlannedTask,
    PlanRangeError, SpecFileError, injection_assertions, instance_system,
    instantiate_model, load_failure_catalog, load_spec_catalog,
    load_target_matrix, parse_spec_file, plan_batch, report_to_obj, run_batch,
    write_report,
)
from fsmcheck.driver import runner
from fsmcheck.lang import parse_model, validate_model
from fsmcheck.ltl import parse_ltl
from fsmcheck.semantics import elaborate, format_fexpr, scripted_chooser, simulate
from fsmcheck.vcs import VcsConfig, generate_vcs_model

from helpers import FIXTURES


@pytest.fixture(scope="module")
def desk():
    return generate_vcs_model(VcsConfig.desk())


@pytest.fixture(scope="module")
def desk6(tmp_path_factory, desk):
    """Desk template driven by the small hand-written 6-axis catalog."""
    catalog = load_failure_catalog(FIXTURES / "failures6.csv")
    matrix = load_target_matrix(FIXTURES / "target_modes6.csv", catalog)
    tmp = tmp_path_factory.mktemp("desk6")
    (tmp / "specs.ltl").write_text(desk.specs_text)
    specs = parse_spec_file(tmp / "specs.ltl")
    return catalog, matrix, specs


# --- loaders ----------------------------------------------------------------


def test_load_desk_catalog_entries(desk, tmp_path):
    path = tmp_path / "failures.csv"
    path.write_text(desk.failures_text)
    catalog = load_failure_catalog(path)
    assert len(catalog.axes) == 17
    assert catalog.axes[0].variable == "f_pwr_a"
    assert all(e.kind in ("power", "ecu", "bus", "p2p") for e in catalog.entries)


def test_load_catalog_six_axes():
    catalog = load_failure_catalog(FIXTURES / "failures6.csv")
    assert len(catalog.axes) == 6


def test_composites_excluded_from_axes(tmp_path):
    path = tmp_path / "failures.csv"
    path.write_text(
        "index,id,variable,kind\n"
        "1,ecu1_outage,f_ecu_1,ecu\n"
        "2,dual_power,comp_dual_pwr,composite\n"
        "3,bus1_outage,f_bus_1,bus\n"
    )
    catalog = load_failure_catalog(path)
    assert len(catalog.entries) == 3
    assert [e.id for e in catalog.axes] == ["ecu1_outage", "bus1_outage"]


def test_empty_catalog(tmp_path):
    path = tmp_path / "failures.csv"
    path.write_text("index,id,variable,kind\n")
    with pytest.raises(CatalogError, match="empty"):
        load_failure_catalog(path)


def test_catalog_bad_index(tmp_path):
    path = tmp_path / "failures.csv"
    path.write_text("index,id,variable,kind\n1,a,va,ecu\n3,b,vb,ecu\n")
    with pytest.raises(CatalogError, match="contiguous"):
        load_failure_catalog(path)


def test_matrix_dimension_mismatch(tmp_path):
    catalog = load_failure_catalog(FIXTURES / "failures6.csv")
    rows = (FIXTURES / "target_modes6.csv").read_text().splitlines()
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows[:-1]) + "\n")  # 5 rows for 6 axes
    with pytest.raises(MatrixError, match="dimension"):
        load_target_matrix(path, catalog)


def test_matrix_unknown_mode(tmp_path):
    catalog = load_failure_catalog(FIXTURES / "failures6.csv")
    text = (FIXTURES / "target_modes6.csv").read_text().replace("FallbackC", "Sideways")
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixError, match="unknown mode"):
        load_target_matrix(path, catalog, modes={"FallbackA", "FallbackB", "FATAL"})


def test_matrix_fatal_cells_accepted(desk6):
    catalog, matrix, _ = desk6
    assert matrix.target(1, 2) == "FATAL"
    assert matrix.target(1, 1) == "FallbackC"


def test_spec_file_placeholder_rules(tmp_path):
    path = tmp_path / "specs.ltl"
    path.write_text(
        "[spec bad]\napplicability: single\nformula: F[0,5] {{FAIL_B}}\n"
    )
    with pytest.raises(SpecFileError, match="FAIL_B"):
        parse_spec_file(path)


def test_spec_catalog_probe_and_warning(desk, tmp_path):
    bundle_dir = tmp_path / "bundle"
    paths = desk.write(bundle_dir)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    structural = parse_spec_file(paths["specs"])
    plan = plan_batch(catalog, matrix, structural, (1, 3, 1, 3), bound=70)
    probe = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), structural)
    probe_ts = elaborate(parse_model(probe.source))
    specs = load_spec_catalog(structural, probe_ts, {
        "FAIL_A": "f_pwr_a", "FAIL_B": "f_ecu_1",
        "TARGET_MODE": "FallbackA", "WINDOW_LO": "15", "WINDOW_HI": "40",
    })
    assert len(specs.entries) >= 10
    kinds = {e.applicability for e in specs.entries}
    assert kinds == {"none", "single", "double", "all"}
    assert any("safestop_terminal_unbounded" in w for w in specs.warnings)


def test_paper_style_past_spec_loads(desk6, desk):
    catalog, matrix, structural = desk6
    plan = plan_batch(catalog, matrix, structural, (1, 3, 1, 3), bound=70)
    probe = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), structural)
    probe_ts = elaborate(parse_model(probe.source))
    f = parse_ltl("G !(O op_fallbacka & O op_fallbackb)", probe_ts)
    assert f is not None


# --- planning ----------------------------------------------------------------


def test_full_plan_cardinality(desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, "full", bound=70)
    assert len(plan) == 6 + 6 * 6  # 42 tasks
    singles = [t for t in plan.tasks if t.col == 0]
    assert len(singles) == 6


def test_range_plan_cardinality(desk6):
    catalog, matrix, specs = desk6
    assert len(plan_batch(catalog, matrix, specs, (1, 1, 2, 2))) == 4
    assert len(plan_batch(catalog, matrix, specs, (3, 5, 3, 5))) == 1
    plan = plan_batch(catalog, matrix, specs, (3, 5, 3, 5))
    assert plan.tasks[0].model_id == "pair_03_05"


def test_range_out_of_bounds(desk6):
    catalog, matrix, specs = desk6
    with pytest.raises(PlanRangeError):
        plan_batch(catalog, matrix, specs, (1, 1, 7, 2))


def test_diagonal_plans_as_single(desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (3, 3, 3, 3))
    task = plan.tasks[0]
    assert task.scenario == "single"
    assert task.axis_b is None
    assert task.target == "FallbackA"


def test_fatal_cell_skips_target_specs(desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 2, 1, 2))
    task = plan.tasks[0]
    assert task.fatal and task.target is None
    assert task.specs  # the general subset still runs
    for name in task.specs:
        assert not specs.get(name).needs_target_mode


# --- instantiation -----------------------------------------------------------


def build_text(template: str, task, window, specs):
    """The reference: splice the instance text, then parse and elaborate it."""
    return elaborate(parse_model(instantiate_model(template, task, window, specs).source))


def build_flat(template: str, task, window, specs):
    return instance_system(elaborate(parse_model(template)), task, window)


BUILDERS = (build_text, build_flat)


def by_name(ts):
    """A system's variables (domain, init, next) and defines, keyed by name."""
    def fmt(e):
        return None if e is None else format_fexpr(e)
    variables = {v.name: (str(v.domain), fmt(v.init), fmt(v.next)) for v in ts.variables}
    return variables, {name: fmt(e) for name, e in ts.defines.items()}


def test_flat_instance_equals_text_instance(desk, desk6):
    catalog, matrix, specs = desk6
    template = elaborate(parse_model(desk.model_text))
    for task in plan_batch(catalog, matrix, specs, "full").tasks:
        flat = instance_system(template, task, (15, 40))
        text = build_text(desk.model_text, task, (15, 40), specs)
        assert by_name(flat) == by_name(text), task.model_id
        # the latches go after the template's variables
        assert flat.names()[: len(template.variables)] == template.names()


SMALL = """MODULE main
VAR
  Step : 0..50;
  f_a : boolean;
  f_b : boolean;
ASSIGN
  init(Step) := 0;
  next(Step) := case Step = 50 : Step; TRUE : Step + 1; esac;
  init(f_a) := FALSE;
  next(f_a) := FALSE;
  init(f_b) := FALSE;
  next(f_b) := FALSE;
"""


def small_task(*variables):
    """A single (one variable) or ordered-pair (two) task over SMALL's axes."""
    a, *b = [FailureEntry(i, f"axis_{v}", v, "ecu") for i, v in enumerate(variables, 1)]
    return PlannedTask(
        row=1, col=len(variables) - 1, scenario="double" if b else "single",
        axis_a=a, axis_b=b[0] if b else None, target=None, fatal=True,
        model_id="small", specs=(), bound=50,
    )


def test_flat_builder_small_model_builds():
    ts = instance_system(elaborate(parse_model(SMALL)), small_task("f_a", "f_b"), (15, 40))
    assert ts.names()[-2:] == ["f_a_occurred", "f_b_occurred"]


@pytest.mark.parametrize("variables, window, match", [
    (("f_a",), (20, 10), "bad injection window"),
    (("f_a", "f_b"), (20, 20), "too small for an ordered pair"),
])
def test_flat_builder_rejects_bad_window(variables, window, match):
    template = elaborate(parse_model(SMALL))
    with pytest.raises(InstantiationError, match=match):
        instance_system(template, small_task(*variables), window)


@pytest.mark.parametrize("axis, edits", [
    ("f_ghost", ()),
    ("f_b", (("f_b : boolean;", "f_b : 0..3;"), ("(f_b) := FALSE;", "(f_b) := 0;"))),
    ("f_b", (("init(f_b) := FALSE;", "init(f_b) := TRUE;"),)),
    ("f_b", (("next(f_b) := FALSE;", "next(f_b) := f_a;"),)),
], ids=["absent", "not-boolean", "init-not-pinned", "next-not-pinned"])
def test_flat_builder_rejects_unpinned_axis(axis, edits):
    text = SMALL
    for edit in edits:
        text = text.replace(*edit)
    template = elaborate(parse_model(text))
    with pytest.raises(InstantiationError, match="pinned FALSE"):
        instance_system(template, small_task("f_a", axis), (15, 40))


def test_flat_builder_rejects_template_without_step():
    text = SMALL.replace("Step", "Tick")
    with pytest.raises(InstantiationError, match="no Step"):
        instance_system(elaborate(parse_model(text)), small_task("f_a"), (15, 40))


@pytest.mark.parametrize("edit", [
    ("f_b : boolean;", "f_b : boolean;\n  f_a_occurred : boolean;"),
    ("ASSIGN", "DEFINE\n  f_a_occurred := f_b;\nASSIGN"),
], ids=["variable", "define"])
def test_flat_builder_rejects_taken_latch_name(edit):
    template = elaborate(parse_model(SMALL.replace(*edit)))
    with pytest.raises(InstantiationError, match="taken"):
        instance_system(template, small_task("f_a"), (15, 40))


def test_instance_parses_and_validates(desk, desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (3, 5, 3, 5))
    inst = instantiate_model(desk.model_text, plan.tasks[0], (15, 40), specs)
    model = parse_model(inst.source)
    assert [d for d in validate_model(model) if d.severity == "error"] == []
    assert "f_ecu_1_occurred" in inst.source
    assert "f_bus_1_occurred" in inst.source


def test_missing_injection_region(desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 1, 1))
    with pytest.raises(InstantiationError, match="injection region"):
        instantiate_model("MODULE main\nVAR x : boolean;\n", plan.tasks[0], (15, 40), specs)


def test_unresolved_failure_variable(desk, desk6):
    catalog, matrix, specs = desk6
    path_text = (FIXTURES / "failures6.csv").read_text().replace("f_ecu_1", "f_ghost")
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write(path_text)
    bad_catalog = load_failure_catalog(fh.name)
    plan = plan_batch(bad_catalog, load_target_matrix(FIXTURES / "target_modes6.csv", bad_catalog), specs, (3, 3, 3, 3))
    for build in BUILDERS:
        with pytest.raises(InstantiationError):
            build(desk.model_text, plan.tasks[0], (15, 40), specs)


def test_single_injection_window_respected(desk, desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (3, 3, 3, 3))
    for build in BUILDERS:
        ts = build(desk.model_text, plan.tasks[0], (15, 40), specs)
        # forced activation: by default choices the failure starts at the window end
        trace = simulate(ts, 45)
        onset = next(i for i, s in enumerate(trace) if s["f_ecu_1"])
        assert onset == 40, build.__name__
        # directed: start at 20 instead
        trace = simulate(ts, 45, scripted_chooser({(20, "f_ecu_1"): True}))
        onset = next(i for i, s in enumerate(trace) if s["f_ecu_1"])
        assert onset == 20, build.__name__
        assert all(not s["f_ecu_1"] for s in trace.states[:15])


def test_pair_overlap_scenarios(desk, desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (3, 5, 3, 5))
    va, vb = "f_ecu_1", "f_bus_1"
    for build in BUILDERS:
        ts = build(desk.model_text, plan.tasks[0], (15, 40), specs)
        # zero overlap: A active 16..17, gone before B starts at 25
        script = {(16, va): True, (18, va): False, (25, vb): True, (27, vb): False}
        trace = simulate(ts, 45, scripted_chooser(script))
        a_steps = {i for i, s in enumerate(trace) if s[va]}
        b_steps = {i for i, s in enumerate(trace) if s[vb]}
        assert a_steps == {16, 17} and b_steps == {25, 26}, build.__name__
        # full overlap: A active when B runs its whole activity
        script = {(16, va): True, (20, vb): True, (22, vb): False, (30, va): False}
        trace = simulate(ts, 45, scripted_chooser(script))
        a_steps = {i for i, s in enumerate(trace) if s[va]}
        b_steps = {i for i, s in enumerate(trace) if s[vb]}
        assert b_steps and b_steps <= a_steps, build.__name__
        assert min(a_steps) < min(b_steps)  # ordered starts


def test_injection_assumptions_hold(desk, desk6):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (3, 5, 3, 5))
    task = plan.tasks[0]
    for build in BUILDERS:
        ts = build(desk.model_text, task, (15, 40), specs)
        for name, text in injection_assertions(task, (15, 40), bound=70):
            f = parse_ltl(text, ts)
            verdict = check_bounded(CheckTask(ts, f, bound_k=70))
            assert isinstance(verdict, NoCounterexampleWithinBound), (build.__name__, name, verdict)


# --- batch execution ----------------------------------------------------------


def test_run_batch_small_and_report(desk, desk6, tmp_path):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    report = run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=1)
    assert len(report.tasks) == 4
    assert report.task_counts()["PASS"] == 4
    files = write_report(report, tmp_path / "out")
    obj = json.loads(files["json"].read_text())
    assert len(obj["tasks"]) == 4
    assert sum(obj["summary"]["tasks"].values()) == 4
    assert report.exit_code() == 0


def test_run_batch_mutant_violates(desk6, tmp_path):
    catalog, matrix, specs = desk6
    mutant = generate_vcs_model(VcsConfig.desk(mutant="swapped-fallback-priority"))
    # (comm, ecu) pair: the swapped cascade drives the wrong fallback
    plan = plan_batch(catalog, matrix, specs, (6, 3, 6, 3), bound=70)
    template = elaborate(parse_model(mutant.model_text))
    report = run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=1)
    violated = [s for t in report.tasks for s in t.specs if s.verdict == "VIOLATED"]
    assert violated
    assert report.exit_code() == 1
    for s in violated:
        assert s.trace_path is not None
        assert (tmp_path / "out" / s.trace_path).exists()
        assert 15 <= s.violation_step <= 70


def test_empty_plan_report(desk, desk6, tmp_path):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, "singles", bound=70)
    empty = plan_batch(catalog, matrix, specs, (1, 1, 1, 1), bound=70)
    from fsmcheck.driver.plan import BatchPlan

    zero = BatchPlan((), n_axes=6, bound=70)
    template = elaborate(parse_model(desk.model_text))
    report = run_batch(zero, template, specs, out_dir=tmp_path / "out", workers=1)
    assert report.tasks == []
    files = write_report(report, tmp_path / "out")
    assert "0 tasks" in files["text"].read_text()
    assert not [d for d in (tmp_path / "out").iterdir() if d.is_dir()]


def test_run_batch_rejects_before_dispatch(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    dispatched = []
    monkeypatch.setattr(runner, "check_unit", lambda *unit: dispatched.append(unit))
    template = elaborate(parse_model(desk.model_text))
    with pytest.raises(InstantiationError, match="too small"):
        run_batch(plan, template, specs, out_dir=tmp_path / "out", window=(20, 20))
    assert dispatched == []


def test_run_batch_reports_hard_worker_crash(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    # the pool forks its workers, so they inherit the patch and die in the check
    monkeypatch.setattr(runner, "check_bounded", lambda task: os._exit(1))
    template = elaborate(parse_model(desk.model_text))
    report = run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=2)
    planned = sorted(plan.tasks, key=lambda t: t.sort_key)
    assert [(t.row, t.col) for t in report.tasks] == [(t.row, t.col) for t in planned]
    for task, want in zip(report.tasks, planned):
        assert tuple(s.name for s in task.specs) == want.specs
        for s in task.specs:
            assert s.verdict == "ERROR" and s.detail.startswith("worker crashed: "), s
    assert report.exit_code() == 2
