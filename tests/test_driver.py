import gc
import itertools
import json
import os
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from fsmcheck.checker import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound, check_bounded,
)
from fsmcheck.checker import deps
from fsmcheck.checker.core import TimeoutBudget, state_graph
from fsmcheck.checker.deps import sequential_constants
from fsmcheck.driver import (
    CatalogError, FailureEntry, InstantiationError, MatrixError, PlannedTask,
    PlanRangeError, SpecFileError, injection_assertions, instance_system,
    instantiate_model, load_failure_catalog, load_spec_catalog,
    load_target_matrix, parse_spec_file, plan_batch, report_to_obj, run_batch,
    write_report,
)
from fsmcheck.driver.inject import spec_formulas
from fsmcheck.driver import runner
from fsmcheck.lang import parse_model, validate_model
from fsmcheck.ltl import PrefixVerdict, parse_ltl
from fsmcheck.semantics import Trace, elaborate, format_fexpr, simulate
from fsmcheck.semantics.exec import eval_fexpr, step_kernel, step_memo
from fsmcheck.vcs.generate import VcsConfig, generate_vcs_model

from helpers import FIXTURES, Forgetful, scripted_chooser


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
        model_id="small", specs=(),
    )


def test_flat_builder_small_model_builds():
    ts = instance_system(elaborate(parse_model(SMALL)), small_task("f_a", "f_b"), (15, 40))
    assert ts.names()[-2:] == ["f_a_occurred", "f_b_occurred"]


@pytest.mark.parametrize("variables, window, match", [
    (("f_a",), (20, 10), "bad injection window"),
    (("f_a", "f_b"), (20, 20), "too small for an ordered pair"),
    (("f_a",), (-5, 3), r"bad injection window \[-5, 3\]"),
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


def test_instance_steps_once_per_guard_region(desk, desk6):
    # the injection guards read Step + 1 against 15, 39 and 40 (axis a) and
    # 16 and 40 (axis b): six regions of depths, one kernel signature each
    catalog, matrix, specs = desk6
    task = plan_batch(catalog, matrix, specs, (3, 5, 3, 5)).tasks[0]
    assert task.scenario == "double"
    ts = instance_system(elaborate(parse_model(desk.model_text)), task, (15, 40))
    graph = state_graph(ts)
    assert graph.clock.name == "Step"
    assert graph.clock.values == tuple(range(72)) + (71,)
    regions = [list(group) for _, group in itertools.groupby(range(72), graph.signature)]
    assert [(r[0], r[-1]) for r in regions] == [
        (0, 13), (14, 14), (15, 37), (38, 38), (39, 39), (40, 71)]
    assert len({graph.signature(r[0]) for r in regions}) == 6


def _bundle_plan(config, selector, tmp_path):
    """The elaborated template of a generated bundle and the plan of
    selector over it, or of whole rows (r1, r2) over every column."""
    paths = generate_vcs_model(config).write(tmp_path)
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    if isinstance(selector, tuple) and len(selector) == 2:
        selector = (selector[0], 1, selector[1], len(catalog.axes))
    plan = plan_batch(catalog, matrix, parse_spec_file(paths["specs"]), selector, bound=70)
    assert len(plan.tasks) >= len(catalog.axes)
    return elaborate(parse_model(paths["model"].read_text())), plan


@pytest.mark.parametrize("config, rows", [(VcsConfig.desk, (1, 3)), (VcsConfig.full, (17, 17))])
def test_compiled_signature_keys_match_the_tree_walker(config, rows, tmp_path):
    # every instance of the rows, every depth up to the bound
    template, plan = _bundle_plan(config(), rows, tmp_path)
    for task in plan.tasks:
        graph = state_graph(instance_system(template, task, (15, 40)))
        for depth in range(plan.bound + 1):
            probe = [None] * len(graph.sliced.system.variables)
            probe[graph.clock.index] = graph.clock.at(depth)
            want = tuple(eval_fexpr(e, probe) for e in graph._inputs)
            key = graph._keys[graph.signature(depth)]
            assert (key, [type(v) for v in key]) == (want, [type(v) for v in want]), \
                (task.model_id, depth)


@pytest.mark.parametrize("config, selector", [
    (VcsConfig.desk(), "full"),
    (VcsConfig.desk(mutant="swapped-fallback-priority"), "full"),
    (VcsConfig.full(), (1, 3)),
], ids=["desk", "mutant-desk", "full-rows-1-3"])
def test_instance_constants_derive_from_the_template(config, selector, tmp_path, monkeypatch):
    # every instance, with the template's constants computed first: none
    # computes a fixpoint from scratch, and each gets the one it would
    template, plan = _bundle_plan(config, selector, tmp_path)
    assert sequential_constants(template)
    scratch = deps._fixpoint
    monkeypatch.setattr(deps, "_fixpoint", lambda ts: pytest.fail("a fixpoint from scratch"))
    for task in plan.tasks:
        ts = instance_system(template, task, (15, 40))
        assert sequential_constants(ts) == scratch(ts)[0], task.model_id


@pytest.mark.parametrize("config, rows", [(VcsConfig.desk, (1, 3)), (VcsConfig.full, (17, 17))])
def test_repeated_levels_of_instances_equal_a_memo_free_rebuild(config, rows, tmp_path):
    template, plan = _bundle_plan(config(), rows, tmp_path)
    budget = TimeoutBudget(None)
    reused = 0
    for task in plan.tasks:
        graph = state_graph(instance_system(template, task, (15, 40)))
        fresh = state_graph(instance_system(template, task, (15, 40)))
        fresh._after = Forgetful()
        levels = [graph.level(depth, budget) for depth in range(plan.bound + 1)]
        assert levels == [fresh.level(depth, budget) for depth in range(plan.bound + 1)], \
            task.model_id
        reused += len(levels) - len(set(map(id, levels)))
    assert reused > len(plan.tasks)


def test_an_instance_shares_the_templates_step_memo(desk, desk6):
    catalog, matrix, specs = desk6
    task = plan_batch(catalog, matrix, specs, (3, 5, 3, 5)).tasks[0]
    template = elaborate(parse_model(desk.model_text))
    ts = instance_system(template, task, (15, 40))
    assert ts.base is template
    shared = [i for i, v in enumerate(template.variables) if ts.variables[i] is v]
    replaced = [i for i in range(len(template.variables)) if i not in shared]
    assert [ts.variables[i].name for i in replaced] == [task.axis_a.variable, task.axis_b.variable]
    memo, base = step_memo(ts), step_memo(template)
    assert len(memo) == len(template.variables) + 2
    assert all(memo[i] is base[i] for i in shared)
    assert not any(memo[i] is entry for i in replaced + [-2, -1] for entry in base)
    # a replay of one instance fills the memo every other instance reads
    simulate(ts, 20)
    other = instance_system(template, plan_batch(catalog, matrix, specs, (4, 6, 4, 6)).tasks[0],
                            (15, 40))
    assert step_memo(other)[shared[0]][1] and step_memo(other)[shared[0]] is base[shared[0]]


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
    monkeypatch.setattr(runner, "check_job", lambda *job: dispatched.append(job))
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


# --- a job's instance ---------------------------------------------------------


def _without_timing(report):
    return [replace(t, wall_time=0.0, specs=tuple(replace(s, elapsed=0.0) for s in t.specs))
            for t in report.tasks]


def test_run_batch_builds_each_instance_once(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (6, 3, 6, 3), bound=70)
    assert [len(t.specs) for t in plan.tasks] == [6]
    template = elaborate(parse_model(desk.model_text))
    built = []

    def counted(*args):
        built.append(args[1].model_id)
        return instance_system(*args)

    monkeypatch.setattr(runner, "instance_system", counted)
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    assert built == ["pair_06_03"]
    monkeypatch.undo()
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    assert _without_timing(one) == _without_timing(two)
    assert {s.verdict for s in one.tasks[0].specs} == {"PASS"}


def test_run_batch_compiles_one_kernel_per_instance(desk6, tmp_path, monkeypatch):
    # replay steps the filed traces without a kernel of its own
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (6, 3, 6, 4), bound=70)
    template = elaborate(parse_model(
        generate_vcs_model(VcsConfig.desk(mutant="swapped-fallback-priority")).model_text))
    compiled = []

    def counted(ts, *args):
        compiled.append(ts.source_name)
        return step_kernel(ts, *args)

    monkeypatch.setattr("fsmcheck.semantics.exec.step_kernel", counted)
    monkeypatch.setattr("fsmcheck.checker.core.step_kernel", counted)
    report = run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=1)
    filed = {(t.row, t.col) for t in report.tasks for s in t.specs if s.trace_path}
    assert filed == {(6, 3), (6, 4)}
    assert len(compiled) == len(report.tasks) == 2


def test_run_batch_drops_the_last_instance_of_another_template(desk, desk6, tmp_path):
    # the same task on the mutant, then on the clean template, in one process
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (6, 3, 6, 3), bound=70)
    mutant = elaborate(parse_model(
        generate_vcs_model(VcsConfig.desk(mutant="swapped-fallback-priority")).model_text))
    clean = elaborate(parse_model(desk.model_text))
    violated = run_batch(plan, mutant, specs, out_dir=tmp_path / "mutant", workers=1)
    assert "VIOLATED" in {s.verdict for s in violated.tasks[0].specs}
    fresh = run_batch(plan, clean, specs, out_dir=tmp_path / "clean", workers=1)
    assert {s.verdict for s in fresh.tasks[0].specs} == {"PASS"}


@pytest.fixture(scope="module")
def mutant_band(tmp_path_factory):
    """The mutant desk bundle's model text, its spec catalog and the plan of
    cells (7,3) and (7,4), where about a third of the units violate."""
    paths = generate_vcs_model(VcsConfig.desk(mutant="swapped-fallback-priority")).write(
        tmp_path_factory.mktemp("mutant"))
    catalog = load_failure_catalog(paths["failures"])
    matrix = load_target_matrix(paths["matrix"], catalog)
    specs = parse_spec_file(paths["specs"])
    plan = plan_batch(catalog, matrix, specs, (7, 3, 7, 4), bound=70)
    return paths["model"].read_text(), specs, plan


def _band_report(mutant_band, out, **kw):
    model_text, specs, plan = mutant_band
    return run_batch(plan, elaborate(parse_model(model_text)), specs, out_dir=out, **kw)


def test_a_batch_keeps_no_instance_after_it_returns(mutant_band, tmp_path, monkeypatch):
    built = []

    def recorded(*args):
        ts = instance_system(*args)
        built.append(weakref.ref(ts))
        return ts

    monkeypatch.setattr(runner, "instance_system", recorded)
    report = _band_report(mutant_band, tmp_path, workers=1)
    assert "VIOLATED" in {s.verdict for t in report.tasks for s in t.specs}
    assert list(tmp_path.rglob("*.trace"))
    gc.collect()
    assert len(built) == len(report.tasks)
    assert [ref() for ref in built] == [None] * len(built)


# --- the details of non-PASS units --------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_a_unit_out_of_budget_is_a_timeout(mutant_band, workers, tmp_path):
    report = _band_report(mutant_band, tmp_path, workers=workers, timeout=1e-9)
    units = [s for t in report.tasks for s in t.specs]
    assert len(units) == sum(len(t.specs) for t in mutant_band[2].tasks)
    for s in units:
        assert s.verdict == "TIMEOUT" and s.detail.startswith("budget exhausted after "), s


@pytest.mark.parametrize("workers", [1, 2])
def test_a_counterexample_that_fails_replay_is_an_error(mutant_band, workers, tmp_path,
                                                          monkeypatch):
    want = _without_timing(_band_report(mutant_band, tmp_path / "w1", workers=1))
    violated = {(t.model_id, s.name) for t in want for s in t.specs if s.verdict == "VIOLATED"}
    assert violated
    monkeypatch.setattr(runner, "replay_counterexample",
                        lambda *args: PrefixVerdict.INCONCLUSIVE)
    got = _without_timing(_band_report(mutant_band, tmp_path / "out", workers=workers))
    for fresh, task in zip(want, got, strict=True):
        for s, g in zip(fresh.specs, task.specs, strict=True):
            if (task.model_id, s.name) in violated:
                s = replace(s, verdict="ERROR", violation_step=None, trace_path=None,
                            detail="counterexample failed replay: inconclusive")
            assert g == s
    assert not list((tmp_path / "out").rglob("*.trace"))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_counterexample_off_the_transition_relation_is_an_error(mutant_band, workers,
                                                                  tmp_path, monkeypatch):
    # a faulty checker's counterexample that skips the step after the initial state
    want = _without_timing(_band_report(mutant_band, tmp_path / "w1", workers=1))
    violated = {(t.model_id, s.name) for t in want for s in t.specs if s.verdict == "VIOLATED"}
    assert violated

    def forged(task):
        found = check_bounded(task)
        if isinstance(found, Counterexample):
            states = found.trace.states
            found = replace(found, trace=Trace(states[:1] + states[2:]))
        return found

    monkeypatch.setattr(runner, "check_bounded", forged)
    got = _without_timing(_band_report(mutant_band, tmp_path / "out", workers=workers))
    for fresh, task in zip(want, got, strict=True):
        for s, g in zip(fresh.specs, task.specs, strict=True):
            if (task.model_id, s.name) in violated:
                s = replace(s, verdict="ERROR", violation_step=None, trace_path=None,
                            detail="counterexample failed replay: "
                                   "states 0 -> 1 are not in the transition relation")
            assert g == s
    assert not list((tmp_path / "out").rglob("*.trace"))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_model_error_names_its_step(mutant_band, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "check_bounded", lambda task: ModelError(3, "boom"))
    report = _band_report(mutant_band, tmp_path, workers=workers)
    units = [s for t in report.tasks for s in t.specs]
    assert units and all(
        (s.verdict, s.detail) == ("ERROR", "model error at step 3: boom") for s in units)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_instance_that_cannot_be_built_errs_its_units(mutant_band, workers, tmp_path,
                                                          monkeypatch):
    want = _without_timing(_band_report(mutant_band, tmp_path / "w1", workers=1))
    doomed = want[0].model_id

    def refused(template, task, window):
        if task.model_id == doomed:
            raise ValueError(f"no instance of {task.model_id}")
        return instance_system(template, task, window)

    monkeypatch.setattr(runner, "instance_system", refused)
    got = _without_timing(_band_report(mutant_band, tmp_path / "out", workers=workers))
    assert got[1:] == want[1:]
    assert got[0].model_id == doomed and len(got[0].specs) == len(want[0].specs)
    for s in got[0].specs:
        assert (s.verdict, s.detail) == ("ERROR", f"ValueError: no instance of {doomed}"), s


# --- dispatch to two workers ---------------------------------------------------


def test_unit_jobs_keep_each_task_on_one_worker(desk6):
    catalog, matrix, specs = desk6
    one = plan_batch(catalog, matrix, specs, (6, 3, 6, 3), bound=70).tasks
    assert runner.unit_jobs(one) == [range(0, 6)]
    many = sorted(plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70).tasks,
                  key=lambda t: t.sort_key)
    assert len(many) > 2
    jobs = runner.unit_jobs(many)
    assert [len(j) for j in jobs] == [len(t.specs) for t in many]
    assert [j.start for j in jobs[1:]] == [j.stop for j in jobs[:-1]]


def _logging_instance_system(log: Path, crash_on: str = ""):
    """instance_system, writing the process id and the model id of each
    instance it builds to log; the forked workers inherit it. It ends its
    process when it builds crash_on."""
    def built(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {args[1].model_id}\n")
        if args[1].model_id == crash_on:
            os._exit(1)
        return instance_system(*args)
    return built


def _builds(log: Path) -> dict[int, list[str]]:
    """The model ids each process built, in the order it built them."""
    builds: dict[int, list[str]] = {}
    for line in log.read_text().splitlines():
        pid, model_id = line.split()
        builds.setdefault(int(pid), []).append(model_id)
    return builds


def test_a_crash_costs_only_the_unit_it_ran(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    # the first of two workers has the first and the third task as its
    # share. It dies in the first task's fifth spec, before the sixth and
    # before the third task.
    first = sorted(plan.tasks, key=lambda t: t.sort_key)[0]
    name, doomed = spec_formulas(first, (15, 40), specs)[4]
    assert [f for t in plan.tasks for _, f in spec_formulas(t, (15, 40), specs)].count(doomed) == 1

    def parse(text, ts):
        if text == doomed:
            os._exit(1)
        return parse_ltl(text, ts)

    monkeypatch.setattr(runner, "parse_ltl", parse)
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    for fresh, task in zip(_without_timing(one), _without_timing(two)):
        for want, got in zip(fresh.specs, task.specs, strict=True):
            if (task.model_id, got.name) == (first.model_id, name):
                assert got == replace(want, verdict="ERROR", detail="worker crashed: exit status 1")
            else:
                assert got == want
        assert replace(task, specs=()) == replace(fresh, specs=())


def test_the_coordinator_writes_nothing_to_a_worker(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    coordinator, write = os.getpid(), os.write

    def refused(fd, data):
        if os.getpid() == coordinator:
            raise AssertionError("the coordinator wrote to a file descriptor")
        return write(fd, data)

    monkeypatch.setattr(os, "write", refused)
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    assert _without_timing(one) == _without_timing(two)


@pytest.mark.parametrize("crash", [None, (0, 4), (2, 3)],
                         ids=["none", "first-task-fifth-spec", "last-unit-of-a-share"])
def test_each_worker_runs_its_share_and_one_fresh_worker_resumes_it(crash, desk, desk6,
                                                                     tmp_path, monkeypatch):
    # four tasks on two workers: shares (0, 2) and (1, 3). A crash at
    # (task, spec) ends its worker before it checks that unit.
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    tasks = sorted(plan.tasks, key=lambda t: t.sort_key)
    ids = [t.model_id for t in tasks]
    assert len(tasks) == 4 and len(tasks[2].specs) == 4
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    doomed = crash and (ids[crash[0]], tasks[crash[0]].specs[crash[1]])
    check_job = runner.check_job

    def dying(template, units):
        def until_doomed():
            for unit in units:
                if (unit[0].model_id, unit[1]) == doomed:
                    os._exit(1)
                yield unit
        return check_job(template, until_doomed())

    log, forks, fork = tmp_path / "built", [], os.fork
    monkeypatch.setattr(runner, "instance_system", _logging_instance_system(log))
    monkeypatch.setattr(runner, "check_job", dying)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    shares = [[ids[0], ids[2]], [ids[1], ids[3]]]
    if crash == (0, 4):  # a fresh worker builds the first task again, then the third
        shares = [[ids[0]], [ids[0], ids[2]], [ids[1], ids[3]]]
    assert sorted(_builds(log).values()) == shares
    assert len(forks) == len(shares)
    for fresh, task in zip(_without_timing(one), _without_timing(two), strict=True):
        for want, got in zip(fresh.specs, task.specs, strict=True):
            if (task.model_id, got.name) == doomed:
                want = replace(want, verdict="ERROR", detail="worker crashed: exit status 1")
            assert got == want


@pytest.mark.parametrize("end", ["normal", "crash", "error"])
def test_a_pooled_batch_leaves_no_child(end, desk6, tmp_path, monkeypatch):
    # the mutant files traces; a regular file where a trace directory goes
    # makes the coordinator raise while the other worker still runs
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (6, 3, 6, 5), bound=70)
    template = elaborate(parse_model(
        generate_vcs_model(VcsConfig.desk(mutant="swapped-fallback-priority")).model_text))
    if end == "crash":
        monkeypatch.setattr(runner, "instance_system",
                            _logging_instance_system(tmp_path / "built", crash_on="pair_06_04"))
    if end == "error":
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "pair_06_03").write_text("")
        with pytest.raises(FileExistsError):
            run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=2)
    else:
        report = run_batch(plan, template, specs, out_dir=tmp_path / "out", workers=2)
        crashed = {t.model_id for t in report.tasks for s in t.specs if s.verdict == "ERROR"}
        assert crashed == ({"pair_06_04"} if end == "crash" else set())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_workers_build_each_instance_once(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    log = tmp_path / "built"
    monkeypatch.setattr(runner, "instance_system", _logging_instance_system(log))
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    assert sorted(sum(_builds(log).values(), [])) == sorted(t.model_id for t in plan.tasks)
    assert _without_timing(one) == _without_timing(two)


class _Unpicklable(str):
    def __reduce__(self):
        raise TypeError("a unit was pickled")


def test_forked_workers_inherit_the_units(desk, desk6, tmp_path, monkeypatch):
    # a job goes out as its range of unit indices, never as pickled units
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    monkeypatch.setattr(runner, "spec_formulas", lambda *args: [
        (name, _Unpicklable(formula)) for name, formula in spec_formulas(*args)])
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    assert _without_timing(one) == _without_timing(two)


def test_forked_workers_inherit_the_templates_analysis(desk, desk6, tmp_path, monkeypatch):
    # the coordinator computes the template's constants before the fork:
    # a worker that computed any fixpoint from scratch would file an ERROR
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    one = run_batch(plan, elaborate(parse_model(desk.model_text)), specs,
                    out_dir=tmp_path / "w1", workers=1)
    coordinator, scratch = os.getpid(), deps._fixpoint

    def here_only(ts):
        if os.getpid() != coordinator:
            raise AssertionError("a worker computed a fixpoint from scratch")
        return scratch(ts)

    monkeypatch.setattr(deps, "_fixpoint", here_only)
    two = run_batch(plan, elaborate(parse_model(desk.model_text)), specs,
                    out_dir=tmp_path / "w2", workers=2)
    assert _without_timing(one) == _without_timing(two)


def test_a_crashed_worker_spares_the_tasks_of_the_other(desk, desk6, tmp_path, monkeypatch):
    catalog, matrix, specs = desk6
    plan = plan_batch(catalog, matrix, specs, (1, 1, 2, 2), bound=70)
    template = elaborate(parse_model(desk.model_text))
    one = run_batch(plan, template, specs, out_dir=tmp_path / "w1", workers=1)
    doomed = one.tasks[1].model_id
    monkeypatch.setattr(runner, "instance_system",
                        _logging_instance_system(tmp_path / "built", crash_on=doomed))
    two = run_batch(plan, template, specs, out_dir=tmp_path / "w2", workers=2)
    for fresh, task in zip(_without_timing(one), _without_timing(two)):
        if task.model_id == doomed:
            assert all(s.verdict == "ERROR" and s.detail.startswith("worker crashed: ")
                       for s in task.specs), task
        else:
            assert task == fresh
