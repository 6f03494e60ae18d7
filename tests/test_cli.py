import json
from pathlib import Path

import pytest

from fsmcheck.cli import main
from fsmcheck.driver import (
    load_failure_catalog, load_target_matrix, parse_spec_file, plan_batch,
)
from fsmcheck.vcs import VcsConfig, generate_vcs_model


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert main(["gen-vcs", "--out", str(out), "--desk"]) == 0
    return out


def test_gen_vcs_writes_four_files(bundle_dir):
    names = {p.name for p in bundle_dir.iterdir()}
    assert names == {"vcs.fsm", "failures.csv", "target_modes.csv", "specs.ltl"}


def test_simulate_cli(bundle_dir, capsys):
    code = main(["simulate", str(bundle_dir / "vcs.fsm"), "--steps", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 16" in out
    assert "Mode = Normal" in out.split("step 16")[1]


def test_simulate_seeded(bundle_dir, capsys):
    code = main(["simulate", str(bundle_dir / "vcs.fsm"), "--steps", "3", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("step ")] == [
        "step 0", "step 1", "step 2", "step 3"]


def test_check_pass_and_exit_codes(bundle_dir, capsys):
    code = main([
        "check", str(bundle_dir / "vcs.fsm"),
        "--prop", "startup_reaches_normal", "--specs", str(bundle_dir / "specs.ltl"),
        "--bound", "70",
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_check_formula_violation(bundle_dir, capsys, tmp_path):
    trace_file = tmp_path / "cex.trace"
    code = main([
        "check", str(bundle_dir / "vcs.fsm"),
        "--formula", "G[0,20] !(Mode = Normal)",
        "--bound", "20", "--trace-out", str(trace_file),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATED" in out and "step 15" in out
    assert trace_file.exists()


def test_check_print_deps(bundle_dir, capsys):
    code = main([
        "check", str(bundle_dir / "vcs.fsm"), "--print-deps",
        "--formula", "F[0,15] Mode = Normal", "--bound", "15",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "variable dependencies" in out
    # the template pins every failure axis FALSE
    assert "  f_pwr_a <- (none)  [constant FALSE]" in out.splitlines()
    mode = next(line for line in out.splitlines() if line.startswith("  Mode <- "))
    assert "constant" not in mode
    assert "sequential constants, left out before checking: " in out


def test_batch_cli_range(bundle_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "batch",
        "--template", str(bundle_dir / "vcs.fsm"),
        "--failures", str(bundle_dir / "failures.csv"),
        "--matrix", str(bundle_dir / "target_modes.csv"),
        "--specs", str(bundle_dir / "specs.ltl"),
        "--range", "1", "1", "2", "2",
        "--workers", "2", "--out", str(out_dir),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "planned 4 task(s)" in printed
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["tasks"]) == 4
    assert report["summary"]["tasks"]["PASS"] == 4


def test_batch_cli_mutant_exit_one(tmp_path):
    mutant_dir = tmp_path / "mutant"
    assert main(["gen-vcs", "--out", str(mutant_dir), "--desk",
                 "--mutant", "swapped-fallback-priority"]) == 0
    out_dir = tmp_path / "out"
    code = main([
        "batch",
        "--template", str(mutant_dir / "vcs.fsm"),
        "--failures", str(mutant_dir / "failures.csv"),
        "--matrix", str(mutant_dir / "target_modes.csv"),
        "--specs", str(mutant_dir / "specs.ltl"),
        "--range", "8", "3", "8", "3",
        "--out", str(out_dir),
    ])
    assert code == 1
    report = json.loads((out_dir / "report.json").read_text())
    assert report["summary"]["units"]["VIOLATED"] >= 1


TIMING_FIELDS = {"elapsed", "wall_time", "total_elapsed", "workers"}


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def test_batch_report_and_traces_independent_of_workers(bundle_dir, tmp_path):
    mutant_dir = tmp_path / "mutant"
    assert main(["gen-vcs", "--out", str(mutant_dir), "--desk",
                 "--mutant", "swapped-fallback-priority"]) == 0
    # the mutant pairs violate and file traces; desk 1 1 2 2 mixes diagonal
    # singles (6 specs) with FATAL pairs (4 specs)
    for bundle, cell_range, want_code in ((mutant_dir, "8 3 8 4", 1),
                                          (bundle_dir, "1 1 2 2", 0)):
        catalog = load_failure_catalog(bundle / "failures.csv")
        plan = plan_batch(catalog, load_target_matrix(bundle / "target_modes.csv", catalog),
                          parse_spec_file(bundle / "specs.ltl"),
                          tuple(map(int, cell_range.split())))
        planned = [(t.model_id, list(t.specs)) for t in plan.tasks]
        latches = {t.model_id: {f"{a.variable}_occurred" for a in (t.axis_a, t.axis_b) if a}
                   for t in plan.tasks}
        reports, traces = [], []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"{bundle.name}{workers}"
            code = main([
                "batch",
                "--template", str(bundle / "vcs.fsm"),
                "--failures", str(bundle / "failures.csv"),
                "--matrix", str(bundle / "target_modes.csv"),
                "--specs", str(bundle / "specs.ltl"),
                "--range", *cell_range.split(),
                "--workers", workers, "--out", str(out_dir),
            ])
            assert code == want_code
            report = json.loads((out_dir / "report.json").read_text())
            assert [(t["model_id"], [s["name"] for s in t["specs"]])
                    for t in report["tasks"]] == planned
            for t in report["tasks"]:
                for s in t["specs"]:
                    assert s["trace"] in (None, f"{t['model_id']}/{s['name']}.trace")
                    assert (s["trace"] is not None) == (s["verdict"] == "VIOLATED")
                    if s["trace"]:  # the trace comes from this task's instance
                        lines = (out_dir / s["trace"]).read_text().splitlines()
                        assert {line.split(" = ")[0] for line in lines
                                if "_occurred = " in line} == latches[t["model_id"]]
            reports.append(_without_timing(report))
            traces.append({str(f.relative_to(out_dir)): f.read_bytes()
                           for f in sorted(out_dir.rglob("*.trace"))})
        assert reports[0] == reports[1]
        assert traces[0] == traces[1]
        assert bool(traces[0]) == (want_code == 1)
    assert {len(specs) for _, specs in planned} == {4, 6}


def test_check_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("MODULE main VAR x : ;")
    code = main(["check", str(bad), "--formula", "TRUE"])
    assert code == 2


def test_input_errors_exit_two_without_traceback(bundle_dir, tmp_path, capsys):
    batch = [
        "batch",
        "--template", str(bundle_dir / "vcs.fsm"),
        "--failures", str(bundle_dir / "failures.csv"),
        "--matrix", str(bundle_dir / "target_modes.csv"),
        "--specs", str(bundle_dir / "specs.ltl"),
        "--out", str(tmp_path / "out"),
    ]
    for argv in (
        batch + ["--range", "1", "2", "1", "2", "--window", "20", "20"],  # InstantiationError
        batch + ["--range", "99", "1", "99", "1"],  # PlanRangeError
        ["check", str(bundle_dir / "vcs.fsm"), "--formula", "O (F Step > 3)"],  # PastEliminationError
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    model = str(bundle_dir / "vcs.fsm")
    band = batch + ["--range", "1", "1", "1", "1"]
    check = ["check", model, "--formula", "TRUE"]
    for argv, option, message in (
        (band + ["--bound", "-1"], "--bound", "must be >= 0"),
        (check + ["--bound", "-1"], "--bound", "must be >= 0"),
        (["simulate", model, "--steps", "-1"], "--steps", "must be >= 0"),
        (band + ["--workers", "0"], "--workers", "must be >= 1"),
        (band + ["--workers", "-2"], "--workers", "must be >= 1"),
        (band + ["--timeout", "0"], "--timeout", "must be > 0"),
        (band + ["--timeout", "-1"], "--timeout", "must be > 0"),
        (check + ["--timeout", "0"], "--timeout", "must be > 0"),
        (["gen-vcs", "--out", str(tmp_path / "gen"), "--mutant", "bogus"], "--mutant",
         "invalid choice: 'bogus'"),
    ):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        err = capsys.readouterr().err
        assert exited.value.code == 2, argv
        assert f"argument {option}: {message}" in err, (argv, err)
        assert "Traceback" not in err


def test_check_reports_each_model_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("MODULE main VAR x : 5..2; y : boolean; ASSIGN init(y) := 3;")
    code = main(["check", str(bad), "--formula", "TRUE"])
    err = capsys.readouterr().err
    assert code == 2
    assert [line.split("]")[0] for line in err.splitlines()] == [
        f"error: {bad}: error[assign-type", f"error: {bad}: error[range-empty"]
    assert "Traceback" not in err
