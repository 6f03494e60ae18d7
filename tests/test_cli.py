import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import fsmcheck
from fsmcheck import cli
from fsmcheck.checker import Counterexample
from fsmcheck.cli import main
from fsmcheck.driver import (
    load_failure_catalog, load_target_matrix, parse_spec_file, plan_batch,
)
from fsmcheck.ltl import PrefixVerdict
from fsmcheck.semantics import State, Trace
from fsmcheck.vcs.generate import VcsConfig, generate_vcs_model


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert main(["gen-vcs", "--out", str(out), "--desk"]) == 0
    return out


def test_gen_vcs_writes_four_files(bundle_dir):
    names = {p.name for p in bundle_dir.iterdir()}
    assert names == {"vcs.fsm", "failures.csv", "target_modes.csv", "specs.ltl"}


def test_only_the_process_entry_point_freezes_the_collector(bundle_dir, capsys):
    frozen = gc.get_freeze_count()
    assert main(["simulate", str(bundle_dir / "vcs.fsm"), "--steps", "2"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(fsmcheck.__file__).resolve().parents[1]))
    code = ("import gc, sys; from fsmcheck import cli; "
            f"sys.argv = ['fsmcheck', 'simulate', {str(bundle_dir / 'vcs.fsm')!r}, '--steps', '2']; "
            "status = cli.entry_point(); print(status, gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 True"


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



def test_check_counterexample_that_fails_replay_is_an_error(bundle_dir, capsys, tmp_path):
    trace_file = tmp_path / "cex.trace"
    with patch("fsmcheck.cli.replay_counterexample", return_value=PrefixVerdict.INCONCLUSIVE):
        code = main([
            "check", str(bundle_dir / "vcs.fsm"),
            "--formula", "G[0,20] !(Mode = Normal)",
            "--bound", "20", "--trace-out", str(trace_file),
        ])
    out = capsys.readouterr().out
    assert code == 2
    assert out == ("ERROR: <command line>: the counterexample at step 15 "
                   "failed replay: inconclusive\n")
    assert not trace_file.exists()


def test_check_counterexample_off_the_transition_relation_is_an_error(tmp_path, capsys,
                                                                      monkeypatch):
    # a faulty checker's counterexample along x = 0, 2, 3 skips a step
    model = tmp_path / "counter.fsm"
    model.write_text("MODULE main\nVAR x : 0..3;\nASSIGN\n  init(x) := 0;\n"
                     "  next(x) := case x < 3 : x + 1; TRUE : x; esac;\n")

    def forged(task):
        trace = Trace(tuple(State((x,), task.ts) for x in (0, 2, 3)))
        return Counterexample(trace, task.formula, 2)

    monkeypatch.setattr(cli, "check_bounded", forged)
    code = main(["check", str(model), "--formula", "G x < 3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("ERROR: <command line>: the counterexample at step 2 failed "
                            "replay: states 0 -> 1 are not in the transition relation\n")
    assert captured.err == ""


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
    assert out.splitlines()[-2] == (
        "depth clock, held out of the state graph: Step = "
        + ", ".join(map(str, range(72))) + ", 71 at depths 0 to 72; "
        "from depth 71 it cycles with period 1")


def test_check_print_deps_without_clock(tmp_path, capsys):
    model = tmp_path / "toggle.fsm"
    model.write_text("MODULE main\nVAR b : boolean; c : boolean;\nASSIGN\n"
                     "  init(b) := FALSE;\n  next(b) := !c;\n")
    assert main(["check", str(model), "--print-deps"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "depth clock: none"


def test_check_enum_atom_with_disjoint_symbols_is_an_input_error(tmp_path, capsys):
    # Aa is a symbol of e, not of Mode: the atom can never hold
    model = tmp_path / "enums.fsm"
    model.write_text("MODULE main\nVAR\n  Mode : {Off, On};\n  e : {Aa, Bb};\n"
                     "ASSIGN\n  init(Mode) := Off;\n")
    for text in ("G (Mode = Aa)", "G !(Mode != Bb)", "G (e = Off | Mode = On)"):
        assert main(["check", str(model), "--formula", text]) == 2, text
        captured = capsys.readouterr()
        assert "[cmp-type] enum comparison can never hold (disjoint symbols)" in captured.err, text
        assert captured.out == ""
    assert main(["check", str(model), "--formula", "G (Mode = Off)", "--bound", "2"]) == 1


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
        for workers in ("1", "2", "3"):
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
        assert reports[0] == reports[1] == reports[2]
        assert traces[0] == traces[1] == traces[2]
        assert bool(traces[0]) == (want_code == 1)
    assert {len(specs) for _, specs in planned} == {4, 6}


def test_batch_prints_once_when_stdout_is_a_pipe(bundle_dir, tmp_path):
    # a block-buffered stdout is flushed before each fork, and no worker
    # flushes the copy it inherited
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(fsmcheck.__file__).resolve().parents[1])
    done = subprocess.run([
        sys.executable, "-c", "import sys; from fsmcheck.cli import main; sys.exit(main())",
        "batch",
        "--template", str(bundle_dir / "vcs.fsm"),
        "--failures", str(bundle_dir / "failures.csv"),
        "--matrix", str(bundle_dir / "target_modes.csv"),
        "--specs", str(bundle_dir / "specs.ltl"),
        "--range", "1", "1", "1", "3",
        "--workers", "2", "--out", str(tmp_path / "out"),
    ], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("planned ") == 1
    assert done.stdout.count("report: ") == 1


def test_batch_without_fork_rejects_more_than_one_worker(bundle_dir, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.delattr(os, "fork")
    batch = [
        "batch",
        "--template", str(bundle_dir / "vcs.fsm"),
        "--failures", str(bundle_dir / "failures.csv"),
        "--matrix", str(bundle_dir / "target_modes.csv"),
        "--specs", str(bundle_dir / "specs.ltl"),
        "--range", "1", "1", "1", "1", "--out", str(tmp_path / "out"),
    ]
    assert main(batch + ["--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: --workers above 1 ")
    assert main(batch + ["--workers", "1"]) == 0


def test_check_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("MODULE main VAR x : ;")
    code = main(["check", str(bad), "--formula", "TRUE"])
    assert code == 2


def test_a_non_ascii_digit_is_an_input_error(tmp_path, capsys):
    # str.isdigit() takes '²', which int() rejects; the lexer reads ASCII digits only
    model = tmp_path / "m.fsm"
    model.write_text("MODULE main\nVAR\n  b : boolean;\nASSIGN\n  init(b) := FALSE;\n")
    bad = tmp_path / "bad.fsm"
    bad.write_text("MODULE main\nVAR\n  x : 0..²;\n")
    for argv, where in (
        (["check", str(bad), "--formula", "TRUE"], "line 3, column 10"),
        (["check", str(model), "--formula", "G[0,²] !b"], "line 1, column 5"),
    ):
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2, argv
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert f"{where}: unexpected character '²'" in err[0], (argv, err)


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
        ["check", str(bundle_dir / "vcs.fsm"), "--formula", "G (Mode = 3)"],  # ill-typed atom
        ["check", str(bundle_dir / "vcs.fsm"), "--formula", "G (!Step = 3)"],  # `!` on an int
        ["check", str(bundle_dir / "vcs.fsm"), "--prop", "nosuch",
         "--specs", str(bundle_dir / "specs.ltl")],  # unknown spec name
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    # a negative window start is rejected as a window, before any spec reads it
    assert main(batch + ["--range", "1", "1", "1", "1", "--window", "-5", "3"]) == 2
    assert "error: bad injection window [-5, 3]" in capsys.readouterr().err.splitlines()
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


def test_batch_rejects_a_spec_the_checker_cannot_check(bundle_dir, tmp_path, capsys):
    # a past operator over a future subformula parses, but the checker
    # builds no obligation for it: the catalog load rejects it, and no unit runs
    specs = tmp_path / "specs.ltl"
    specs.write_text((bundle_dir / "specs.ltl").read_text()
                     + "\n[spec x]\napplicability: all\n"
                     "formula: G[0,70] !(O (F[0,2] Mode = SafeStop))\n")
    out_dir = tmp_path / "out"
    code = main([
        "batch",
        "--template", str(bundle_dir / "vcs.fsm"),
        "--failures", str(bundle_dir / "failures.csv"),
        "--matrix", str(bundle_dir / "target_modes.csv"),
        "--specs", str(specs),
        "--range", "1", "2", "1", "2", "--out", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines()[-1].startswith(
        "error: spec 'x': past operator over a future subformula: "), captured.err
    assert "planned" not in captured.out
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("name", ["../../escaped_double_failure_mode_stable", "a/b"])
def test_a_spec_name_must_be_an_identifier(name, tmp_path, capsys):
    # a batch files each trace under its spec's name; on the mutant, cell
    # 7 3 violates double_failure_mode_stable and would file its trace
    bundle = tmp_path / "mutant"
    assert main(["gen-vcs", "--out", str(bundle), "--desk",
                 "--mutant", "swapped-fallback-priority"]) == 0
    capsys.readouterr()
    specs = bundle / "specs.ltl"
    lines = specs.read_text().splitlines()
    lineno = lines.index("[spec double_failure_mode_stable]") + 1
    lines[lineno - 1] = f"[spec {name}]"
    specs.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "run" / "out"
    for argv in (
        ["batch", "--template", str(bundle / "vcs.fsm"),
         "--failures", str(bundle / "failures.csv"),
         "--matrix", str(bundle / "target_modes.csv"), "--specs", str(specs),
         "--range", "7", "3", "7", "3", "--out", str(out_dir)],
        ["check", str(bundle / "vcs.fsm"), "--prop", "startup_reaches_normal",
         "--specs", str(specs)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {specs}:{lineno}: spec name is not an identifier: '[spec {name}]'"], argv
        assert captured.out == ""
    assert not (tmp_path / "run").exists()
    assert not list(tmp_path.rglob("*.trace"))


def test_check_reports_each_model_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("MODULE main VAR x : 5..2; y : boolean; ASSIGN init(y) := 3;")
    code = main(["check", str(bad), "--formula", "TRUE"])
    err = capsys.readouterr().err
    assert code == 2
    assert [line.split("]")[0] for line in err.splitlines()] == [
        f"error: {bad}: error[assign-type", f"error: {bad}: error[range-empty"]
    assert "Traceback" not in err


def test_check_init_rule_leaving_its_domain_beats_a_counterexample(tmp_path, capsys):
    # the state a = 0 violates the spec, but a = 3 gives b = 4 at step 0
    model = tmp_path / "init.fsm"
    model.write_text("MODULE main\nVAR a : 0..3; b : 0..3;\nASSIGN\n"
                     "  init(a) := {0, 3};\n  init(b) := a + 1;\n"
                     "  next(a) := a;\n  next(b) := b;\n")
    assert main(["check", str(model), "--formula", "G a != 0"]) == 2
    assert capsys.readouterr().out.startswith("MODEL ERROR at step 0: value 4 for 'b' ")


def test_unwritable_output_paths_exit_two_without_traceback(bundle_dir, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (
        ["batch",
         "--template", str(bundle_dir / "vcs.fsm"),
         "--failures", str(bundle_dir / "failures.csv"),
         "--matrix", str(bundle_dir / "target_modes.csv"),
         "--specs", str(bundle_dir / "specs.ltl"),
         "--range", "1", "1", "1", "1", "--out", str(taken)],  # FileExistsError
        ["check", str(bundle_dir / "vcs.fsm"), "--formula", "G Mode = Normal",
         "--trace-out", str(taken / "x.trace")],  # NotADirectoryError
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.splitlines()[-1].startswith("error: [Errno "), (argv, err)
        assert str(taken) in err.splitlines()[-1]


def test_batch_progress_lines(bundle_dir, tmp_path, capsys):
    reports = []
    for flags in ([], ["--progress"]):
        out_dir = tmp_path / f"out{len(flags)}"
        code = main([
            "batch",
            "--template", str(bundle_dir / "vcs.fsm"),
            "--failures", str(bundle_dir / "failures.csv"),
            "--matrix", str(bundle_dir / "target_modes.csv"),
            "--specs", str(bundle_dir / "specs.ltl"),
            "--range", "1", "1", "1", "2", "--out", str(out_dir), *flags,
        ])
        assert code == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("progress: ")]
        if flags:
            assert [line.split(" tasks,")[0] for line in lines] == [
                "progress: 1/2", "progress: 2/2"]
            assert all(" elapsed, ETA " in line for line in lines), lines
            assert lines[-1].endswith("ETA 0.0s")
        else:
            assert lines == []
        reports.append(_without_timing(json.loads((out_dir / "report.json").read_text())))
    assert reports[0] == reports[1]
