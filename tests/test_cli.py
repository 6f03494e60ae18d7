import json
from pathlib import Path

import pytest

from fsmcheck.cli import main
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
    code = main(["simulate", str(bundle_dir / "vcs.fsm"), "--steps", "3", "--seed", "9", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["format"] == "fsmcheck-trace"
    assert len(obj["steps"]) == 4


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


def test_batch_report_and_traces_independent_of_workers(tmp_path):
    mutant_dir = tmp_path / "mutant"
    assert main(["gen-vcs", "--out", str(mutant_dir), "--desk",
                 "--mutant", "swapped-fallback-priority"]) == 0
    reports, traces = [], []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        code = main([
            "batch",
            "--template", str(mutant_dir / "vcs.fsm"),
            "--failures", str(mutant_dir / "failures.csv"),
            "--matrix", str(mutant_dir / "target_modes.csv"),
            "--specs", str(mutant_dir / "specs.ltl"),
            "--range", "8", "3", "8", "4",
            "--workers", workers, "--out", str(out_dir),
        ])
        assert code == 1
        reports.append(_without_timing(json.loads((out_dir / "report.json").read_text())))
        traces.append({str(f.relative_to(out_dir)): f.read_bytes()
                       for f in sorted(out_dir.rglob("*.trace"))})
    assert reports[0] == reports[1]
    assert traces[0] and traces[0] == traces[1]


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
