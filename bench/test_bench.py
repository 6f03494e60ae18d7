"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import copy
import json
import types

import pytest

from run import WORKLOADS, batch_argv, check_batch, narrow, replay_filed, task_digests
from spans import Span, Tracer, beyond, covered, percentile, self_times, tail_percentile
from verdicts import compare, read_trace_file, strip_timing

MUTANT = WORKLOADS["mutant-w1"]
BAND = (7, 3, 7, 3)


# --- percentile rule -------------------------------------------------------------


def test_beyond_counts_samples_above_nearest_rank():
    assert beyond(100, 90) == 10
    assert beyond(126, 90) == 12
    assert beyond(126, 95) == 6
    assert beyond(10, 50) == 5


@pytest.mark.parametrize("n, p", [
    (9, None), (19, None), (20, 50), (40, 75), (100, 90), (126, 90),
    (199, 90), (200, 95), (264, 95), (999, 95), (1000, 99),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, p):
    assert tail_percentile(n) == p


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 1) == 1.0
    assert percentile([], 50) == 0.0


# --- self time ----------------------------------------------------------------------


def test_self_times_from_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_covered_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    spans = [Span("root", 0.0, 4.0), Span("x", 0.0, 2.0, parent=0),
             Span("y", 1.0, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_units_and_restores():
    module = types.SimpleNamespace(
        outer=lambda payload: module.inner(payload["n"]) + 1,
        inner=lambda n: n * 2,
    )
    original = module.inner
    tracer = Tracer()
    tracer.install(module, "outer", "m.outer", unit_of=lambda a: (a[0]["n"], 0, 0),
                   note=lambda a, r: {"result": r})
    tracer.install(module, "inner", "m.inner")
    tracer.install(module, "gone", "m.gone")  # no such attribute: skipped
    assert module.outer({"n": 3}) == 7
    tracer.uninstall()
    assert module.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.unit, outer.info) == ("m.outer", None, (3, 0, 0), {"result": 7})
    assert (inner.name, inner.parent, inner.unit) == ("m.inner", 0, (3, 0, 0))
    assert outer.start <= inner.start <= inner.end <= outer.end


# --- verdict gate on a real filed batch -------------------------------------------------


@pytest.fixture(scope="module")
def mutant_batch(tmp_path_factory):
    """One mutant cell through the CLI: two VIOLATED units with filed traces."""
    import fsmcheck.cli as cli

    root = tmp_path_factory.mktemp("mutant")
    bundle, out = root / "bundle", root / "out"
    assert cli.main(["gen-vcs", "--out", str(bundle), "--desk", "--mutant", MUTANT.mutant]) == 0
    code = cli.main(batch_argv(bundle, BAND, 1, out))
    report = json.loads((out / "report.json").read_text())
    return bundle, out, code, report


def test_read_filed_trace(mutant_batch):
    _, out, _, report = mutant_batch
    spec = next(s for s in report["tasks"][0]["specs"] if s["trace"])
    steps = read_trace_file((out / spec["trace"]).read_text())
    assert len(steps) == spec["violation_step"] + 1
    assert steps[0]["Step"] == "0" and steps[0]["Mode"] == "Startup"
    assert all(set(s) == set(steps[0]) for s in steps)
    with pytest.raises(ValueError):
        read_trace_file("step 1\nMode = Normal\n")


def test_filed_traces_replay_and_a_corrupted_one_fails(mutant_batch, tmp_path):
    bundle, out, _, report = mutant_batch
    assert not replay_filed(bundle, BAND, out).failed
    spec = next(s for s in report["tasks"][0]["specs"] if s["trace"])
    bad = tmp_path / "out"
    bad.mkdir()
    (bad / "report.json").write_text(json.dumps(report))
    (bad / spec["trace"]).parent.mkdir()
    text = (out / spec["trace"]).read_text()
    (bad / spec["trace"]).write_text(text.replace("Step = 1\n", "Step = 2\n", 1))
    assert replay_filed(bundle, BAND, bad).failed


def test_gate_catches_flipped_verdict_and_shifted_step(mutant_batch):
    _, out, code, report = mutant_batch
    expected = {"report": strip_timing(report), "traces": task_digests(report, out)}
    assert code == 1
    clean = check_batch(MUTANT, expected, out, code)
    assert (clean.units, clean.failed, clean.problems) == (6, set(), [])

    wrong = copy.deepcopy(expected)
    specs = wrong["report"]["tasks"][0]["specs"]
    passed = next(i for i, s in enumerate(specs) if s["verdict"] == "PASS")
    violated = next(i for i, s in enumerate(specs) if s["verdict"] == "VIOLATED")
    specs[passed]["verdict"] = "VIOLATED"
    specs[violated]["violation_step"] += 1
    failed, problems = compare(wrong["report"], strip_timing(report))
    assert failed == {(7, 3, passed), (7, 3, violated)}
    assert len(problems) == 2
    assert check_batch(MUTANT, wrong, out, code).failed == failed


def test_narrow_to_first_task_matches_its_own_batch(mutant_batch):
    _, out, code, report = mutant_batch
    expected = {"report": strip_timing(report), "traces": task_digests(report, out)}
    assert narrow(expected, 7, 3) == expected
    assert narrow(expected, 8, 3)["report"]["tasks"] == []
