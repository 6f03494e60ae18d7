"""Benchmark of `fsmcheck batch`, the fault-combination campaign.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is taken from ./src and
nothing else is read or written outside the checkout. Each run generates its
bundle with `fsmcheck gen-vcs`, then:

* --trace 0 starts the batch command as a child process, one at a time
  (a closed loop with one client), for about S seconds: each batch of the
  whole selection is preceded by two set-up commands, the same command
  narrowed to the first task of the selection. It prints the end-to-end
  metrics, as medians over the repeats.
* --trace 1 runs the selection once as a child process, then in-process
  through `fsmcheck.cli.main` on one worker, untraced and then with timing
  shims over the public functions each module calls through, and prints the
  per-layer metrics. The spans are written to bench/.work/<workload>/.

Every batch is checked against bench/expected/<workload>.json, and every
filed counterexample is replayed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every check held.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, percentile, self_times, tail_percentile
from verdicts import (
    as_trace_text, compare, filed_traces, read_trace_file, strip_timing, trace_digest,
)

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"
BOUND = 70
WINDOW = (15, 40)
SETUP_PER_BATCH = 2
CHILD_LIMIT_S = 90
P_TAIL = 90  # highest of p99/p95/p90 with >= 10 samples beyond it on every workload

MUTANT_VIOLATES = frozenset({"double_failure_targets_mode", "double_failure_mode_stable"})


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                   # gen-vcs bundle size: "desk" or "full"
    workers: int
    bands: tuple                  # candidate --range selections; the seed picks one
    mutant: str = "none"
    violates: frozenset = frozenset()  # specs every cell violates; all else PASS

    def band(self, seed: int) -> tuple[int, int, int, int]:
        return self.bands[seed % len(self.bands)]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# Each batch takes 7-11 s on two cores, so four or five of them fit in one
# run of BENCHMARK.json's run_seconds. The full-preset rows the seed picks
# from are point-to-point loss rows of near-equal cost, so that the seed
# changes the inputs but not the amount of work.
WORKLOADS = {w.name: w for w in (
    Workload("full-rows-w2", "full", 2,
             tuple((r, 1, r, 21) for r in (17, 18, 24, 25, 31, 32, 34, 36))),
    Workload("mutant-w1", "desk", 1, ((7, 3, 17, 6),),
             mutant="swapped-fallback-priority", violates=MUTANT_VIOLATES),
)}


@dataclass
class Check:
    units: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def add(self, other: "Check", tag: str) -> None:
        self.units += other.units
        self.failed |= {(tag, uid) for uid in other.failed}
        self.problems += [f"{tag}: {p}" for p in other.problems]


class Checkout:
    """The program under test: ./src of the checkout the benchmark runs in."""

    def __init__(self, root: Path):
        self.src = root / "src"
        if not (self.src / "fsmcheck" / "cli.py").is_file():
            raise SystemExit(f"error: no fsmcheck sources under {self.src}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run `python -m fsmcheck.cli argv` to completion through measure.py;
        return its wall s, user+sys CPU s and peak RSS MB (of it and the
        workers it waited for), and its exit code."""
        with open(log, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "measure.py"),
                 sys.executable, "-m", "fsmcheck.cli", *argv],
                env=self.env, stdout=subprocess.PIPE, stderr=err, text=True,
                start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=CHILD_LIMIT_S)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
        if proc.returncode != 0:
            raise SystemExit(f"error: measuring fsmcheck {argv[0]} failed; see {log}")
        r = json.loads(out)
        return r["wall_s"], r["cpu_s"], r["peak_rss_mb"], r["exit_code"]


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def batch_argv(bundle: Path, band, workers: int, out: Path) -> list[str]:
    return ["batch", "--template", str(bundle / "vcs.fsm"),
            "--failures", str(bundle / "failures.csv"),
            "--matrix", str(bundle / "target_modes.csv"),
            "--specs", str(bundle / "specs.ltl"), "--range", *map(str, band),
            "--workers", str(workers), "--bound", str(BOUND),
            "--window", *map(str, WINDOW), "--out", str(out)]


def generate_bundle(checkout: Checkout, wl: Workload, work: Path) -> Path:
    bundle = work / "bundle"
    argv = ["gen-vcs", "--out", str(bundle), f"--{wl.preset}", "--mutant", wl.mutant]
    code = checkout.run(argv, work / "gen-vcs.log")[3]
    if code != 0:
        raise SystemExit(f"error: gen-vcs exited {code}; see {work / 'gen-vcs.log'}")
    return bundle


# --- correctness --------------------------------------------------------------


def load_expected(wl: Workload, band) -> dict:
    path = EXPECTED / f"{wl.name}.json"
    bands = json.loads(path.read_text())["bands"]
    key = " ".join(map(str, band))
    if key not in bands:
        raise SystemExit(f"error: {path} has no expectation for --range {key}")
    return bands[key]


def narrow(expected: dict, row: int, col: int) -> dict:
    """The expectation for a batch narrowed to the task at (row, col)."""
    report = expected["report"]
    tasks = [t for t in report["tasks"] if (t["row"], t["col"]) == (row, col)]
    summary = {kind: dict.fromkeys(report["summary"][kind], 0) for kind in ("tasks", "units")}
    for t in tasks:
        summary["tasks"][t["verdict"]] += 1
        for s in t["specs"]:
            summary["units"][s["verdict"]] += 1
    ids = {t["model_id"] for t in tasks}
    return {"report": {**report, "tasks": tasks, "summary": summary},
            "traces": {k: v for k, v in expected["traces"].items() if k in ids}}


def task_digests(report: dict, out: Path) -> dict[str, str]:
    traces = filed_traces(report, out)
    by_task: dict[str, dict] = {}
    for path, steps in traces.items():
        by_task.setdefault(path.split("/")[0], {})[path] = steps
    return {model_id: trace_digest(t) for model_id, t in sorted(by_task.items())}


def check_batch(wl: Workload, expected: dict, out: Path, exit_code: int) -> Check:
    """Compare one batch's report and filed traces with the expectation and
    with the verdicts the workload's design fixes."""
    want = expected["report"]
    check = Check(units=sum(len(t["specs"]) for t in want["tasks"]))
    try:
        report = json.loads((out / "report.json").read_text())
        digests = task_digests(report, out)
    except (OSError, ValueError, KeyError) as err:
        check.failed = {(t["row"], t["col"], i) for t in want["tasks"]
                        for i in range(len(t["specs"]))}
        check.problems.append(f"unreadable output: {type(err).__name__}: {err}")
        return check
    check.failed, check.problems = compare(want, strip_timing(report))
    for task in report["tasks"]:
        for i, spec in enumerate(task["specs"]):
            uid = (task["row"], task["col"], i)
            should = "VIOLATED" if spec["name"] in wl.violates else "PASS"
            if spec["verdict"] != should:
                check.failed.add(uid)
                check.problems.append(f"unit {uid} {spec['name']}: {spec['verdict']}, "
                                      f"the design fixes {should}")
            if (spec["verdict"] == "VIOLATED") != bool(spec.get("trace")):
                check.failed.add(uid)
                check.problems.append(f"unit {uid}: {spec['verdict']} with trace "
                                      f"{spec.get('trace')!r}")
    for model_id in sorted(set(expected["traces"]) | set(digests)):
        if expected["traces"].get(model_id) != digests.get(model_id):
            check.failed |= {(t["row"], t["col"], i) for t in report["tasks"]
                             if t["model_id"] == model_id
                             for i, s in enumerate(t["specs"]) if s.get("trace")}
            check.problems.append(f"{model_id}: filed traces differ from the expected ones")
    filed = sum(1 for _ in out.rglob("*.trace"))
    named = sum(1 for t in report["tasks"] for s in t["specs"] if s.get("trace"))
    if filed != named:
        check.problems.append(f"{filed} trace files on disk, the report names {named}")
    want_code = 1 if any(s["verdict"] == "VIOLATED" for t in want["tasks"]
                         for s in t["specs"]) else 0
    if exit_code != want_code:
        check.problems.append(f"exit code {exit_code}, expected {want_code}")
    return check


def replay_filed(bundle: Path, band, out: Path) -> Check:
    """Read back every filed trace and replay it against its instance system
    with checker.replay_counterexample; each must replay to VIOLATED."""
    from fsmcheck.checker import replay_counterexample
    from fsmcheck.driver import (
        instantiate_model, load_failure_catalog, load_target_matrix,
        parse_spec_file, plan_batch,
    )
    from fsmcheck.lang import parse_model
    from fsmcheck.ltl import PrefixVerdict, parse_ltl
    from fsmcheck.semantics import elaborate, trace_from_text

    check = Check()
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as err:
        check.problems.append(f"nothing to replay: {type(err).__name__}: {err}")
        return check
    catalog = load_failure_catalog(bundle / "failures.csv")
    matrix = load_target_matrix(bundle / "target_modes.csv", catalog)
    specs = parse_spec_file(bundle / "specs.ltl")
    planned = {(t.row, t.col): t for t in plan_batch(catalog, matrix, specs, band, BOUND).tasks}
    template = (bundle / "vcs.fsm").read_text()
    for task in report["tasks"]:
        filed = [(i, s) for i, s in enumerate(task["specs"]) if s.get("trace")]
        if not filed:
            continue
        instance = instantiate_model(template, planned[(task["row"], task["col"])],
                                     WINDOW, specs)
        ts = elaborate(parse_model(instance.source))
        formulas = dict(instance.specs)
        for i, spec in filed:
            uid = (task["row"], task["col"], i)
            try:
                steps = read_trace_file((out / spec["trace"]).read_text())
                trace = trace_from_text(as_trace_text(steps, ts.index), ts)
                verdict = replay_counterexample(ts, trace, parse_ltl(formulas[spec["name"]], ts))
                ok = verdict is PrefixVerdict.VIOLATED
                detail = f"replays to {verdict.value}"
            except Exception as err:  # any failure to replay fails the unit
                ok, detail = False, f"{type(err).__name__}: {err}"
            if not ok:
                check.failed.add(uid)
                check.problems.append(f"unit {uid} {spec['trace']}: {detail}")
    return check


# --- measuring ------------------------------------------------------------------


def measure_end_to_end(checkout, wl, bundle, band, expected, work, seconds):
    """Whole-selection batches for about `seconds`, each preceded by set-up
    commands (the batch narrowed to its first task), so that both sample the
    same stretch of time on a machine whose speed drifts."""
    check = Check()
    started = time.perf_counter()
    first, narrowed = band[:2] * 2, narrow(expected, *band[:2])
    setup, runs = [], []
    while True:
        for _ in range(SETUP_PER_BATCH):
            out = work / f"setup{len(setup)}"
            wall, _, _, code = checkout.run(batch_argv(bundle, first, wl.workers, out),
                                            work / f"{out.name}.log")
            setup.append(wall)
            check.add(check_batch(wl, narrowed, out, code), out.name)
        out = work / f"batch{len(runs)}"
        runs.append(checkout.run(batch_argv(bundle, band, wl.workers, out),
                                 work / f"{out.name}.log"))
        check.add(check_batch(wl, expected, out, runs[-1][3]), out.name)
        cycle = statistics.median(r[0] for r in runs) + SETUP_PER_BATCH * statistics.median(setup)
        if time.perf_counter() - started + cycle > seconds:
            break
    check.add(replay_filed(bundle, band, work / "batch0"), "replay")
    units = sum(len(t["specs"]) for t in expected["report"]["tasks"])
    metrics = {
        "wall_s": (statistics.median(r[0] for r in runs), "s"),
        "units_per_s": (statistics.median(units / r[0] for r in runs), "1/s"),
        "cpu_s": (statistics.median(r[1] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r[2] for r in runs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"{wl.name} --range {' '.join(map(str, band))}: {len(runs)} batch(es) of "
          f"{units} units, {len(setup)} set-up command(s)")
    print("batch wall s: " + " ".join(f"{r[0]:.3f}" for r in runs)
          + "; set-up wall s: " + " ".join(f"{w:.3f}" for w in setup))
    return metrics, check


def install_shims(tracer: Tracer) -> None:
    """Shim the public functions at the attributes the program calls through."""
    import fsmcheck.cli as cli
    from fsmcheck.driver import inject, runner, specs

    def unit_of_payload(args):
        p = args[0]
        return (p["row"], p["col"], p["spec_index"])

    def unit_of_task(args):
        task = args[1]
        return (task.row, task.col, None)

    kb_of_text = lambda args, result: {"kb": len(args[0]) / 1024}  # noqa: E731
    shims = {
        "lang.parse_model": dict(note=kb_of_text),
        "lang.validate_model": {},
        "semantics.elaborate": {},
        "ltl.parse_ltl": {},
        "driver.specs.load_spec_catalog": {},
        "driver.plan.plan_batch": dict(note=lambda a, r: {
            "tasks": len(r.tasks), "units": sum(len(t.specs) for t in r.tasks)}),
        "driver.inject.instantiate_model": dict(
            unit_of=unit_of_task, note=lambda a, r: {"kb": len(r.source) / 1024}),
        "driver.runner.run_batch": {},
        "driver.runner.run_unit": dict(unit_of=unit_of_payload, note=lambda a, r: {
            "payload_kb": len(pickle.dumps(a[0])) / 1024}),
        "driver.report.write_report": {},
        "checker.check_bounded": dict(note=lambda a, r: {"result": type(r).__name__}),
        "checker.replay_counterexample": {},
    }
    for module in (cli, inject, runner, specs):
        for name, kw in shims.items():
            tracer.install(module, name.rsplit(".", 1)[1], name, **kw)


def run_in_process(cli, argv, tracer=None) -> tuple[float, int]:
    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return wall, code


def measure_layers(checkout, wl, bundle, band, expected, work):
    """One untraced child-process batch, then the selection in-process on one
    worker: untraced, and traced with shims."""
    check = Check()
    out = work / "untraced"
    wall, cpu, _, code = checkout.run(batch_argv(bundle, band, wl.workers, out),
                                      work / "untraced.log")
    check.add(check_batch(wl, expected, out, code), "untraced")

    started = time.perf_counter()
    import fsmcheck.cli as cli  # first import in this process: the cost every command pays
    import_s = time.perf_counter() - started
    check.add(replay_filed(bundle, band, out), "replay")
    ref_out = work / "inprocess"
    ref_wall, code = run_in_process(cli, batch_argv(bundle, band, 1, ref_out))
    check.add(check_batch(wl, expected, ref_out, code), "in-process")

    tracer = Tracer()
    traced_out = work / "traced"
    install_shims(tracer)
    try:
        traced_wall, code = run_in_process(
            cli, batch_argv(bundle, band, 1, traced_out), tracer)
    finally:
        tracer.uninstall()
    check.add(check_batch(wl, expected, traced_out, code), "traced")
    tracer.write(work / "spans.jsonl")

    spans = tracer.spans
    selfs = self_times(spans)

    def named(name):
        return [(s, t) for s, t in zip(spans, selfs) if s.name == name]

    def self_s(name):
        return sum(t for _, t in named(name))

    def calls(name):
        return len(named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    checks_ms = [s.duration * 1e3 for s, _ in named("checker.check_bounded")]
    by_result = {}
    for s, _ in named("checker.check_bounded"):
        by_result.setdefault(s.info["result"], []).append(s.duration * 1e3)
    plans = named("driver.plan.plan_batch")
    instances = calls("driver.inject.instantiate_model")
    parsed_kb = sum(s.info["kb"] for s, _ in named("lang.parse_model"))
    if (tail_percentile(len(checks_ms)) or 0) < P_TAIL:
        check.problems.append(f"{len(checks_ms)} check_bounded calls are too few "
                              f"for a p{P_TAIL}")
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "driver.specs.load_spec_catalog_s": (self_s("driver.specs.load_spec_catalog"), "s"),
        "driver.plan.plan_batch_s": (self_s("driver.plan.plan_batch"), "s"),
        "driver.plan.tasks": (plans[-1][0].info["tasks"] if plans else 0, "count"),
        "driver.plan.units": (plans[-1][0].info["units"] if plans else 0, "count"),
        "driver.inject.instantiate_model_s": (self_s("driver.inject.instantiate_model"), "s"),
        "driver.inject.instantiate_model_calls": (instances, "count"),
        "driver.inject.source_kb": (ratio(sum(
            s.info["kb"] for s, _ in named("driver.inject.instantiate_model")), instances), "KB"),
        "lang.parse_model_s": (self_s("lang.parse_model"), "s"),
        "lang.parse_model_calls": (calls("lang.parse_model"), "count"),
        "lang.parse_kb_per_s": (ratio(parsed_kb, self_s("lang.parse_model")), "KB/s"),
        "lang.validate_model_s": (self_s("lang.validate_model"), "s"),
        "lang.validate_model_calls": (calls("lang.validate_model"), "count"),
        "semantics.elaborate_s": (self_s("semantics.elaborate"), "s"),
        "semantics.elaborate_calls": (calls("semantics.elaborate"), "count"),
        "semantics.elaborate_per_instance": (
            ratio(calls("semantics.elaborate"), instances), "ratio"),
        "ltl.parse_ltl_s": (self_s("ltl.parse_ltl"), "s"),
        "ltl.parse_ltl_calls": (calls("ltl.parse_ltl"), "count"),
        "checker.check_bounded_s": (self_s("checker.check_bounded"), "s"),
        "checker.check_bounded_calls": (len(checks_ms), "count"),
        "checker.check_bounded_p50_ms": (percentile(checks_ms, 50), "ms"),
        f"checker.check_bounded_p{P_TAIL}_ms": (percentile(checks_ms, P_TAIL), "ms"),
        "checker.check_bounded_pass_ms": (
            statistics.median(by_result.get("NoCounterexampleWithinBound", [0.0])), "ms"),
        "checker.check_bounded_violated_calls": (
            len(by_result.get("Counterexample", [])), "count"),
        "checker.calls_per_instance": (ratio(len(checks_ms), instances), "ratio"),
        "checker.replay_counterexample_calls": (
            calls("checker.replay_counterexample"), "count"),
        "driver.runner.run_batch_self_s": (self_s("driver.runner.run_batch"), "s"),
        "driver.runner.run_unit_self_s": (self_s("driver.runner.run_unit"), "s"),
        "driver.runner.payload_kb": (ratio(sum(
            s.info["payload_kb"] for s, _ in named("driver.runner.run_unit")),
            calls("driver.runner.run_unit")), "KB"),
        "driver.runner.cpu_util": (cpu / (wl.workers * wall), "ratio"),
        "driver.report.write_report_s": (self_s("driver.report.write_report"), "s"),
        "driver.report.report_kb": ((traced_out / "report.json").stat().st_size / 1024
                                    if (traced_out / "report.json").exists() else 0.0, "KB"),
        "driver.report.trace_files": (sum(1 for _ in traced_out.rglob("*.trace")), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.uncovered_s": (traced_wall - sum(selfs), "s"),
        "trace.overhead_ratio": (traced_wall / ref_wall, "ratio"),
    }
    # Times that are 0 by design on workloads without counterexamples; they
    # are printed for reading but are not part of the result object.
    extra = {
        "checker.check_bounded_violated_ms": (
            statistics.median(by_result.get("Counterexample", [0.0])), "ms"),
        "checker.replay_counterexample_s": (self_s("checker.replay_counterexample"), "s"),
    }
    return m, extra, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    sys.path.insert(0, str(checkout.src))

    wl = WORKLOADS[args.workload]
    band = wl.band(args.seed)
    expected = load_expected(wl, band)
    work = BENCH / ".work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bundle = generate_bundle(checkout, wl, work)

    if args.trace:
        metrics, extra, check = measure_layers(checkout, wl, bundle, band, expected, work)
        metrics["fail_ratio"] = (len(check.failed) / max(check.units, 1), "ratio")
    else:
        metrics, check = measure_end_to_end(checkout, wl, bundle, band, expected,
                                            work, args.seconds)
        extra = {}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != names:
        check.problems.append(f"metrics {list(metrics)} differ from BENCHMARK.json's {names}")
    for problem in check.problems[:50]:
        print(f"MISMATCH {problem}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name}  {name:40s} {value:14.6f} {unit}")
    correct = not check.failed and not check.problems
    print(json.dumps({
        "correct": correct,
        "attempted": check.units,
        "failed": len(check.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
