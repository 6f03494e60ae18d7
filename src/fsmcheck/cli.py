"""Command line interface.

    fsmcheck gen-vcs   --out DIR [--desk|--full] [--mutant NAME]
    fsmcheck batch     --template F --failures F --matrix F --specs F
                       [--range r1 c1 r2 c2 | --singles | --full] [--workers W]
                       [--bound K] [--timeout SECS] [--window LO HI] [--out DIR]
                       [--progress]
    fsmcheck check     MODEL (--prop NAME --specs FILE | --formula TEXT)
                       [--bound K] [--timeout SECS] [--trace-out FILE] [--print-deps]
    fsmcheck simulate  MODEL --steps N [--seed S]

`batch --workers W` with W > 1 forks W worker processes from the command
itself, so it needs os.fork; without it such a batch is an input error.

Exit codes: 0 all passed, 1 a violation was found, 2 errors, timeouts, or
nothing decidable.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checker import (
    CheckTask, Counterexample, ModelError, NoCounterexampleWithinBound,
    Timeout, check_bounded, format_dependency_report, replay_counterexample,
)
from .driver import (
    CatalogError, InstantiationError, MatrixError, PlanRangeError,
    SpecFileError, instance_system, load_failure_catalog, load_spec_catalog,
    load_target_matrix, parse_spec_file, plan_batch, run_batch, write_report,
)
from .driver.catalog import FATAL
from .driver.inject import placeholders
from .lang import ParseError, parse_model
from .ltl import PastEliminationError, PrefixVerdict, parse_ltl
from .semantics import (
    ElaborationError, ModelStepError, elaborate, first_choice,
    seeded_random_chooser, simulate, trace_to_text,
)
from .vcs import VcsConfig, generate_vcs_model
from .vcs.generate import MUTANTS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ElaborationError as err:
        for d in err.diagnostics:
            print(f"error: {err.source_name}: {d}", file=sys.stderr)
        return 2
    except (ParseError, ModelStepError, OSError, InstantiationError,
            SpecFileError, CatalogError, MatrixError, PlanRangeError,
            PastEliminationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsmcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-vcs", help="generate the vehicle-control demo bundle")
    gen.add_argument("--out", required=True)
    size = gen.add_mutually_exclusive_group()
    size.add_argument("--desk", action="store_true", help="4 ECUs, 1 bus (default)")
    size.add_argument("--full", action="store_true", help="7 ECUs, 3 buses, 42 axes")
    gen.add_argument("--mutant", choices=MUTANTS, default="none")
    gen.set_defaults(func=cmd_gen_vcs)

    batch = sub.add_parser("batch", help="run a failure-combination batch")
    batch.add_argument("--template", required=True)
    batch.add_argument("--failures", required=True)
    batch.add_argument("--matrix", required=True)
    batch.add_argument("--specs", required=True)
    sel = batch.add_mutually_exclusive_group()
    sel.add_argument("--range", nargs=4, type=int, metavar=("R1", "C1", "R2", "C2"),
                     help="1-based inclusive pair range, rows = first failure")
    sel.add_argument("--singles", action="store_true")
    sel.add_argument("--full", action="store_true")
    batch.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes; above 1 they are forked from this one "
                            "(needs os.fork), one combination's specs to a worker")
    batch.add_argument("--bound", type=_non_negative_int, default=70)
    batch.add_argument("--timeout", type=_positive_float, default=900.0,
                       help="wall-clock budget per (combination, spec) unit")
    batch.add_argument("--window", nargs=2, type=int, default=(15, 40),
                       metavar=("LO", "HI"), help="failure activation window")
    batch.add_argument("--out", default="batch-out")
    batch.add_argument("--progress", action="store_true",
                       help="print a line to stderr as each task finishes, "
                            "with tasks done of the total and an ETA")
    batch.set_defaults(func=cmd_batch)

    check = sub.add_parser("check", help="bounded-check one property on a model")
    check.add_argument("model")
    check.add_argument("--prop", help="spec name from --specs")
    check.add_argument("--specs", help="spec catalog file for --prop")
    check.add_argument("--formula", help="literal spec text")
    check.add_argument("--bound", type=_non_negative_int, default=70)
    check.add_argument("--timeout", type=_positive_float, default=None)
    check.add_argument("--trace-out", default=None)
    check.add_argument("--print-deps", action="store_true",
                       help="print the variable-dependency graph, the "
                            "sequential constants and the depth clock (diagnostic)")
    check.set_defaults(func=cmd_check)

    sim = sub.add_parser("simulate", help="simulate a model")
    sim.add_argument("model")
    sim.add_argument("--steps", type=_non_negative_int, required=True)
    sim.add_argument("--seed", type=int, default=None,
                     help="seeded-random choice policy (default: first-listed)")
    sim.set_defaults(func=cmd_simulate)
    return parser


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _load_system(path):
    return elaborate(parse_model(Path(path).read_text()), source_name=str(path))


def cmd_gen_vcs(args) -> int:
    config = VcsConfig.full if args.full else VcsConfig.desk
    cfg = config(mutant=args.mutant)
    bundle = generate_vcs_model(cfg)
    paths = bundle.write(args.out)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def cmd_batch(args) -> int:
    if args.workers > 1 and not hasattr(os, "fork"):
        print("error: --workers above 1 forks its workers, and os.fork is missing here",
              file=sys.stderr)
        return 2
    ts = _load_system(args.template)
    catalog = load_failure_catalog(args.failures)
    modes = ts.symbol_universe()
    matrix = load_target_matrix(args.matrix, catalog, modes=modes)

    # probe instance: inject the first pair (or single) so every placeholder
    # resolves, including the `_occurred` latches
    structural = parse_spec_file(args.specs)
    window = tuple(args.window)
    axes = catalog.axes
    probe_plan = plan_batch(
        catalog, matrix, structural,
        (1, 2, 1, 2) if len(axes) >= 2 else (1, 1, 1, 1),
        bound=args.bound,
    )
    probe_task = probe_plan.tasks[0]
    probe_ts = instance_system(ts, probe_task, window)
    # a single fills no FAIL_B and a FATAL cell no TARGET_MODE: fall back
    subst = {"FAIL_B": probe_task.axis_a.variable, "TARGET_MODE": _probe_mode(matrix),
             **placeholders(probe_task, window)}
    specs = load_spec_catalog(structural, probe_ts, subst)
    for warning in specs.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.range:
        selector = tuple(args.range)
    elif args.singles:
        selector = "singles"
    else:
        selector = "full"
    plan = plan_batch(catalog, matrix, specs, selector, bound=args.bound)
    print(f"planned {len(plan)} task(s) over {plan.n_axes} axes")
    report = run_batch(
        plan, ts, specs, out_dir=args.out, window=window,
        workers=args.workers, timeout=args.timeout,
        progress=sys.stderr if args.progress else None,
    )
    files = write_report(report, args.out)
    counts = report.unit_counts()
    print(f"done in {report.total_elapsed:.1f}s: "
          + "  ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"report: {files['text']}")
    return report.exit_code()


def _probe_mode(matrix) -> str:
    for row in matrix.cells:
        for cell in row:
            if cell != FATAL:
                return cell
    return "Normal"


def cmd_check(args) -> int:
    ts = _load_system(args.model)
    if args.print_deps:
        print(format_dependency_report(ts))
    if args.formula:
        text = args.formula
        name = "<command line>"
    elif args.prop and args.specs:
        catalog = parse_spec_file(args.specs)
        try:
            entry = catalog.get(args.prop)
        except KeyError:
            print(f"error: no spec named {args.prop!r} in {args.specs}", file=sys.stderr)
            return 2
        if entry.placeholders:
            print(f"error: spec {args.prop!r} has placeholders; check it via batch",
                  file=sys.stderr)
            return 2
        text = entry.formula_text
        name = args.prop
    else:
        if args.print_deps:
            return 0
        print("error: give --formula TEXT or --prop NAME with --specs FILE",
              file=sys.stderr)
        return 2
    formula = parse_ltl(text, ts)
    verdict = check_bounded(CheckTask(ts, formula, bound_k=args.bound,
                                      timeout=args.timeout))
    if isinstance(verdict, Counterexample):
        replayed = replay_counterexample(ts, verdict.trace, formula)
        if replayed is not PrefixVerdict.VIOLATED:
            # batch files the same case as an ERROR unit, with no trace
            print(f"ERROR: {name}: the counterexample at step {verdict.violation_step} "
                  f"failed replay: {replayed.value}")
            return 2
        print(f"VIOLATED: {name} at step {verdict.violation_step} "
              f"(replay: {replayed.value})")
        text_trace = trace_to_text(verdict.trace)
        if args.trace_out:
            Path(args.trace_out).write_text(text_trace)
            print(f"trace written to {args.trace_out}")
        else:
            print(text_trace, end="")
        return 1
    if isinstance(verdict, NoCounterexampleWithinBound):
        status = "PASS (decided on every path)" if verdict.all_paths_decided \
            else "no counterexample within bound (inconclusive)"
        print(f"{status}: {name} at bound {verdict.bound}")
        return 0 if verdict.all_paths_decided else 2
    if isinstance(verdict, Timeout):
        print(f"TIMEOUT after {verdict.elapsed:.1f}s")
        return 2
    assert isinstance(verdict, ModelError)
    print(f"MODEL ERROR at step {verdict.step}: {verdict.detail}")
    return 2


def cmd_simulate(args) -> int:
    ts = _load_system(args.model)
    chooser = first_choice if args.seed is None else seeded_random_chooser(args.seed)
    try:
        trace = simulate(ts, args.steps, chooser)
    except ModelStepError as err:
        print(f"MODEL ERROR: {err}", file=sys.stderr)
        return 2
    print(trace_to_text(trace), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
