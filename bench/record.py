"""Record the expected verdicts of every workload band.

    python3 bench/record.py [WORKLOAD ...]

Run from the root of a checkout. Each band's batch is run once; it is kept
only if its verdicts are the ones the workload's design fixes and every
filed counterexample replays to VIOLATED. The expectation is report.json
without its timing fields plus a digest per task of its filed traces,
written to bench/expected/<workload>.json.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import (
    BENCH, EXPECTED, WORKLOADS, Checkout, batch_argv, check_batch,
    generate_bundle, replay_filed, task_digests,
)
from verdicts import strip_timing


def record(checkout: Checkout, name: str) -> None:
    wl = WORKLOADS[name]
    work = BENCH / ".work" / f"record-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bundle = generate_bundle(checkout, wl, work)
    bands = {}
    for band in wl.bands:
        key = " ".join(map(str, band))
        out = work / key.replace(" ", "_")
        wall, _, _, code = checkout.run(batch_argv(bundle, band, wl.workers, out),
                                        work / f"{out.name}.log")
        report = json.loads((out / "report.json").read_text())
        expected = {"report": strip_timing(report), "traces": task_digests(report, out)}
        check = check_batch(wl, expected, out, code)
        check.add(replay_filed(bundle, band, out), "replay")
        if check.failed or check.problems:
            raise SystemExit(f"{name} --range {key}: " + "; ".join(check.problems[:10]))
        bands[key] = expected
        print(f"{name} --range {key}: {check.units} units in {wall:.1f}s", flush=True)
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{name}.json").write_text(render(name, bands))


def render(name: str, bands: dict) -> str:
    """The expectation file as JSON with one task per line."""
    parts = []
    for key, expected in sorted(bands.items()):
        head = {k: v for k, v in expected["report"].items() if k != "tasks"}
        tasks = ",\n".join(json.dumps(t, sort_keys=True) for t in expected["report"]["tasks"])
        parts.append(f'{json.dumps(key)}: {{"traces": {json.dumps(expected["traces"])},\n'
                     f'"report": {json.dumps(head, sort_keys=True)[:-1]}, "tasks": [\n'
                     f'{tasks}]}}}}')
    return f'{{"workload": {json.dumps(name)}, "bands": {{\n' + ",\n".join(parts) + "}}\n"


if __name__ == "__main__":
    checkout = Checkout(Path.cwd())
    sys.path.insert(0, str(checkout.src))
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(checkout, name)
