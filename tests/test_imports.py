"""Each package imports cleanly when it is the first one a program imports:
lang.validate imports semantics.system, and semantics.elaborate imports
lang.validate, so the order the two packages load in matters. And the CLI
loads no module of the forked workers until a batch runs on more than one
worker, and never a process-pool module."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsmcheck

SRC = str(Path(fsmcheck.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", [
    "fsmcheck.lang", "fsmcheck.semantics", "fsmcheck.ltl", "fsmcheck.checker",
    "fsmcheck.driver", "fsmcheck.cli",
])
def test_package_imports_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_leaves_the_pool_modules_unloaded():
    # a one-worker command never needs the forked workers' modules;
    # concurrent.futures alone pulls in logging, a few ms of every start-up
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, fsmcheck.cli; print(' '.join(m for m in ('logging', "
            "'concurrent.futures', 'multiprocessing', 'pickle', 'select') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_cli_leaves_the_generator_and_the_oracle_unloaded():
    # only gen-vcs generates a bundle, and only the tests run the oracle
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, fsmcheck.cli; print(' '.join(m for m in ('fsmcheck.vcs.generate', "
            "'fsmcheck.checker.brute') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_a_two_worker_batch_loads_no_pool_module(tmp_path):
    # the batch forks its workers itself
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"""import sys
from fsmcheck.cli import main
out = {str(tmp_path)!r}
assert main(["gen-vcs", "--out", out]) == 0
assert main(["batch", "--template", out + "/vcs.fsm", "--failures", out + "/failures.csv",
             "--matrix", out + "/target_modes.csv", "--specs", out + "/specs.ltl",
             "--range", "1", "1", "1", "2", "--workers", "2", "--out", out + "/batch"]) == 0
print("loaded:", *(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"
