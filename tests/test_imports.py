"""Each package imports cleanly when it is the first one a program imports:
lang.validate imports semantics.system, and semantics.elaborate imports
lang.validate, so the order the two packages load in matters. And the CLI
loads no process-pool module until a batch runs on more than one worker."""
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
    # a one-worker command never needs the process pool; concurrent.futures
    # alone pulls in logging, a few ms of every command's start-up
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, fsmcheck.cli; print(' '.join(m for m in "
            "('logging', 'concurrent.futures', 'multiprocessing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
