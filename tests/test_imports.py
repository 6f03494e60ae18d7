"""Each package imports cleanly when it is the first one a program imports:
lang.validate imports semantics.system, and semantics.elaborate imports
lang.validate, so the order the two packages load in matters."""
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
