"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def one_thread_stdout():
    """Run a test module as a script in a child process with one BLAS thread
    and return what it prints, stripped.

    The BLAS thread count changes the bits of a ridge fit, and numpy fixes it
    when it loads, so a digest of fitted output is pinned from a child with
    one thread, as the benchmark runs, whatever the machine's CPU count.
    """
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(script) -> str:
        child = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                               text=True)
        assert child.returncode == 0, child.stderr
        return child.stdout.strip()
    return run
