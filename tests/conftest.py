"""Fixtures shared by the test modules."""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusioncast.errors import ValidationError
from fusioncast.protocol import encode

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


@pytest.fixture
def message_is_fixed():
    """Check that ``value`` cannot reach ``field`` of wire message ``msg``:
    no attribute store or delete changes it, and ``_replace`` runs the
    constructor's checks, which refuse it."""

    def check(msg, field, value) -> None:
        before, frame = tuple(msg), encode(msg)
        with pytest.raises(AttributeError):
            object.__setattr__(msg, field, value)
        with pytest.raises(AttributeError):
            setattr(msg, field, value)
        with pytest.raises(AttributeError):
            delattr(msg, field)
        assert all(map(operator.is_, msg, before)) and encode(msg) == frame
        with pytest.raises(ValidationError):
            msg._replace(**{field: value})
    return check
