"""Fixtures shared by every test module."""

import os

# Before anything imports numpy: one BLAS thread per process, so the forked
# workers of the pool tests do not each start a thread per CPU.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import multiprocessing  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: every worker pool
    must be joined before the call that started it returns or raises."""
    yield
    alive = multiprocessing.active_children()
    assert alive == [], f"child processes still running: {alive}"
