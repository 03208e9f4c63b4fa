"""Fixtures shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: every worker pool
    must be joined before the call that started it returns or raises."""
    yield
    alive = multiprocessing.active_children()
    assert alive == [], f"child processes still running: {alive}"
