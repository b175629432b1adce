"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test leaves no child process, running or a zombie: save_dataset and
    load_pair reap the children they fork on every path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
