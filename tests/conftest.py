import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child_process():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):  # no POSIX process table to inspect
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
