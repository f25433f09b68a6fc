"""Helpers for the tests of code that shares its work among forked processes.

They live here, not in conftest.py, because the conftest reference imports
no qtomo code (see test_acceptance.test_reference_imports_no_qtomo).
"""

import os

import pytest

from qtomo import _shares


def allow_processes(monkeypatch, count: int) -> None:
    """Let ``_shares`` calls fork up to ``count`` processes, however small their work."""
    monkeypatch.setattr(_shares, "_worker_count", lambda: count)
    monkeypatch.setattr(_shares, "SHARE_CELLS", 1)


def no_child_left():
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
