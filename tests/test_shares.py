import os
import pickle
import signal
import sys
import threading
import time

import pytest

from forking import no_child_left
from qtomo import _shares
from qtomo.errors import ConfigError, FormatError

UNIT = _shares.SHARE_CELLS  # a unit of work that is worth a process of its own


def _where(a: int, b: int) -> tuple:
    return a, b, os.getpid()


def _refuse_fork(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)


def test_shares_run_in_order_one_process_each(monkeypatch):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)
    results = _shares.run_shares(_where, 7, UNIT)
    assert [(a, b) for a, b, _ in results] == [(0, 3), (3, 5), (5, 7)]  # the first is largest
    pids = [pid for _, _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    no_child_left()


def test_each_child_moves_to_its_own_cpu_and_every_process_keeps_the_mask(monkeypatch):
    # the caller is not moved; child k goes to CPU k - 1 of the ring, then
    # takes back the whole mask
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)
    moves, setaffinity = [], os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(
        set(cpus)) or setaffinity(pid, cpus))
    mask = os.sched_getaffinity(0)
    ring = sorted(mask)[::-1]
    monkeypatch.setattr(_shares, "_cpus_after_this_one", lambda m: ring if m == mask else None)

    def work(a, b):
        return moves, os.sched_getaffinity(0)

    assert _shares.run_shares(work, 3, UNIT) == [
        ([], mask), ([{ring[0]}, mask], mask), ([{ring[1 % len(ring)]}, mask], mask)]
    assert moves == [] and os.sched_getaffinity(0) == mask


def test_the_cpu_ring_starts_after_the_cpu_this_process_runs_on():
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    try:
        for k, cpu in enumerate(cpus):
            os.sched_setaffinity(0, {cpu})
            assert _shares._cpus_after_this_one(mask) == cpus[k + 1:] + cpus[:k + 1]
    finally:
        os.sched_setaffinity(0, mask)


def test_without_proc_the_cpu_ring_starts_at_the_first_cpu(monkeypatch):
    def unreadable(path, mode="r"):
        raise FileNotFoundError(path)

    monkeypatch.setattr(_shares, "open", unreadable, raising=False)
    mask = os.sched_getaffinity(0)
    assert _shares._cpus_after_this_one(mask) == sorted(mask)


def test_the_process_count_is_capped_by_memory_whatever_the_cpu_count(monkeypatch):
    # three processes for units of a third of PROCESS_CELLS, and two however
    # large the units: the largest bootstraps draw while they invert
    monkeypatch.setattr(_shares, "_worker_count", lambda: 16)
    units = {_shares.PROCESS_CELLS // 3: 3, 6**8: 2, 6**9: 2, 6**12: 2}
    for cells, processes in units.items():
        assert len({pid for _, _, pid in _shares.run_shares(_where, 10, cells)}) == processes
    no_child_left()


def _in_a_share(work):
    """Run ``work`` inside the first share of a two-process call."""
    def outer(a, b):
        return work() if a == 0 else None

    return _shares.run_shares(outer, 2, UNIT)[0]


@pytest.mark.parametrize("case", [
    "one share", "one CPU", "little work", "nested", "second thread", "not the main thread",
    "not Linux"])
def test_one_process_runs_the_loop_without_forking(monkeypatch, case):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 1 if case == "one CPU" else 4)
    count = 1 if case == "one share" else 5
    # five units, less work in all than two processes need
    cells = (2 * UNIT - 1) // 5 if case == "little work" else UNIT
    if case == "not Linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    if case == "not the main thread":  # the only one that may set SIGCHLD's disposition
        monkeypatch.setattr(threading, "main_thread", lambda: None)

    def call():
        _refuse_fork(monkeypatch)
        return _shares.run_shares(_where, count, cells)

    if case == "nested":
        assert _in_a_share(call) == [(0, 5, os.getpid())]
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if case == "second thread":
        thread.start()
    try:
        assert call() == [(0, count, os.getpid())]
    finally:
        release.set()
        if case == "second thread":
            thread.join(timeout=60)
            assert not thread.is_alive()


def test_a_failed_share_stops_the_other_children(monkeypatch):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)

    def work(a, b):
        if a == 0:
            raise RuntimeError("first share failed")
        time.sleep(60)

    start, mask = time.monotonic(), os.sched_getaffinity(0)
    with pytest.raises(RuntimeError, match="first share failed"):
        _shares.run_shares(work, 3, UNIT)
    assert time.monotonic() - start < 30
    assert os.sched_getaffinity(0) == mask
    no_child_left()


@pytest.mark.parametrize("failed", [1, 2])
def test_a_failed_fork_reaches_the_caller_and_leaves_no_descriptor_or_child(monkeypatch, failed):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)
    fork, forks = os.fork, []

    def fork_until_it_fails():
        forks.append(1)
        if len(forks) == failed:
            raise BlockingIOError("fork failed")
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_it_fails)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork failed"):
        _shares.run_shares(_where, 3, UNIT)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == failed and not _shares._in_share
    no_child_left()


@pytest.mark.parametrize("fails", [False, True], ids=["results", "error"])
def test_a_caller_that_ignores_sigchld_gets_every_share_and_keeps_its_disposition(monkeypatch,
                                                                                  fails):
    # the kernel would reap each child as it ends, and stopping and reaping
    # it would fail with ESRCH or ECHILD; every share sees the default
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)

    def work(a, b):
        if fails and a == 0:
            raise RuntimeError("first share failed")
        return a, signal.getsignal(signal.SIGCHLD)

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        if fails:
            with pytest.raises(RuntimeError, match="first share failed"):
                _shares.run_shares(work, 3, UNIT)
        else:
            assert _shares.run_shares(work, 3, UNIT) == [(k, signal.SIG_DFL) for k in range(3)]
        assert signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGCHLD, previous)
    no_child_left()


def test_a_child_of_the_caller_that_ends_during_the_call_is_reaped_when_sigchld_is_ignored(
        monkeypatch):
    # the kernel reaps it when it ends before or after the call, not during it
    monkeypatch.setattr(_shares, "_worker_count", lambda: 2)

    def work(a, b):
        if a == 0:
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                time.sleep(0.01)  # until it has ended, unreaped
        return a

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _shares.run_shares(work, 2, UNIT) == [0, 1]
        no_child_left()
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_a_child_that_ends_without_a_result_is_an_error(monkeypatch):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 2)

    def work(a, b):
        if a == 1:
            os._exit(3)
        return a

    with pytest.raises(RuntimeError, match="ended without sending its result"):
        _shares.run_shares(work, 2, UNIT)
    no_child_left()


def test_unflushed_bytes_of_an_open_file_are_written_once(monkeypatch, tmp_path):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 3)
    path = tmp_path / "out.txt"
    with open(path, "w") as fh:
        fh.write("written before the call\n")
        assert path.read_text() == ""  # still in this process's buffer
        assert len(_shares.run_shares(_where, 3, UNIT)) == 3
    assert path.read_text() == "written before the call\n"


@pytest.mark.parametrize("error", [
    FormatError("counts[3].outcome", "bad outcome"), FormatError("", "not an object"),
    ConfigError("bad setting")], ids=repr)
def test_errors_keep_type_message_and_path_through_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, "path", None) == getattr(error, "path", None)
