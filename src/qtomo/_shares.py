"""Contiguous shares of a loop, run in forked worker processes.

``Generator.multinomial`` holds the GIL, so threads cannot draw in parallel;
processes can. ``run_shares(work, count, cells)`` splits ``range(count)``
into contiguous shares, one per process, and returns each share's
``work(a, b)`` in share order. This process runs the first share; each other
share runs in an ``os.fork``ed child, which sends back its pickled result,
or its pickled exception, over a pipe and ends with ``os._exit``: it runs no
exit handler and flushes no buffer it inherited, so bytes this process has
not yet written reach their file once. Results do not depend on the process
count as long as every unit of work draws from its own ``measurement.stream``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
from typing import Callable, TypeVar

T = TypeVar("T")

# The most table cells that the processes of one call draw at once, one unit
# of work each (``cells``, see ``run_shares``), so the memory of a call does
# not grow with the CPU count: 2^22 cells is two processes for 6^8-cell units.
# A call may always use two processes, however large its units, so that the
# largest bootstraps still draw one repetition while another is inverted.
PROCESS_CELLS = 2**22
# The fewest table cells that each process of a call draws: a fork costs a
# few milliseconds (page tables, copy-on-write faults, reaping), about what
# drawing and inverting 2^17 cells takes, so a call with less work than
# that per process uses fewer processes.
SHARE_CELLS = 2**17

# True while a share runs, in this process or a child: a nested call (the
# bootstrap of a point of a parallel sweep) then runs in its share's process.
_in_share = False


def run_shares(work: Callable[[int, int], T], count: int, cells: int) -> list[T]:
    """``[work(a, b)]`` over contiguous shares of ``range(count)``, in share order.

    ``cells`` is the count of table cells that one unit of work draws, which
    also sets the scale of what it holds at once. The process count is
    min(CPUs in the affinity mask, ``count``, max(2, ``PROCESS_CELLS //
    cells``), ``count * cells // SHARE_CELLS``), at least 1. One process runs
    ``work(0, count)``, with no fork, inside a running share, on a platform
    other than Linux, when this process has another live Python thread,
    which a fork would not copy, and on a thread other than the main one,
    the only one that may set the SIGCHLD disposition (see below). Threads
    that Python does not know of, such as a BLAS library's pool, are not
    counted: OpenBLAS, numpy's usual BLAS, stops its pool around a fork, but
    a BLAS whose threads do not survive a fork (GNU OpenMP) may hang a child
    that calls it.

    This process stays where it runs. Each child moves itself to its own CPU
    of the mask, starting after this process's CPU, and then takes back the
    whole mask: a kernel that does not balance load (a cpuset with
    sched_load_balance 0) would otherwise keep every child on this process's
    CPU, and one that does may still move the child. An exception from any
    share reaches the caller with its type and message; the other children
    are then stopped. No child outlives the call, and a failed fork leaves
    no descriptor open. An ignored SIGCHLD, which would let the kernel reap
    a child, and give its pid away, before the call stops it, is set to its
    default for the call; the caller's own children that end meanwhile are
    reaped after it.
    """
    global _in_share
    processes = 1
    if (sys.platform == "linux" and not _in_share and threading.active_count() == 1
            and threading.current_thread() is threading.main_thread()):
        processes = min(_worker_count(), count, max(2, PROCESS_CELLS // cells),
                        count * cells // SHARE_CELLS)
    if processes < 2:
        return [work(0, count)]
    # the first share, which this process runs, is the largest: a child's
    # share takes more copy-on-write faults
    bounds = [count - count * (processes - k) // processes for k in range(processes + 1)]
    mask = os.sched_getaffinity(0)
    cpus = _cpus_after_this_one(mask)
    children = []  # (pid, read end of its pipe) per share after the first
    ignored = signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
    try:
        _in_share = True  # in this process and in every child
        if ignored:
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        for k in range(1, processes):
            children.append(_fork(work, bounds[k], bounds[k + 1], cpus[(k - 1) % len(cpus)], mask))
        results = [work(bounds[0], bounds[1])]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                results.append(_result(pipe.read()))
        return results
    finally:
        _in_share = False
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)  # harmless once a child has sent its result
            os.close(fd)
            os.waitpid(pid, 0)
        if ignored:  # once the children are reaped: waitpid fails while it is ignored
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            with contextlib.suppress(ChildProcessError):
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass


def _worker_count() -> int:
    """One process per CPU in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _cpus_after_this_one(mask: set[int]) -> list[int]:
    """The CPUs of ``mask`` in a ring that starts after the one this process last ran on."""
    cpus = sorted(mask)
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, "processor"
    except OSError:  # no /proc: start the ring at the first CPU
        cpu = None
    k = cpus.index(cpu) + 1 if cpu in mask else 0
    return cpus[k:] + cpus[:k]


def _fork(work: Callable[[int, int], T], a: int, b: int, cpu: int,
          mask: set[int]) -> tuple[int, int]:
    """Start a child, moved to ``cpu``, that sends back ``(True, work(a, b))`` or ``(False, exception)``."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.sched_setaffinity(0, {cpu})  # moves the child there
            os.sched_setaffinity(0, mask)
            try:
                sent = True, work(a, b)
            except BaseException as exc:  # sent to the caller, which raises it
                sent = False, exc
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(sent))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _result(data: bytes):
    """The value a child sent, or its exception raised here."""
    if not data:
        raise RuntimeError("a worker process ended without sending its result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value
