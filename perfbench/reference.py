"""Fixed reference work that measures how fast the host runs right now.

On a shared cloud host a core's speed drifts: on a 2-vCPU Xeon VM, phases of
tens of seconds to minutes ran 1.3-1.9x slower than others, and every kind of
work (Python loops, small LAPACK calls, memory copies, JSON) slowed by about
the same factor. The benchmark times this probe next to each timed step and
scales the step's seconds by ``NOMINAL_S / probe seconds``, so a slow phase
cancels out while a change to qtomo moves only the step's own seconds. The
probe uses no qtomo code and the same inputs in every run, whatever the
workload seed.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Probe seconds that adjusted times are scaled to: about what the probe takes
# on a 2-vCPU Xeon VM in a quiet phase.
NOMINAL_S = 0.3


class Reference:
    """A mix of the kinds of work qtomo's commands do."""

    ROUNDS = 4

    def __init__(self) -> None:
        rng = np.random.default_rng(20120608)
        half = rng.standard_normal((128, 128))
        self.matrix = half + half.T
        self.block = rng.standard_normal(1 << 20)
        self.record = {f"{i:08b}": [i, 2 * i] for i in range(6000)}
        self._work()  # warm-up: first LAPACK call, first touch of the buffers

    def _work(self) -> None:
        total = 0
        for i in range(120_000):  # interpreter loop
            total += i * i
        for _ in range(8):  # small dense eigensolve
            np.linalg.eigh(self.matrix)
        for _ in range(8):  # memory traffic over 8 MB
            self.block.copy().sum()
        # indented JSON goes through the pure-Python encoder, as dataset files do
        text = json.dumps(self.record, indent=2, sort_keys=True)
        for _ in range(3):
            json.loads(text)

    def seconds(self) -> float:
        """Wall seconds of one probe."""
        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            self._work()
        return time.perf_counter() - start


def adjusted(seconds: float, probe_seconds: float) -> float:
    """``seconds`` scaled to a host on which the probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_seconds
