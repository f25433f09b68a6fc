"""Penalty calibrations: oracle, theoretical formula, and bootstrap.

Three ways to pick the rank penalty nu (whose square root thresholds the
spectrum), besides a fixed value:

* oracle: the squared operator norm of the actual estimation error,
  computable only when the true state is known (simulation studies);
* theory: the closed-form high-probability bound
  32 (1 + theta) (4/3)^n (n ln 2 - ln eps) / m, a known overestimate;
* bootstrap: re-simulate from the physical projection of the estimate and
  average the synthetic estimation errors, approximating the oracle value
  on real data.

Bootstrap repetition j draws from ``measurement.stream(seed, j)``, so the
repetitions can be drawn in any order and in any process; ``bootstrap_norms``
shares its batches out among forked worker processes (``_shares``) and gives
the same norms at any process count. See the determinism contract in
``measurement``.

``PenaltyChoice.parse`` reads the one penalty grammar that the command line
and the studies share, and ``resolve_penalty`` is the one evaluator. The
command line and the study sweep reach it through ``calibrate``, the one fit
path: it inverts a dataset, scores the estimate against the true state when
there is one, and decomposes the estimate, each once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _shares, inversion, measurement, pauli, rankpen, states
from .errors import ConfigError, integer

PENALTY_MODES = ("oracle", "theory", "bootstrap", "fixed")
PENALTY_GRAMMAR = "oracle | theory | bootstrap | fixed:VALUE | VALUE, VALUE finite and >= 0"

# The most table cells (6^n per repetition) that one bootstrap batch inverts
# together. A batch spreads the fixed cost of each call in the inversion chain
# over its repetitions, which pays only while a table is small. 2^15 is the
# largest power of two below 6^6 = 46,656: a batch holds 25 repetitions at
# n = 4 (so the default 20 make one batch) and 4 at n = 5, and from n = 6 on
# one, so a large run inverts one repetition at a time, as it did unbatched.
# Batches are also the unit that the processes of a bootstrap share out; a
# bootstrap of one batch runs in the calling process.
BATCH_CELLS = 2**15


@dataclass
class PenaltyChoice:
    """How to calibrate nu, with the mode-specific parameters."""

    mode: str
    value: float | None = None  # fixed mode
    theta: float = 0.0
    eps: float = 1.0
    reps: int = 20

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ConfigError(
                f"unknown penalty mode {self.mode!r}, expected one of {PENALTY_MODES}"
            )
        if self.mode == "fixed":
            if self.value is None:
                raise ConfigError("fixed penalty needs a value")
            self.value = rankpen.check_penalty(self.value) + 0.0  # -0.0 is written as 0.0
        # the evaluators' own checks, made before any work; the values are
        # stored as Python numbers, which the report's JSON writes
        if self.mode == "theory":
            nu_theory(1, 1, self.theta, self.eps)
            self.theta, self.eps = float(self.theta), float(self.eps)
        if self.mode == "bootstrap":
            self.reps = _check_reps(self.reps)

    @classmethod
    def parse(cls, text: str, *, theta: float, eps: float, reps: int) -> PenaltyChoice:
        """Read one penalty token: oracle | theory | bootstrap | fixed:VALUE | VALUE.

        A bare number means ``fixed:`` that number. Surrounding whitespace is
        ignored; anything else raises ConfigError.
        """
        token = text.strip()
        mode, value = token, None
        if token.startswith("fixed:") or token not in PENALTY_MODES:
            try:
                mode, value = "fixed", float(token.removeprefix("fixed:"))
            except ValueError:
                raise ConfigError(f"penalty {text!r}: expected {PENALTY_GRAMMAR}") from None
        return cls(mode, value, theta, eps, reps)


def nu_theory(n: int, m: int, theta: float = 0.0, eps: float = 1.0) -> float:
    """High-probability penalty 32 (1+theta) (4/3)^n (n ln 2 - ln eps) / m.

    At theta = 0 this is the squared ``inversion.hoeffding_radius`` (theta > 0
    only enlarges it), so sqrt(nu) bounds the operator-norm error with
    probability >= 1 - 2 eps. On that event every singular value of the
    estimate beyond the true rank d stays below sqrt(nu), and the top d stay
    at or above it once the d-th eigenvalue of the truth is at least
    2 sqrt(nu): the rank is then selected correctly. With eps = 1 (the CLI
    and study default) the -ln eps term drops and the bound carries no
    probability guarantee. An overflowing nu raises ConfigError.
    """
    pauli.check_qubits(n)
    measurement.check_repetitions(m)
    if not 0.0 <= theta < math.inf:
        raise ConfigError(f"theta={theta} must be finite and >= 0")
    if not 0.0 < eps <= 1.0:
        raise ConfigError(f"eps={eps} out of (0, 1]")
    return rankpen.check_penalty(
        32.0 * (1.0 + theta) * (4.0 / 3.0) ** n * (n * math.log(2.0) - math.log(eps)) / m
    )


def bootstrap_norms(
    dec: rankpen.SpectralDecomposition, m: int, reps: int, seed
) -> np.ndarray:
    """Operator norms of synthetic estimation errors, one per repetition.

    Projects the estimate, given by its ``rankpen.spectral`` decomposition,
    to a physical state, re-simulates ``reps`` datasets of the same size from
    its outcome law (built and checked once), inverts each, and records the
    operator norm of (synthetic estimate - physical state). The repetitions
    are drawn one stream each and inverted in stacked batches of at most
    ``BATCH_CELLS`` table cells; each norm has the bits of its repetition
    inverted alone. The batches are split into contiguous shares, one per
    process of ``_shares.run_shares``: a process per CPU in the affinity
    mask, up to its memory cap, each drawing and inverting its own batches.
    The norms do not depend on the process count, and a share's error
    reaches the caller.
    """
    _check_reps(reps)
    measurement.check_repetitions(m)
    sigma = states.nearest_density(dec.eigenvalues, dec.vectors)
    law = measurement.outcome_law(sigma)
    size = max(1, BATCH_CELLS // law.size)

    def norms(first: int, last: int) -> np.ndarray:
        """The norms of batches ``first`` to ``last - 1``, drawn and inverted a batch at a time."""
        out = []
        for start in range(first * size, min(last * size, reps), size):
            streams = [measurement.stream(seed, j) for j in range(start, min(start + size, reps))]
            freqs = measurement.empirical_frequencies(measurement.Dataset(
                n=dec.n, m=m, counts=measurement.draw_counts(law, m, streams)))
            out.append(states.operator_norm(inversion.linear_estimator(freqs) - sigma))
            del freqs  # freed before the next batch's draw
        return np.concatenate(out)

    batches = -(-reps // size)
    return np.concatenate(_shares.run_shares(norms, batches, size * law.size))


def _check_reps(reps: int) -> int:
    """reps as an int if it is an integer >= 2; else ConfigError."""
    reps = integer(reps, "bootstrap reps")
    if reps < 2:
        raise ConfigError(f"bootstrap needs reps >= 2, got {reps}")
    return reps


def resolve_penalty(choice: PenaltyChoice, dec: rankpen.SpectralDecomposition, m: int, seed,
                    op_error: float | None = None) -> tuple[float, dict]:
    """Evaluate a penalty choice; returns (nu, details for the report).

    ``dec`` is the ``rankpen.spectral`` decomposition of the linear estimate,
    the one its fit reads. ``op_error`` is the operator norm of (estimate -
    true state), which only the oracle reads: its nu is ``op_error**2``.
    ``seed`` (an int or a SeedSequence) drives the bootstrap draws and is
    ignored by the other modes.
    """
    if choice.mode == "fixed":
        return float(choice.value), {}
    if choice.mode == "theory":
        return nu_theory(dec.n, m, choice.theta, choice.eps), {
            "theta": choice.theta,
            "eps": choice.eps,
        }
    if choice.mode == "oracle":
        if op_error is None:
            raise ConfigError("oracle penalty needs the true state")
        return op_error**2, {}
    # bootstrap
    norms = bootstrap_norms(dec, m, choice.reps, seed)
    return float(np.mean(norms) ** 2), {
        "norms": [float(x) for x in norms],
        "reps": choice.reps,
    }


def calibrate(dataset: measurement.Dataset, choices: Sequence[PenaltyChoice], seed,
              rho_true: np.ndarray | None = None) -> tuple:
    """Invert ``dataset`` once and evaluate every choice on its estimate.

    Returns (dec, penalties, op_error, frob_error): the estimate's one
    ``rankpen.spectral`` decomposition (None, and nothing decomposed, when
    there is no choice), one (nu, details) per choice, and the operator and
    Frobenius norms of (estimate - ``rho_true``), which the oracle reads and
    which are None without a true state. ``seed`` drives every bootstrap choice.
    """
    est = inversion.linear_estimator(measurement.empirical_frequencies(dataset))
    op_error = frob_error = None
    if rho_true is not None:
        rho_true = np.asarray(rho_true, dtype=complex)
        if rho_true.shape != est.shape:
            raise ValueError(f"dimension mismatch: estimate {est.shape}, truth {rho_true.shape}")
        diff = est - rho_true
        op_error, frob_error = states.operator_norm(diff), states.frobenius_norm(diff)
    dec = rankpen.spectral(est) if choices else None
    penalties = [resolve_penalty(choice, dec, dataset.m, seed, op_error) for choice in choices]
    return dec, penalties, op_error, frob_error
