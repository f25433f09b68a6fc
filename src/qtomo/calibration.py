"""Penalty calibrations: oracle, theoretical formula, and bootstrap.

Three ways to pick the rank penalty nu (whose square root thresholds the
spectrum):

* oracle: the squared operator norm of the actual estimation error,
  computable only when the true state is known (simulation studies);
* theory: the closed-form high-probability bound
  32 (1 + theta) (4/3)^n (n ln 2 - ln eps) / m, a known overestimate;
* bootstrap: re-simulate from the physical projection of the estimate and
  average the synthetic estimation errors, approximating the oracle value
  on real data.

Bootstrap repetitions use seeds derived per repetition, so they can run in
any order (or concurrently) with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inversion, measurement, pauli, states
from .errors import ConfigError

PENALTY_MODES = ("oracle", "theory", "bootstrap", "fixed")


@dataclass
class PenaltyChoice:
    """How to calibrate nu, with the mode-specific parameters."""

    mode: str
    value: float | None = None  # fixed mode
    theta: float = 0.0
    eps: float = 1.0
    reps: int = 20
    seed: int | None = None
    mean_of_squares: bool = False

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ConfigError(
                f"unknown penalty mode {self.mode!r}, expected one of {PENALTY_MODES}"
            )
        if self.mode == "fixed":
            if self.value is None or self.value < 0:
                raise ConfigError(
                    f"fixed penalty needs a value >= 0, got {self.value!r}"
                )


def nu_oracle(est: inversion.LinearEstimate, rho_true: np.ndarray) -> float:
    """Squared operator norm of the estimation error against the true state."""
    rho_true = np.asarray(rho_true, dtype=complex)
    if rho_true.shape != est.matrix.shape:
        raise ValueError(
            f"dimension mismatch: estimate {est.matrix.shape}, truth {rho_true.shape}"
        )
    return states.operator_norm(est.matrix - rho_true) ** 2


def nu_theory(n: int, m: int, theta: float = 0.0, eps: float = 1.0) -> float:
    """High-probability penalty 32 (1+theta) (4/3)^n (n ln 2 - ln eps) / m.

    At theta = 0 this is the squared ``inversion.hoeffding_radius`` (theta > 0
    only enlarges it), so sqrt(nu) bounds the operator-norm error with
    probability >= 1 - 2 eps. On that event every singular value of the
    estimate beyond the true rank d stays below sqrt(nu), and the top d stay
    at or above it once the d-th eigenvalue of the truth is at least
    2 sqrt(nu): the rank is then selected correctly. With eps = 1 (the CLI
    and study default) the -ln eps term drops and the bound carries no
    probability guarantee.
    """
    pauli.check_qubits(n)
    if m < 1:
        raise ValueError(f"repetition count m={m} must be >= 1")
    if theta < 0:
        raise ValueError(f"theta={theta} must be >= 0")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps={eps} out of (0, 1]")
    return (
        32.0
        * (1.0 + theta)
        * (4.0 / 3.0) ** n
        * (n * math.log(2.0) - math.log(eps))
        / m
    )


def bootstrap_norms(
    est: inversion.LinearEstimate, m: int, reps: int, seed
) -> np.ndarray:
    """Operator norms of synthetic estimation errors, one per repetition.

    Projects the estimate to a physical state, re-simulates ``reps``
    datasets of the same size from its probability table (computed once),
    inverts each, and records the operator norm of (synthetic estimate -
    physical state).
    """
    if reps < 2:
        raise ValueError(f"bootstrap needs reps >= 2, got {reps}")
    sigma = states.nearest_density(est.matrix)
    table = measurement.probability_table(sigma)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    norms = np.empty(reps)
    for j, child in enumerate(root.spawn(reps)):
        ds = measurement._sample_dataset(table, m, child)
        synth = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        norms[j] = states.operator_norm(synth.matrix - sigma)
    return norms


def nu_bootstrap(
    est: inversion.LinearEstimate,
    m: int,
    reps: int,
    seed,
    mean_of_squares: bool = False,
) -> float:
    """Bootstrap estimate of the oracle penalty.

    Default aggregation squares the mean norm; ``mean_of_squares=True``
    averages the squared norms instead.
    """
    return _aggregate_norms(bootstrap_norms(est, m, reps, seed), mean_of_squares)


def _aggregate_norms(norms: np.ndarray, mean_of_squares: bool) -> float:
    """Squared mean norm, or the mean squared norm with ``mean_of_squares``."""
    if mean_of_squares:
        return float(np.mean(norms**2))
    return float(np.mean(norms) ** 2)


def resolve_penalty(
    choice: PenaltyChoice,
    est: inversion.LinearEstimate,
    m: int,
    rho_true: np.ndarray | None = None,
) -> tuple[float, dict]:
    """Evaluate a penalty choice; returns (nu, details for the report)."""
    if choice.mode == "fixed":
        return float(choice.value), {}
    if choice.mode == "oracle":
        if rho_true is None:
            raise ConfigError("oracle penalty needs the true state")
        return nu_oracle(est, rho_true), {}
    if choice.mode == "theory":
        return nu_theory(est.n, m, choice.theta, choice.eps), {
            "theta": choice.theta,
            "eps": choice.eps,
        }
    # bootstrap
    seed = 0 if choice.seed is None else choice.seed
    norms = bootstrap_norms(est, m, choice.reps, seed)
    return _aggregate_norms(norms, choice.mean_of_squares), {
        "norms": [float(x) for x in norms],
        "reps": choice.reps,
    }


def calibration_report_dict(mode: str, value: float, details: dict) -> dict:
    return {"mode": mode, "value": float(value), "details": details}
