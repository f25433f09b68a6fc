"""Closed-form tomographic inversion and its analytic error quantities.

Because the Gram matrix of the measurement design is diagonal with entries
3^degree(b) * 2^n, the least-squares inversion of observed frequencies has a
closed form: each Pauli coefficient is a design-weighted sum of frequencies
divided by its Gram entry. Applied to exact probabilities this reproduces
the state exactly; applied to empirical frequencies it yields an unbiased
Hermitian estimate with unit trace that need not be positive semidefinite.

The analytic companions: a per-coefficient variance bound
1 / (3^degree * 4^n * m), a high-probability radius for the operator norm
of the estimation error, and the factor 2^(n/2) converting Frobenius error
bounds into trace-norm bounds.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels, pauli, states
from .measurement import EmpiricalFrequencies, check_repetitions

# diag(E.T @ E) of one qubit: 6 for the identity, 2 for x, y and z
_GRAM_1Q = (_kernels.E**2).sum(axis=0)


def invert_coefficients(freqs: EmpiricalFrequencies) -> np.ndarray:
    """Pauli coefficients recovered from per-setting outcome frequencies.

    ``coeffs[b]`` is the sum over (setting a, outcome r) of the frequency
    times the design entry Tr(sigma_b P_r^a), divided by 3^degree(b) * 2^n.
    Only the 3^degree(b) settings matching b outside its identity positions
    contribute (the other design entries are zero).
    """
    sums = _kernels.design_adjoint_sums(freqs.values, freqs.n)
    return sums / _gram_diagonal(freqs.n)


def _gram_diagonal(n: int) -> np.ndarray:
    """The Gram diagonal 3^degree(b) * 2^n in label order, (4^n,) float64.

    It is the outer product of n copies of the one-qubit diagonal; every
    entry is an integer below 2^53, so the product is exact. It is rebuilt
    per call, once per bootstrap batch: a cached copy that outlived the call
    fragmented the heap and raised the peak RSS of a simulate-then-estimate
    loop at n = 8 by about 30 MB.
    """
    diag = np.ones(1)
    for _ in range(n):
        diag = np.multiply.outer(diag, _GRAM_1Q).ravel()
    return diag


def linear_estimator(freqs: EmpiricalFrequencies) -> np.ndarray:
    """The inverted coefficients assembled into the linear estimate.

    The (2^n, 2^n) complex matrix is Hermitian with trace exactly 1 (up to
    rounding) but may have negative eigenvalues. The estimate of a stack of
    frequency tables is a stack too, with the same leading axes.
    """
    return states.pauli_assemble(invert_coefficients(freqs))


def variance_bound(b: str, m: int) -> float:
    """Upper bound on the variance of one inverted coefficient.

    Equals 1 / (3^degree(b) * 4^n * m); sharp for the maximally mixed state.
    """
    check_repetitions(m)
    n = len(b)
    d = pauli.degree(b)
    return 1.0 / (3.0**d * 4.0**n * m)


def hoeffding_radius(n: int, m: int, eps: float) -> float:
    """Radius r such that P(lambda_max(estimate - truth) >= r) <= eps.

    Matrix-Hoeffding bound: 4 * sqrt(2 (4/3)^n (n ln 2 - ln eps) / m). The
    term n ln 2 - ln eps = ln(2^n / eps) is the one-sided (largest
    eigenvalue) form; applying it to both tails, the operator norm obeys
    P(op-norm(estimate - truth) >= r) <= 2 eps. r bounds the norm itself, not
    its square: r^2 equals ``calibration.nu_theory`` at theta = 0.
    Monotone decreasing in both m and eps; eps = 1 is allowed and drops the
    -ln eps term, leaving no probability guarantee.
    """
    pauli.check_qubits(n)
    check_repetitions(m)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps={eps} out of (0, 1]")
    return 4.0 * math.sqrt(
        2.0 * (4.0 / 3.0) ** n * (n * math.log(2.0) - math.log(eps)) / m
    )


def trace_norm_factor(n: int) -> float:
    """Factor 2^(n/2) bounding the trace norm by the Frobenius norm."""
    pauli.check_qubits(n)
    return 2.0 ** (n / 2.0)
