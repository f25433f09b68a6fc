"""Rank-penalized spectral estimator on top of the linear estimate.

For a penalty nu >= 0 the fit minimizes, over Hermitian matrices R,
``frobenius(R - estimate)^2 + nu * rank(R)``. Minimizing at fixed rank k is
the classical best rank-k approximation (top-k spectral triplets), with
residual equal to the sum of the squared discarded singular values, so the
whole program reduces to minimizing ``sum_{j>k} s_j^2 + nu k`` over
k = 0 .. 2^n. Step k adds nu - s_k^2 and the s_k decrease, so the minimizer
is the number of singular values at or above sqrt(nu), which
``select_rank_threshold`` counts; a tie s_k = sqrt(nu) takes the larger rank.

The selected matrix is generally still not a state. From the same eigensystem
the fit builds the nearest density matrix of rank <= max(k_hat, 1) to the
linear estimate: its top max(k_hat, 1) signed eigenvalues projected onto the
simplex, with their eigenvectors (at k_hat = 0, the top eigenvector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .errors import ConfigError


@dataclass
class SpectralDecomposition:
    """The eigensystem of a Hermitian matrix, ordered by decreasing absolute eigenvalue.

    For a Hermitian matrix the singular values are the absolute eigenvalues,
    so one symmetric eigensolve provides both. The fit, the spectrum and
    every penalty read the linear estimate through its one decomposition.
    """

    singular_values: np.ndarray  # (dim,) non-negative, decreasing
    eigenvalues: np.ndarray  # (dim,) signed, same order
    vectors: np.ndarray  # (dim, dim) orthonormal columns, same order

    @property
    def n(self) -> int:
        return self.eigenvalues.size.bit_length() - 1


@dataclass
class RankPenalizedFit:
    """Result of the penalized fit.

    ``objective[k]`` is the penalized residual at rank k for k = 0 .. dim;
    ``estimate`` is the best rank-k_hat approximation of the input and
    ``physical_estimate`` the nearest density matrix to the input of rank at
    most max(k_hat, 1); when the retained eigenvalues are
    positive, that is also the projection of ``estimate`` onto states.
    """

    k_hat: int
    estimate: np.ndarray
    physical_estimate: np.ndarray
    objective: np.ndarray


def _tail_sums(s: np.ndarray) -> np.ndarray:
    """Entry k is ``sum(s[k:] ** 2)`` for k = 0 .. len(s); the last entry is 0."""
    return np.append(np.cumsum(s[::-1] ** 2)[::-1], 0.0)


def check_penalty(nu: float) -> float:
    """nu if it is finite and >= 0, else ConfigError."""
    if not 0.0 <= nu < np.inf:
        raise ConfigError(f"penalty nu={nu} must be finite and >= 0")
    return nu


def spectral(matrix: np.ndarray) -> SpectralDecomposition:
    """Decompose a Hermitian matrix by decreasing singular value."""
    matrix = states.require_hermitian(matrix)
    w, v = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(w), kind="stable")
    return SpectralDecomposition(
        singular_values=np.abs(w)[order],
        eigenvalues=w[order],
        vectors=v[:, order],
    )


def truncate(dec: SpectralDecomposition, k: int) -> np.ndarray:
    """Best Frobenius rank-k approximation from the top-k spectral triplets.

    k = 0 gives the zero matrix; k = dim reproduces the input.
    """
    dim = dec.eigenvalues.size
    if not 0 <= k <= dim:
        raise ValueError(f"rank k={k} out of range [0, {dim}]")
    vk = dec.vectors[:, :k]
    return (vk * dec.eigenvalues[:k]) @ vk.conj().T


def select_rank_threshold(dec: SpectralDecomposition, nu: float) -> int:
    """Largest k whose k-th singular value reaches sqrt(nu); 0 if none.

    The comparison is non-strict, so a singular value exactly at the
    threshold is selected.
    """
    check_penalty(nu)
    return int(np.count_nonzero(dec.singular_values >= np.sqrt(nu)))


def penalized_fit(dec: SpectralDecomposition, nu: float) -> RankPenalizedFit:
    """Select the rank with ``select_rank_threshold``; build both estimates from ``dec``.

    ``dec`` is the ``spectral`` decomposition of the linear estimate, the one
    its penalty reads too, so a fit and its penalty share one eigensolve.
    """
    k_hat = select_rank_threshold(dec, nu)
    with np.errstate(over="ignore"):  # nu * k may overflow to inf
        objective = _tail_sums(dec.singular_values) + nu * np.arange(dec.singular_values.size + 1)
    return RankPenalizedFit(
        k_hat=k_hat,
        estimate=truncate(dec, k_hat),
        physical_estimate=states.nearest_density(dec.eigenvalues, dec.vectors, max(k_hat, 1)),
        objective=objective,
    )


def penalized_error_bound(rho: np.ndarray, nu: float, theta: float) -> float:
    """Guaranteed squared-Frobenius error of the penalized fit.

    Valid whenever nu >= (1 + theta) * op-norm(estimate - rho)^2; evaluates
    ``min over k of c^2 sum_{j>k} s_j^2 + 2 c nu k`` with c = 1 + 2/theta
    on the singular values s of ``rho`` (its eigenvalues ordered by absolute
    value). For a rank-d state the minimum is at most 2 c nu d.
    """
    if not theta > 0:
        raise ValueError(f"theta={theta} must be > 0")
    check_penalty(nu)
    s = spectral(rho).singular_values
    c = 1.0 + 2.0 / theta
    with np.errstate(over="ignore"):  # 2 c nu k may overflow to inf; k = 0 adds nothing
        values = c**2 * _tail_sums(s) + np.append(0.0, 2.0 * c * nu * np.arange(1, s.size + 1))
    return float(values.min())
