import itertools
import math

import numpy as np


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    cols = dim if rank is None else rank
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def dataset_to_dict(dataset) -> dict:
    """The documented JSON object of a dataset: its nonzero cells in row order."""
    n = dataset.n
    cells = itertools.product(itertools.product("xyz", repeat=n), itertools.product("-+", repeat=n))
    entries = [
        {"setting": "".join(a), "outcome": "".join(r), "count": int(c)}
        for (a, r), c in zip(cells, dataset.counts.ravel())
        if c
    ]
    return {"n": n, "m": dataset.m, "counts": entries}


def state_to_dict(matrix) -> dict:
    """The documented JSON object of a state matrix: n, then re and im as row lists."""
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "n": matrix.shape[0].bit_length() - 1,
        "re": [[float(x) for x in row] for row in matrix.real],
        "im": [[float(x) for x in row] for row in matrix.imag],
    }


class ReferenceFormatError(ValueError):
    """What the reference state-block checker raises: a path and a message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def reference_square_rows(rows, key: str, dim: int) -> np.ndarray:
    """A dim x dim state block checked one element at a time, in row-major order.

    Raises at the first bad row or entry: a row that is not a list of dim
    items, an entry that is not an int or float (bool excluded), or an entry
    whose float value is not finite (NaN, infinity, an integer beyond the
    float range).
    """
    if not isinstance(rows, list) or len(rows) != dim:
        raise ReferenceFormatError(key, f"expected a list of {dim} rows")
    out = np.empty((dim, dim), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ReferenceFormatError(f"{key}[{i}]", f"expected a row of {dim} numbers")
        for k, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ReferenceFormatError(f"{key}[{i}][{k}]", "expected a number")
            try:
                out[i, k] = float(x)
            except OverflowError:
                out[i, k] = math.inf
            if not math.isfinite(out[i, k]):
                raise ReferenceFormatError(f"{key}[{i}][{k}]", "expected a finite number")
    return out


def maximally_mixed(n: int) -> np.ndarray:
    """The n-qubit state I / 2^n."""
    return np.eye(2**n, dtype=complex) / 2**n


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues (Hermitian input)."""
    return float(np.abs(np.linalg.eigvalsh(matrix)).sum())


def label_degrees(n: int) -> np.ndarray:
    """Identity counts d(b) of every label b, in label order ("ixyz", qubit 1 leftmost)."""
    return np.array([b.count("i") for b in itertools.product("ixyz", repeat=n)], dtype=np.int64)


def reference_scan_rank(h: np.ndarray, nu: float) -> int:
    """Minimizer over k of sum_{j>k} s_j^2 + nu k, scanned upward, ties to the larger k.

    s are the singular values of the Hermitian ``h`` from its own eigvalsh.
    """
    s2 = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1] ** 2
    objective = [float(s2[k:].sum()) + nu * k for k in range(s2.size + 1)]
    k_hat = 0
    for k in range(1, s2.size + 1):
        if objective[k] <= objective[k_hat]:
            k_hat = k
    return k_hat


def reference_physical_estimate(h: np.ndarray, rank: int) -> np.ndarray:
    """Nearest density matrix of rank <= ``rank`` to the Hermitian ``h``.

    Its own dense eigh, the eigenvectors of the ``rank`` largest signed
    eigenvalues, and a sort-based simplex projection of those eigenvalues:
    with u sorted in decreasing order, each weight is max(u - tau, 0) for the
    shift tau = (u_1 + .. + u_j - 1) / j at the largest j where u_j exceeds it.
    """
    w, v = np.linalg.eigh(h)
    top = np.argsort(w)[::-1][:rank]
    total, tau = 0.0, 0.0
    for j, u in enumerate(sorted(w[top], reverse=True), start=1):
        total += u
        if u > (total - 1.0) / j:
            tau = (total - 1.0) / j
    weights = np.array([max(x - tau, 0.0) for x in w[top]])
    return (v[:, top] * weights) @ v[:, top].conj().T


# ---------------------------------------------------------------------------
# Independent reference for the measurement model and the linear estimator.
#
# Nothing below imports qtomo. The design is built from explicit projector
# traces Tr(sigma_b P_r^a), with P_r^a the Kronecker product of single-qubit
# eigenprojectors, and inverted by a dense pseudo-inverse; sampling draws
# each outcome by inverting the cumulative distribution of its setting. Row
# order follows the documented dataset layout: settings lexicographic over
# "xyz", outcomes over "-+", qubit 1 leftmost (most significant).
# ---------------------------------------------------------------------------

_SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


class ReferenceTomography:
    """Brute-force n-qubit Pauli tomography: projectors, design, pinv inversion."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 2**n
        self.paulis = np.array(
            [_kron_all(_SIGMA[c] for c in b) for b in itertools.product("ixyz", repeat=n)]
        )
        self.projectors = np.array(
            [
                _kron_all(0.5 * (_SIGMA["i"] + (1 if s == "+" else -1) * _SIGMA[a])
                          for a, s in zip(setting, outcome))
                for setting in itertools.product("xyz", repeat=n)
                for outcome in itertools.product("-+", repeat=n)
            ]
        )
        # Design entry (k, b) is Tr(sigma_b P_k), shape (6^n, 4^n): rho =
        # sum_b x_b sigma_b has outcome probabilities design @ x.
        flat_p = self.projectors.reshape(len(self.projectors), -1)
        flat_s = self.paulis.transpose(0, 2, 1).reshape(len(self.paulis), -1)
        self.design = (flat_p @ flat_s.T).real
        self.pinv = np.linalg.pinv(self.design)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho P_r^a) as a (3^n, 2^n) table."""
        flat = self.projectors.reshape(len(self.projectors), -1) @ rho.T.reshape(-1)
        return flat.real.reshape(3**self.n, self.dim)

    def sample_counts(self, rho: np.ndarray, m: int, reps: int, rng) -> np.ndarray:
        """``reps`` datasets of m outcomes per setting, shape (reps, 3^n, 2^n)."""
        probs = np.clip(self.probabilities(rho), 0.0, None)
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        u = rng.random((reps, 3**self.n, m))
        outcome = (u[..., None] >= cdf[None, :, None, :-1]).sum(axis=-1)
        cell = outcome + self.dim * np.arange(reps * 3**self.n).reshape(reps, -1, 1)
        total = reps * 3**self.n * self.dim
        return np.bincount(cell.ravel(), minlength=total).reshape(reps, 3**self.n, self.dim)

    def estimate(self, freqs: np.ndarray) -> np.ndarray:
        """Least-squares estimates from frequency tables (..., 3^n, 2^n)."""
        lead = freqs.shape[:-2]
        x = freqs.reshape(-1, 6**self.n) @ self.pinv.T
        mats = np.tensordot(x, self.paulis, axes=1)
        return mats.reshape(*lead, self.dim, self.dim)


def reference_diag_state(n: int, d: int) -> np.ndarray:
    """Rank-d state with d equal weights on the first basis vectors."""
    w = np.zeros(2**n)
    w[:d] = 1.0 / d
    return np.diag(w).astype(complex)


def reference_sq_op_norm(matrices: np.ndarray) -> np.ndarray:
    """Squared spectral norm of Hermitian matrices (batched over leading axes)."""
    return np.abs(np.linalg.eigvalsh(matrices)).max(axis=-1) ** 2
