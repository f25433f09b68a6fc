"""Density matrices, Pauli-basis expansion, and the reference example states.

A state of n qubits is a 2^n x 2^n complex Hermitian PSD matrix with unit
trace, represented as a plain numpy array. Any Hermitian matrix expands
uniquely over the 4^n tensor-product Pauli basis with real coefficients
``c[b] = Tr(M sigma_b) / 2^n``; ``pauli_expand`` / ``pauli_assemble``
convert both ways in O(n 4^n) via a per-qubit change of basis.

``nearest_density`` projects a Hermitian matrix, given by its eigensystem,
onto the density matrices (optionally of bounded rank) by Euclidean
projection of its spectrum onto the probability simplex, which never
increases the Frobenius distance to any density matrix of the retained support.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from . import pauli
from ._kernels import _interleave_perm, _per_qubit
from .errors import ConfigError, FormatError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-10
EIG_ATOL = 1e-10

# single-qubit change of basis between matrix entries (m00, m01, m10, m11)
# and Pauli coefficients (c_i, c_x, c_y, c_z)
_EXPAND_1Q = 0.5 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)
_ASSEMBLE_1Q = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1j, 0],
        [0, 1, 1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)


def qubit_count(matrix: np.ndarray) -> int:
    """Number of qubits of a square 2^n x 2^n matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    n = int(dim).bit_length() - 1
    if dim != 2**n or dim < 2:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    return pauli.check_qubits(n)


def _check_finite(matrix: np.ndarray) -> None:
    if not np.isfinite(matrix).all():
        raise ValueError(f"entry {np.argwhere(~np.isfinite(matrix))[0].tolist()} is not finite")


def require_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    qubit_count(matrix)
    _check_finite(matrix)
    dev = np.abs(matrix - matrix.conj().T).max()
    if dev > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {HERMITIAN_ATOL:.1e}")
    return matrix


def require_unit_trace(matrix: np.ndarray) -> np.ndarray:
    """The matrix, if its trace lies within ``TRACE_ATOL`` of 1; else ValueError."""
    tr = float(np.trace(matrix).real)  # no numpy type in the message
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_ATOL:.1e}")
    return matrix


def require_density(matrix: np.ndarray) -> np.ndarray:
    """Validate the density-matrix invariants: Hermitian, unit trace, PSD."""
    matrix = require_unit_trace(require_hermitian(matrix))
    w_min = np.linalg.eigvalsh(matrix)[0]
    if w_min < -EIG_ATOL:
        raise ValueError(f"smallest eigenvalue {w_min:.3e} below -{EIG_ATOL:.1e}")
    return matrix


# ---------------------------------------------------------------------------
# norms of Hermitian matrices
# ---------------------------------------------------------------------------


def frobenius_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue, via a symmetric eigensolve (Hermitian input).

    A stack of shape (..., d, d) gives one norm per matrix, shape (...), each
    the bits of a call on that matrix alone; one matrix gives a float.
    """
    norms = np.abs(np.linalg.eigvalsh(matrix)).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


# ---------------------------------------------------------------------------
# Pauli expansion
# ---------------------------------------------------------------------------


def pauli_expand(matrix: np.ndarray) -> np.ndarray:
    """Real Pauli coefficients of a Hermitian matrix, in label order.

    The coefficient of label b, at b's position in ``pauli.all_labels``, is
    ``Tr(matrix @ sigma_b) / 2^n`` with sigma_b the Kronecker product of b's
    single-qubit Pauli matrices; it is computed by a per-qubit 4x4 change of
    basis rather than 4^n explicit traces.
    """
    matrix = require_hermitian(matrix)
    n = qubit_count(matrix)
    t = matrix.reshape((2,) * (2 * n))
    t = np.transpose(t, _interleave_perm(n)).reshape((4,) * n)
    coeffs = _per_qubit(_EXPAND_1Q, t, n).reshape(-1)
    return np.ascontiguousarray(coeffs.real)


def pauli_assemble(coeffs: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given real Pauli coefficients.

    Exact inverse of ``pauli_expand``. Coefficients of shape (..., 4^n), a
    stack of vectors, give a stack of matrices of shape (..., 2^n, 2^n), each
    the bits of a call on that vector alone.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 1:
        raise ValueError(f"expected a coefficient vector, got shape {coeffs.shape}")
    batch, size = coeffs.shape[:-1], coeffs.shape[-1]
    n = max((int(size).bit_length() - 1) // 2, 0)
    if size != 4**n or n < 1:
        raise ValueError(f"coefficient length {size} is not a power of 4 >= 4")
    pauli.check_qubits(n)
    t = _per_qubit(_ASSEMBLE_1Q, coeffs.astype(complex).reshape(batch + (4,) * n), n)
    t = np.transpose(t.reshape(batch + (2, 2) * n), np.argsort(_interleave_perm(n, len(batch))))
    return np.ascontiguousarray(t.reshape(batch + (2**n, 2**n)))


# ---------------------------------------------------------------------------
# example states
# ---------------------------------------------------------------------------


def diag_state(n: int, d: int) -> np.ndarray:
    """Rank-d diagonal state: first d diagonal entries 1/d, rest zero; 1 <= d <= 2^n."""
    pauli.check_qubits(n)
    dim = 2**n
    if not 1 <= d <= dim:
        raise ConfigError(f"rank d={d} out of range [1, {dim}]")
    w = np.zeros(dim)
    w[:d] = 1.0 / d
    return np.diag(w).astype(complex)


def ghz(n: int) -> np.ndarray:
    """GHZ state |0...0> + |1...1> (normalized), as a rank-1 density matrix."""
    pauli.check_qubits(n)
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2 qubits, got {n}")
    dim = 2**n
    v = np.zeros(dim, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def w_state(n: int) -> np.ndarray:
    """W state: equal superposition of the n single-excitation basis states."""
    pauli.check_qubits(n)
    if n < 2:
        raise ValueError(f"W state needs n >= 2 qubits, got {n}")
    dim = 2**n
    v = np.zeros(dim, dtype=complex)
    for j in range(n):
        v[1 << (n - 1 - j)] = 1.0 / np.sqrt(n)
    return np.outer(v, v.conj())


def mixture(n: int, d: int, p: float) -> np.ndarray:
    """Statistical mixture p * GHZ + (1 - p) * diag_state(n, d)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight p={p} out of [0, 1]")
    return p * ghz(n) + (1.0 - p) * diag_state(n, d)


# ---------------------------------------------------------------------------
# physical projection
# ---------------------------------------------------------------------------


def project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-d vector")
    u = np.sort(values)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, values.size + 1)
    rho = np.nonzero(u * j > css - 1.0)[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(values - tau, 0.0)


def nearest_density(eigenvalues, vectors, max_rank: int | None = None) -> np.ndarray:
    """Closest density matrix of rank <= max_rank to V diag(eigenvalues) V^H, in Frobenius norm.

    Takes an eigensystem with its columns in any order, as ``np.linalg.eigh``
    or ``rankpen.spectral`` give it. Keeps the top ``max_rank`` signed
    eigenvalues (all if None; ties toward the lower position when descending),
    projects them onto the probability simplex, and reassembles in ascending
    order, so any column order gives the bits of ``eigh``'s. Idempotent.
    """
    w = np.asarray(eigenvalues, dtype=float)
    dim = w.size
    if w.ndim != 1 or np.shape(vectors) != (dim, dim):
        raise ValueError(f"eigensystem shapes {w.shape} and {np.shape(vectors)} do not match")
    asc = np.argsort(w, kind="stable")
    w, v = w[asc], np.asarray(vectors, dtype=complex)[:, asc]
    order = np.argsort(-w, kind="stable")
    if max_rank is not None:
        if not 1 <= max_rank <= dim:
            raise ValueError(f"max_rank={max_rank} out of range [1, {dim}]")
        order = order[:max_rank]
    out_w = np.zeros(dim)
    out_w[order] = project_simplex(w[order])
    out = (v * out_w) @ v.conj().T
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# state JSON: {"n": int, "re": [[...]], "im": [[...]]}, row-major, finite entries.
# save_state writes json.dump(obj, fh, indent=2, sort_keys=True) bytes plus a
# newline; load_state accepts any layout and integer entries.
# ---------------------------------------------------------------------------


def read_json(path):
    """The decoded JSON document in a state or dataset file; invalid JSON raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError("", f"invalid JSON: {exc}") from exc


def require_header(obj, keys: tuple) -> int:
    """The qubit count ``obj["n"]`` of a decoded JSON object that must hold ``keys``."""
    if not isinstance(obj, dict):
        raise FormatError("", "expected a JSON object")
    for key in keys:
        if key not in obj:
            raise FormatError(key, "missing key")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("n", f"expected a positive integer, got {n!r}")
    try:
        return pauli.check_qubits(n)
    except ValueError as exc:
        raise FormatError("n", str(exc)) from exc


_FLOAT_BOUND = 2**1024 - 2**970  # an integer converts to a finite float iff |x| < this


def _square_rows(rows, key: str, dim: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise FormatError(key, f"expected a list of {dim} rows")
    # One type-set check per row and one conversion, else name the first bad entry.
    if all(type(r) is list and len(r) == dim and {int, float} >= set(map(type, r)) for r in rows):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            if np.isfinite(out := np.array(rows, dtype=float)).all():
                return out
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FormatError(f"{key}[{i}]", f"expected a row of {dim} numbers")
        for k, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise FormatError(f"{key}[{i}][{k}]", "expected a number")
            if not (np.isfinite(x) if isinstance(x, float) else abs(x) < _FLOAT_BOUND):
                raise FormatError(f"{key}[{i}][{k}]", "expected a finite number")
    return np.array(rows, dtype=float)  # valid, with int, float or list subclasses


def state_from_dict(obj) -> np.ndarray:
    dim = 2 ** require_header(obj, ("n", "re", "im"))
    out = _square_rows(obj["re"], "re", dim).astype(complex)
    out.imag = _square_rows(obj["im"], "im", dim)  # re + 1j * im would turn -0.0 into 0.0
    return out


def save_state(path, matrix: np.ndarray) -> None:
    """Write a state JSON file; a non-finite entry raises before the file is opened.

    Each entry on or above the diagonal is formatted with ``repr``. An entry
    below it, in ``re`` and ``im`` alike, reuses the text of its mirror (j, i)
    when their bits are equal, and toggles that text's sign when they are
    negated, as in a Hermitian matrix. Any other entry is formatted itself, so
    every matrix is written with the bytes of one ``repr`` per entry.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = qubit_count(matrix)
    _check_finite(matrix)
    heads = ('{\n  "im": [\n', f'\n  ],\n  "n": {n},\n  "re": [\n')
    with open(path, "w", encoding="utf-8") as fh:  # a row at a time: less peak memory
        for head, part in zip(heads, (matrix.imag, matrix.real)):
            fh.write(head)
            bits = part.view(np.int64)
            texts = np.empty(part.shape, dtype=object)  # upper texts whose mirror is not written yet
            for i in range(len(part)):
                row = part[i].tolist()
                texts[i, i:] = list(map(repr, row[i:]))
                diff = (bits[i, :i] ^ bits[:i, i]).tolist()  # 0: equal bits; -2^63: negated
                low = [t if d == 0 else (t[1:] if t[0] == "-" else "-" + t) if d == -2**63
                       else repr(x) for t, d, x in zip(texts[:i, i].tolist(), diff, row)]
                texts[:i, i] = None
                fh.write((",\n" if i else "") + "    [\n      "
                         + ",\n      ".join(low + texts[i, i:].tolist()) + "\n    ]")
        fh.write("\n  ]\n}\n")


def load_state(path) -> np.ndarray:
    return state_from_dict(read_json(path))
