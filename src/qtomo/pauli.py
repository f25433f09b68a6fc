"""Combinatorial and matrix primitives of the n-qubit Pauli measurement design.

Three index families drive everything here:

* basis labels  b in {i,x,y,z}^n  (4^n of them) indexing the expansion basis,
* settings      a in {x,y,z}^n    (3^n) naming which axis is measured per qubit,
* outcomes      r in {-1,+1}^n    (2^n) recording the observed signs.

All three are plain lowercase strings ("iixz", "xzyx", "+--+"); position 1 is
the leftmost character. Enumeration order is fixed lexicographic
(i < x < y < z, and "-" < "+") so vectorized indices are reproducible across
runs and platforms.

The full design matrix relating Pauli coefficients to outcome probabilities
is only materialized for n <= 2 (test oracle); production code applies its
single-qubit factors one qubit at a time (``_kernels``). All functions are
pure and operate on immutable values, so the module is safe for concurrent
use.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .errors import DimensionLimitError

# 2^12 = 4096 keeps dense 2^n x 2^n matrices tractable; override at your own
# risk for larger systems.
MAX_QUBITS = 12

LABEL_CHARS = "ixyz"
AXIS_CHARS = "xyz"
SIGN_CHARS = "-+"

SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_qubits(n: int) -> int:
    """Validate a qubit count against the configured dimension limit."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise DimensionLimitError(
            f"n={n} exceeds the configured limit of {MAX_QUBITS} qubits"
        )
    return int(n)


def validate_label(b: str) -> str:
    check_qubits(len(b))
    if any(c not in LABEL_CHARS for c in b):
        raise ValueError(f"invalid basis label {b!r}: characters must be in 'ixyz'")
    return b


def validate_setting(a: str) -> str:
    check_qubits(len(a))
    if any(c not in AXIS_CHARS for c in a):
        raise ValueError(f"invalid setting {a!r}: characters must be in 'xyz'")
    return a


def validate_outcome(r: str) -> str:
    check_qubits(len(r))
    if any(c not in SIGN_CHARS for c in r):
        raise ValueError(f"invalid outcome {r!r}: characters must be in '-+'")
    return r


def degree(b: str) -> int:
    """Number of identity positions in a basis label.

    Coefficients whose label has more identities are seen by more settings
    (3^degree of them) and are therefore estimated more accurately.
    """
    validate_label(b)
    return b.count("i")


def outcome_signs(r: str) -> np.ndarray:
    """Signs of an outcome string as an int array of +-1."""
    validate_outcome(r)
    return np.array([1 if c == "+" else -1 for c in r], dtype=np.int64)


def design_entry(r: str, a: str, b: str) -> int:
    """Design coefficient linking probability p(a, r) to the label-b term.

    Equals the product over non-identity positions j of
    ``sign(r_j) * [a_j == b_j]``; the empty product (all-identity label)
    is +1. Values are always in {-1, 0, +1}.
    """
    n = len(b)
    if len(r) != n or len(a) != n:
        raise ValueError(
            f"length mismatch: outcome has {len(r)}, setting {len(a)}, label {n}"
        )
    value = 1
    for rj, aj, bj in zip(r, a, b):
        if bj == "i":
            continue
        if aj != bj:
            return 0
        if rj == "-":
            value = -value
    return value


def pauli_matrix(b: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli matrices for a basis label.

    The result is Hermitian, squares to the identity, and is traceless
    unless the label is all-identity.
    """
    validate_label(b)
    out = SIGMA[b[0]]
    for c in b[1:]:
        out = np.kron(out, SIGMA[c])
    return out


def projector(a: str, r: str) -> np.ndarray:
    """Eigenprojector of the setting's Pauli product for a given outcome.

    Tensor product of the single-qubit projectors (I + sign * sigma_axis)/2;
    rank 1 and idempotent.
    """
    validate_setting(a)
    validate_outcome(r)
    if len(a) != len(r):
        raise ValueError(f"length mismatch: setting has {len(a)}, outcome {len(r)}")
    eye = np.eye(2, dtype=complex)
    out = None
    for aj, rj in zip(a, r):
        s = 1.0 if rj == "+" else -1.0
        p1 = 0.5 * (eye + s * SIGMA[aj])
        out = p1 if out is None else np.kron(out, p1)
    return out


def all_labels(n: int) -> Iterator[str]:
    """All 4^n basis labels in lexicographic order (i < x < y < z)."""
    check_qubits(n)
    return map("".join, itertools.product(LABEL_CHARS, repeat=n))


def all_settings(n: int) -> Iterator[str]:
    """All 3^n settings in lexicographic order (x < y < z)."""
    check_qubits(n)
    return map("".join, itertools.product(AXIS_CHARS, repeat=n))


def all_outcomes(n: int) -> Iterator[str]:
    """All 2^n outcomes in lexicographic order (-1 < +1)."""
    check_qubits(n)
    return map("".join, itertools.product(SIGN_CHARS, repeat=n))


def label_index(b: str) -> int:
    validate_label(b)
    idx = 0
    for c in b:
        idx = idx * 4 + LABEL_CHARS.index(c)
    return idx


def setting_index(a: str) -> int:
    validate_setting(a)
    idx = 0
    for c in a:
        idx = idx * 3 + AXIS_CHARS.index(c)
    return idx


def outcome_index(r: str) -> int:
    validate_outcome(r)
    idx = 0
    for c in r:
        idx = idx * 2 + SIGN_CHARS.index(c)
    return idx


def label_at(n: int, index: int) -> str:
    check_qubits(n)
    if not 0 <= index < 4**n:
        raise ValueError(f"label index {index} out of range for n={n}")
    chars = []
    for _ in range(n):
        chars.append(LABEL_CHARS[index % 4])
        index //= 4
    return "".join(reversed(chars))


def setting_at(n: int, index: int) -> str:
    check_qubits(n)
    if not 0 <= index < 3**n:
        raise ValueError(f"setting index {index} out of range for n={n}")
    chars = []
    for _ in range(n):
        chars.append(AXIS_CHARS[index % 3])
        index //= 3
    return "".join(reversed(chars))


def outcome_at(n: int, index: int) -> str:
    check_qubits(n)
    if not 0 <= index < 2**n:
        raise ValueError(f"outcome index {index} out of range for n={n}")
    chars = []
    for _ in range(n):
        chars.append(SIGN_CHARS[index % 2])
        index //= 2
    return "".join(reversed(chars))


def label_degrees(n: int) -> np.ndarray:
    """Identity counts d(b) for every label, in enumeration order."""
    check_qubits(n)
    idx = np.arange(4**n, dtype=np.int64)
    deg = np.zeros(4**n, dtype=np.int64)
    for _ in range(n):
        deg += idx % 4 == 0
        idx //= 4
    return deg


def gram_entry(b1: str, b2: str) -> int:
    """Brute-force Gram entry of the design operator, exact integer sum.

    Sums design_entry(r, a, b1) * design_entry(r, a, b2) over all 6^n
    (setting, outcome) pairs. Test oracle only: refuses n > 6. The diagonal
    comes out as 3^degree * 2^n and every off-diagonal entry vanishes, which
    is what makes the closed-form inversion possible.
    """
    n = len(b1)
    if len(b2) != n:
        raise ValueError(f"length mismatch: {len(b1)} vs {len(b2)}")
    if n > 6:
        raise ValueError(f"gram_entry is a brute-force oracle, refusing n={n} > 6")
    total = 0
    for a in all_settings(n):
        for r in all_outcomes(n):
            e1 = design_entry(r, a, b1)
            if e1 == 0:
                continue
            total += e1 * design_entry(r, a, b2)
    return total


def design_matrix(n: int) -> np.ndarray:
    """Dense 6^n x 4^n design matrix, rows in (setting, outcome) order.

    Only allowed for n <= 2; larger systems always evaluate entries on
    the fly.
    """
    check_qubits(n)
    if n > 2:
        raise ValueError(f"design matrix is never materialized for n={n} > 2")
    labels = list(all_labels(n))
    rows = []
    for a in all_settings(n):
        for r in all_outcomes(n):
            rows.append([design_entry(r, a, b) for b in labels])
    return np.array(rows, dtype=np.int64)
