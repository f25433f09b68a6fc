"""Index primitives of the n-qubit Pauli measurement design.

Three index families drive everything here:

* basis labels  b in {i,x,y,z}^n  (4^n of them) indexing the expansion basis,
* settings      a in {x,y,z}^n    (3^n) naming which axis is measured per qubit,
* outcomes      r in {-1,+1}^n    (2^n) recording the observed signs.

All three are plain lowercase strings ("iixz", "xzyx", "+--+"); position 1 is
the leftmost character. Enumeration order is fixed lexicographic
(i < x < y < z, and "-" < "+") so vectorized indices are reproducible across
runs and platforms.

The design entry linking outcome r of setting a to label b is
Tr(sigma_b P_r^a), the product over non-identity positions j of
``sign(r_j) * [a_j == b_j]``. The 6^n x 4^n design matrix is never
materialized: ``_kernels`` applies its single-qubit factors one qubit at a
time. All functions are pure and operate on immutable values, so the module
is safe for concurrent use.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .errors import ConfigError

# 2^12 = 4096 keeps dense 2^n x 2^n matrices tractable; override at your own
# risk for larger systems.
MAX_QUBITS = 12

LABEL_CHARS = "ixyz"
AXIS_CHARS = "xyz"
SIGN_CHARS = "-+"


def check_qubits(n: int) -> int:
    """Validate a qubit count against the configured dimension limit; raises ConfigError."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigError(f"qubit count must be an integer, got {n!r}")
    if n < 1:
        raise ConfigError(f"qubit count must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ConfigError(f"n={n} exceeds the configured limit of {MAX_QUBITS} qubits")
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


def setting_at(n: int, index: int) -> str:
    check_qubits(n)
    if not 0 <= index < 3**n:
        raise ValueError(f"setting index {index} out of range for n={n}")
    chars = []
    for _ in range(n):
        chars.append(AXIS_CHARS[index % 3])
        index //= 3
    return "".join(reversed(chars))

