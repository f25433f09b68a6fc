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

from .errors import ConfigError, integer

# 2^12 = 4096 keeps dense 2^n x 2^n matrices tractable; override at your own
# risk for larger systems.
MAX_QUBITS = 12

LABEL_CHARS = "ixyz"
AXIS_CHARS = "xyz"
SIGN_CHARS = "-+"


def check_qubits(n: int) -> int:
    """The qubit count as an int, if it is an integer within the configured limit; else ConfigError."""
    n = integer(n, "qubit count")
    if n < 1:
        raise ConfigError(f"qubit count must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ConfigError(f"n={n} exceeds the configured limit of {MAX_QUBITS} qubits")
    return n


def _index(text: str, chars: str, what: str) -> int:
    """Position of ``text`` among the strings over ``chars`` of its length, in lexicographic order."""
    check_qubits(len(text))
    if any(c not in chars for c in text):
        raise ValueError(f"invalid {what} {text!r}: characters must be in {chars!r}")
    idx = 0
    for c in text:
        idx = idx * len(chars) + chars.index(c)
    return idx


def _strings(chars: str, n: int) -> Iterator[str]:
    check_qubits(n)
    return map("".join, itertools.product(chars, repeat=n))


def degree(b: str) -> int:
    """Number of identity positions in a basis label.

    Coefficients whose label has more identities are seen by more settings
    (3^degree of them) and are therefore estimated more accurately.
    """
    _index(b, LABEL_CHARS, "basis label")
    return b.count("i")


def all_labels(n: int) -> Iterator[str]:
    """All 4^n basis labels in lexicographic order (i < x < y < z)."""
    return _strings(LABEL_CHARS, n)


def all_settings(n: int) -> Iterator[str]:
    """All 3^n settings in lexicographic order (x < y < z)."""
    return _strings(AXIS_CHARS, n)


def all_outcomes(n: int) -> Iterator[str]:
    """All 2^n outcomes in lexicographic order (-1 < +1)."""
    return _strings(SIGN_CHARS, n)


def setting_index(a: str) -> int:
    return _index(a, AXIS_CHARS, "setting")


def outcome_index(r: str) -> int:
    return _index(r, SIGN_CHARS, "outcome")


def setting_at(n: int, index: int) -> str:
    check_qubits(n)
    if not 0 <= index < 3**n:
        raise ValueError(f"setting index {index} out of range for n={n}")
    chars = []
    for _ in range(n):
        chars.append(AXIS_CHARS[index % 3])
        index //= 3
    return "".join(reversed(chars))

