"""The two 6^n-cell maps of the measurement design, as per-qubit transforms.

The design factors over qubits: the entry linking setting a, outcome r and
basis label b is a product of single-qubit entries ``E[(a_j, r_j), b_j]``.
``E`` below is that 6 x 4 matrix, rows (axis, sign) in the order x-, x+, y-,
y+, z-, z+ and columns i, x, y, z: 1 in column i, the sign in the measured
axis's column, 0 elsewhere. Both maps therefore apply one small matrix along
each qubit axis of a tensor (``_per_qubit``, one matrix product per qubit)
plus one axis reorder:

* ``table_from_coeffs``   Pauli coefficients -> probability table (3^n, 2^n)
* ``design_adjoint_sums`` probability tables (..., 3^n, 2^n) -> per-label
  design sums (..., 4^n)

``states.pauli_expand`` / ``pauli_assemble`` use the same helper with their
single-qubit change of basis.

Batch axis: ``_per_qubit`` takes leading batch axes in front of the n qubit
axes and transforms every item of the stack with the same matrix products a
lone item gets, so a stack gives the bits of per-item calls. The bootstrap
inverts its repetitions this way; one item with no batch axis goes through
the same code.
"""

from __future__ import annotations

import math

import numpy as np

E = np.array(
    [
        [1, -1, 0, 0],  # x-
        [1, 1, 0, 0],  # x+
        [1, 0, -1, 0],  # y-
        [1, 0, 1, 0],  # y+
        [1, 0, 0, -1],  # z-
        [1, 0, 0, 1],  # z+
    ],
    dtype=np.float64,
)


def _per_qubit(matrix: np.ndarray, tensor: np.ndarray, n: int) -> np.ndarray:
    """Apply ``matrix`` along each of the n qubit axes of a tensor.

    ``tensor`` has shape ``batch + (k,)*n``, where ``batch`` is zero or more
    leading axes; the result has shape ``batch + (k_out,)*n``. Each step is
    one matrix product per item: the item's leading axis, viewed as the rows
    of a (k, rest) matrix, is contracted and the new axis is appended last,
    so after n steps the axes are back in order. The transposed view enters
    the product uncopied, and each product's output is the next step's
    input. A stack is one (items, rest, k) @ (k, k_out) product, which numpy
    evaluates item by item with the BLAS call a lone item gets.
    """
    batch = tensor.shape[: tensor.ndim - n]
    items = math.prod(batch)
    for _ in range(n):
        tensor = tensor.reshape(items, matrix.shape[1], -1).swapaxes(1, 2) @ matrix.T
    return tensor.reshape(batch + (matrix.shape[0],) * n)


def _interleave_perm(n: int, lead: int = 0) -> list[int]:
    """Axis order taking (u1..un, v1..vn) to (u1, v1, ..., un, vn) after ``lead`` batch axes."""
    return list(range(lead)) + [lead + ax for j in range(n) for ax in (j, n + j)]


def table_from_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Outcome values for every (setting, outcome) cell from Pauli coefficients.

    Returns shape (3^n, 2^n); row = setting index, column = outcome index.
    Row-major flattening gives the canonical 6^n vector.
    """
    t = _per_qubit(E, np.asarray(coeffs, dtype=np.float64).reshape((4,) * n), n)
    t = np.transpose(t.reshape((3, 2) * n), np.argsort(_interleave_perm(n)))
    return t.reshape(3**n, 2**n)


def design_adjoint_sums(table: np.ndarray, n: int) -> np.ndarray:
    """Per-label sums of table values weighted by design entries.

    Entry b is the sum over all (setting a, outcome r) of ``table[a, r]``
    times the design entry, the product over qubits j of ``E[(a_j, r_j), b_j]``;
    dividing by 3^degree(b) * 2^n turns these into inverted Pauli coefficients.
    ``table`` has shape (..., 3^n, 2^n): a stack of tables gives one row of
    sums per table, shape (..., 4^n).
    """
    t = np.asarray(table, dtype=np.float64)
    batch = t.shape[:-2]
    t = np.transpose(t.reshape(batch + (3,) * n + (2,) * n), _interleave_perm(n, len(batch)))
    return _per_qubit(E.T, t.reshape(batch + (6,) * n), n).reshape(batch + (4**n,))
