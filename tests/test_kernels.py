import numpy as np
import pytest

from conftest import ReferenceTomography
from qtomo import _kernels, states


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("name", ["E", "E.T"])
def test_per_qubit_matches_the_kronecker_product(n, name):
    # the non-square E (6 x 4) and E.T pin the axis order: qubit 1 is the
    # most significant axis of the input and of the output
    matrix = _kernels.E if name == "E" else _kernels.E.T
    rng = np.random.default_rng(40 + n)
    tensor = rng.normal(size=(matrix.shape[1],) * n)
    kron = np.ones((1, 1))
    for _ in range(n):
        kron = np.kron(kron, matrix)
    out = _kernels._per_qubit(matrix, tensor, n)
    assert out.shape == (matrix.shape[0],) * n
    assert np.abs(out.ravel() - kron @ tensor.ravel()).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forward_matches_materialized_design(n):
    # the reference design is built from projector traces, rows in
    # (setting, outcome) order and columns in label order
    rng = np.random.default_rng(5 + n)
    coeffs = rng.normal(size=4**n)
    expected = (ReferenceTomography(n).design @ coeffs).reshape(3**n, 2**n)
    assert np.abs(_kernels.table_from_coeffs(coeffs, n) - expected).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_matches_materialized_design(n):
    rng = np.random.default_rng(8 + n)
    table = rng.normal(size=(3**n, 2**n))
    expected = ReferenceTomography(n).design.T @ table.ravel()
    assert np.abs(_kernels.design_adjoint_sums(table, n) - expected).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_adjoint_identity(n):
    # <table_from_coeffs(c), t> == <c, design_adjoint_sums(t)>
    rng = np.random.default_rng(20 + n)
    coeffs = rng.normal(size=4**n)
    table = rng.normal(size=(3**n, 2**n))
    forward = _kernels.table_from_coeffs(coeffs, n)
    lhs = np.vdot(forward, table)
    rhs = np.vdot(coeffs, _kernels.design_adjoint_sums(table, n))
    # rounding relative to the Cauchy-Schwarz scale of the inner product
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(forward) * np.linalg.norm(table)


@pytest.mark.parametrize("items", [1, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_stacks_give_the_bits_of_per_item_calls(n, items):
    # the batch axis of the adjoint map, Pauli assembly and the operator norm:
    # each item of a stack equals a call on that item alone, bit for bit
    rng = np.random.default_rng(70 + 10 * n + items)
    tables = rng.normal(size=(items, 3**n, 2**n))
    sums = _kernels.design_adjoint_sums(tables, n)
    assert sums.shape == (items, 4**n)
    assert np.array_equal(sums, [_kernels.design_adjoint_sums(t, n) for t in tables])
    matrices = states.pauli_assemble(sums)
    assert matrices.shape == (items, 2**n, 2**n)
    assert np.array_equal(matrices, [states.pauli_assemble(c) for c in sums])
    norms = states.operator_norm(matrices)
    assert norms.shape == (items,)
    assert norms.tolist() == [states.operator_norm(h) for h in matrices]
    # two batch axes flatten to the same items
    grid = tables.reshape(1, items, 3**n, 2**n)
    assert np.array_equal(_kernels.design_adjoint_sums(grid, n), sums[None])
    assert np.array_equal(states.pauli_assemble(sums[None]), matrices[None])


def test_stack_shape_errors():
    with pytest.raises(ValueError, match="power of 4"):
        states.pauli_assemble(np.zeros((3, 6)))
    with pytest.raises(ValueError, match="coefficient vector"):
        states.pauli_assemble(np.float64(1.0))
    with pytest.raises(ValueError):
        _kernels.design_adjoint_sums(np.zeros((2, 9, 3)), 2)
    assert isinstance(states.operator_norm(np.eye(2)), float)
