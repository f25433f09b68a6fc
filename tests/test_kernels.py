import itertools

import numpy as np
import pytest

from qtomo import _kernels, pauli


@pytest.mark.parametrize("n", [1, 2])
def test_forward_matches_materialized_design(n):
    rng = np.random.default_rng(5 + n)
    coeffs = rng.normal(size=4**n)
    expected = (pauli.design_matrix(n) @ coeffs).reshape(3**n, 2**n)
    assert np.allclose(_kernels.table_from_coeffs(coeffs, n), expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_adjoint_matches_materialized_design(n):
    rng = np.random.default_rng(8 + n)
    table = rng.normal(size=(3**n, 2**n))
    expected = pauli.design_matrix(n).T @ table.ravel()
    assert np.allclose(_kernels.design_adjoint_sums(table, n), expected, atol=1e-12)


def test_both_maps_match_brute_force_design_at_three_qubits():
    # 216 x 64 design built entry by entry from the string-level definition,
    # rows in (setting, outcome) order and columns in label order
    n = 3
    rows = itertools.product(pauli.all_settings(n), pauli.all_outcomes(n))
    design = np.array(
        [[pauli.design_entry(r, a, b) for b in pauli.all_labels(n)] for a, r in rows],
        dtype=float,
    )
    assert design.shape == (216, 64)
    rng = np.random.default_rng(13)
    coeffs = rng.normal(size=4**n)
    table = rng.normal(size=(3**n, 2**n))
    forward = _kernels.table_from_coeffs(coeffs, n)
    assert np.abs(forward - (design @ coeffs).reshape(3**n, 2**n)).max() < 1e-12
    adjoint = _kernels.design_adjoint_sums(table, n)
    assert np.abs(adjoint - design.T @ table.ravel()).max() < 1e-12


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
