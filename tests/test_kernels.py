import numpy as np
import pytest

from conftest import ReferenceTomography
from qtomo import _kernels


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
