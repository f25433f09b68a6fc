import itertools

import numpy as np
import pytest

from conftest import ReferenceTomography, label_degrees
from qtomo import _kernels, pauli, states
from qtomo.errors import ConfigError


def _unit(b: str) -> np.ndarray:
    """Coefficient vector with a single 1 at label b."""
    unit = np.zeros(4 ** len(b))
    unit[list(pauli.all_labels(len(b))).index(b)] = 1.0
    return unit


def _design_column(b: str) -> np.ndarray:
    """The kernel's design column for label b, as a (3^n, 2^n) table."""
    return _kernels.table_from_coeffs(_unit(b), len(b))


def _design_entry(r: str, a: str, b: str) -> float:
    return _design_column(b)[pauli.setting_index(a), pauli.outcome_index(r)]


def _pauli_matrix(b: str) -> np.ndarray:
    return states.pauli_assemble(_unit(b))


def test_degree_examples():
    assert pauli.degree("xxxx") == 0
    assert pauli.degree("iixx") == 2
    for n in (1, 3, 5):
        assert pauli.degree("i" * n) == n


def test_design_entry_all_identity_is_one():
    assert _design_entry("-+", "xz", "ii") == 1
    assert _design_entry("+", "y", "i") == 1


def test_design_entry_examples():
    assert _design_entry("+", "x", "y") == 0
    assert _design_entry("--", "xz", "xz") == 1
    assert _design_entry("-+", "xz", "xz") == -1


def test_design_entry_range():
    for a in pauli.all_settings(2):
        for r in pauli.all_outcomes(2):
            for b in pauli.all_labels(2):
                assert _design_entry(r, a, b) in (-1, 0, 1)


def test_pauli_matrix_examples():
    assert np.array_equal(_pauli_matrix("z"), np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(_pauli_matrix("i"), np.eye(2, dtype=complex))
    assert np.array_equal(_pauli_matrix("xx"), np.fliplr(np.eye(4)).astype(complex))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_matrix_hermitian_involutory_traceless(n):
    dim = 2**n
    for b in pauli.all_labels(n):
        s = _pauli_matrix(b)
        assert np.allclose(s, s.conj().T, atol=1e-12)
        assert np.allclose(s @ s, np.eye(dim), atol=1e-12)
        expected_trace = dim if b == "i" * n else 0.0
        assert abs(s.trace() - expected_trace) < 1e-12


def test_single_qubit_trace_identities():
    # Row (t, s) of the kernel's single-qubit design holds Tr(sigma_b P_s^t):
    # Tr(I P_s^t) = 1 and Tr(sigma_t' P_s^t) = s * delta(t, t')
    ref = ReferenceTomography(1)
    for row, (t, r) in enumerate(itertools.product("xyz", "-+")):
        sign = 1.0 if r == "+" else -1.0
        expected = [1.0] + [sign if t2 == t else 0.0 for t2 in "xyz"]
        assert np.array_equal(_kernels.E[row], expected)
        traces = [np.trace(s @ ref.projectors[row]) for s in ref.paulis]
        assert np.abs(np.array(traces) - expected).max() < 1e-12


def test_enumeration_order():
    assert list(pauli.all_labels(1)) == ["i", "x", "y", "z"]
    assert list(pauli.all_outcomes(2)) == ["--", "-+", "+-", "++"]
    for n in (1, 2, 3):
        for enumerate_n, alphabet in (
            (pauli.all_labels, "ixyz"),
            (pauli.all_settings, "xyz"),
            (pauli.all_outcomes, "-+"),
        ):
            expected = ["".join(t) for t in itertools.product(alphabet, repeat=n)]
            assert list(enumerate_n(n)) == expected


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_unique_and_indexable(n):
    assert len(set(pauli.all_labels(n))) == 4**n
    for i, a in enumerate(pauli.all_settings(n)):
        assert pauli.setting_index(a) == i
        assert pauli.setting_at(n, i) == a
    for i, r in enumerate(pauli.all_outcomes(n)):
        assert pauli.outcome_index(r) == i


def test_label_degrees_matches_degree():
    for n in (1, 2, 3):
        degrees = label_degrees(n)
        for i, b in enumerate(pauli.all_labels(n)):
            assert degrees[i] == pauli.degree(b)


def test_gram_entry_examples():
    # Gram entry (b1, b2): inner product of the kernel's design columns
    assert np.vdot(_design_column("x"), _design_column("x")) == 2
    assert np.vdot(_design_column("i"), _design_column("i")) == 6
    assert np.vdot(_design_column("xi"), _design_column("xz")) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_diagonal_exhaustive(n):
    # brute-force design columns Tr(sigma_b P_r^a) from Kronecker products,
    # and the kernel's design columns, both give the diagonal Gram matrix
    cols = ReferenceTomography(n).design
    expected = np.diag(3.0 ** label_degrees(n) * 2**n)
    assert np.abs(cols.T @ cols - expected).max() < 1e-9
    kernel_cols = np.stack(
        [_design_column(b).reshape(-1) for b in pauli.all_labels(n)], axis=1
    )
    assert np.array_equal(kernel_cols.T @ kernel_cols, expected)


def test_validation_rejects_bad_characters():
    with pytest.raises(ValueError):
        pauli.degree("ixq")
    with pytest.raises(ValueError):
        pauli.setting_index("xi")
    with pytest.raises(ValueError):
        pauli.outcome_index("+0")


def test_dimension_limit():
    with pytest.raises(ConfigError, match="exceeds the configured limit"):
        pauli.check_qubits(13)
    with pytest.raises(ValueError):
        pauli.check_qubits(0)


def test_dimension_limit_configurable(monkeypatch):
    monkeypatch.setattr(pauli, "MAX_QUBITS", 2)
    with pytest.raises(ConfigError, match="exceeds the configured limit"):
        pauli.check_qubits(3)
    assert pauli.check_qubits(2) == 2
