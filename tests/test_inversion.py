import math
import statistics

import numpy as np
import pytest

from conftest import (
    ReferenceTomography,
    maximally_mixed,
    random_density,
    random_hermitian,
    trace_norm,
)
from qtomo import inversion, measurement, pauli, states


def _exact_frequencies(rho):
    """The noiseless frequencies of a state: its probability table."""
    n = states.qubit_count(rho)
    return measurement.EmpiricalFrequencies(n, measurement.probability_table(rho))


def test_invert_exact_table_reproduces_expansion():
    rng = np.random.default_rng(61)
    for n in range(1, 7):
        for _ in range(7):
            rho = random_density(2**n, rng)
            freqs = _exact_frequencies(rho)
            coeffs = inversion.invert_coefficients(freqs)
            assert np.abs(coeffs - states.pauli_expand(rho)).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_gram_diagonal_matches_the_reference_design(n):
    design = ReferenceTomography(n).design
    assert np.abs(inversion._gram_diagonal(n) - np.diag(design.T @ design)).max() < 1e-9


def test_invert_maximally_mixed():
    freqs = _exact_frequencies(maximally_mixed(2))
    coeffs = inversion.invert_coefficients(freqs)
    expected = np.zeros(16)
    expected[0] = 0.25
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_invert_hand_example_z_eigenstate():
    # only the z setting contributes to the z coefficient: sum r * phat = 1,
    # divided by 3^0 * 2
    freqs = _exact_frequencies(np.diag([1.0, 0.0]).astype(complex))
    coeffs = inversion.invert_coefficients(freqs)
    labels = list(pauli.all_labels(1))
    assert abs(coeffs[labels.index("z")] - 0.5) < 1e-12
    assert abs(coeffs[labels.index("x")]) < 1e-12


def test_linear_estimator_round_trip_ghz():
    rho = states.ghz(2)
    est = inversion.linear_estimator(_exact_frequencies(rho))
    assert np.linalg.norm(est - rho) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_linear_estimator_returns_the_complex_matrix(n):
    law = measurement.outcome_law(random_density(2**n, np.random.default_rng(50 + n)))
    one = inversion.linear_estimator(
        measurement.empirical_frequencies(measurement.draw_dataset(law, 20, 51))
    )
    assert type(one) is np.ndarray and one.dtype == complex
    assert one.shape == (2**n, 2**n)
    counts = measurement.draw_counts(law, 20, [51, 52, 53])
    stack = inversion.linear_estimator(
        measurement.empirical_frequencies(measurement.Dataset(n=n, m=20, counts=counts))
    )
    assert type(stack) is np.ndarray and stack.dtype == complex
    assert stack.shape == (3, 2**n, 2**n)
    assert np.array_equal(stack[0], one)


def test_linear_estimator_invariants_on_simulated_data():
    rho = states.diag_state(2, 3)
    ds = measurement.simulate_dataset(rho, 100, 17)
    freqs = measurement.empirical_frequencies(ds)
    est = inversion.linear_estimator(freqs)
    assert np.abs(est - est.conj().T).max() < 1e-12
    assert abs(est.trace().real - 1.0) < 1e-12
    coeffs = inversion.invert_coefficients(freqs)
    assert np.linalg.norm(est - states.pauli_assemble(coeffs)) < 1e-12


def test_linear_estimator_unbiased_monte_carlo():
    rho = states.mixture(2, 3, 0.2)
    reps = 500
    mats = np.empty((reps, 4, 4), dtype=complex)
    for rep in range(reps):
        ds = measurement.simulate_dataset(
            rho, 50, np.random.SeedSequence(99, spawn_key=(rep,))
        )
        mats[rep] = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    mean = mats.mean(axis=0)
    se_re = mats.real.std(axis=0, ddof=1) / math.sqrt(reps)
    se_im = mats.imag.std(axis=0, ddof=1) / math.sqrt(reps)
    assert (np.abs(mean.real - rho.real) <= 5 * se_re + 1e-9).all()
    assert (np.abs(mean.imag - rho.imag) <= 5 * se_im + 1e-9).all()


@pytest.mark.parametrize("n", [2, 3])
def test_mean_coefficients_within_the_variance_bound_of_the_truth(n):
    # Unbiasedness against the paper's bound: the mean of R inverted
    # coefficients has variance at most variance_bound(b, m) / R, so each
    # lies within z sqrt(variance_bound(b, m) / R) of Tr(rho sigma_b) / 2^n,
    # with z Bonferroni-corrected over the 4^n coefficients at a family error
    # of 1e-3. R = 400 lets the non-identity coefficients alone catch an
    # inversion scaled by 1.05.
    R, m, alpha = 400, 100, 1e-3
    ref = ReferenceTomography(n)
    rho = random_density(2**n, np.random.default_rng(80 + n))
    truth = np.einsum("bij,ji->b", ref.paulis, rho).real / 2**n
    mean = np.mean([
        inversion.invert_coefficients(measurement.empirical_frequencies(
            measurement.simulate_dataset(rho, m, np.random.SeedSequence(90 + n, spawn_key=(r,)))
        ))
        for r in range(R)
    ], axis=0)
    bound = np.array([inversion.variance_bound(b, m) for b in pauli.all_labels(n)])
    z = statistics.NormalDist().inv_cdf(1 - alpha / (2 * 4**n))
    assert (np.abs(mean - truth) <= z * np.sqrt(bound / R)).all()


@pytest.mark.parametrize("perm", [(1, 0), (2, 0, 1), (1, 3, 0, 2)])
def test_qubit_permutation_permutes_the_estimate(perm):
    # Relabelling the qubits of the data relabels the qubits of the estimate:
    # permute the setting and outcome axes of the counts, and the row and
    # column qubit axes of the estimate, by the same transpose.
    n = len(perm)
    rho = random_density(2**n, np.random.default_rng(70 + n))
    ds = measurement.simulate_dataset(rho, 30, 71 + n)
    counts = ds.counts.reshape((3,) * n + (2,) * n)
    counts = counts.transpose([*perm, *(n + p for p in perm)]).reshape(3**n, 2**n)
    permuted = measurement.Dataset(n=n, m=ds.m, counts=counts)

    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    est = est.reshape((2,) * (2 * n)).transpose([*perm, *(n + p for p in perm)])
    est_of_permuted = inversion.linear_estimator(measurement.empirical_frequencies(permuted))
    assert np.abs(est_of_permuted - est.reshape(2**n, 2**n)).max() < 1e-12


def test_variance_bound_examples():
    n = 3
    assert variance_close(inversion.variance_bound("x" * n, 10), 1.0 / (4**n * 10))
    assert variance_close(inversion.variance_bound("i" * n, 10), 1.0 / (12**n * 10))
    assert variance_close(inversion.variance_bound("ix", 100), 1.0 / 4800.0)
    with pytest.raises(ValueError):
        inversion.variance_bound("xx", 0)


def variance_close(a, b):
    return abs(a - b) < 1e-15


def test_hoeffding_radius_frozen_values():
    assert abs(inversion.hoeffding_radius(4, 100, 0.05) - 2.41534) < 5e-4
    assert abs(inversion.hoeffding_radius(4, 100, 1.0) - 1.67455) < 5e-4


def test_hoeffding_radius_scaling_and_monotonicity():
    r = inversion.hoeffding_radius(3, 50, 0.1)
    assert abs(inversion.hoeffding_radius(3, 200, 0.1) - r / 2.0) < 1e-12
    assert inversion.hoeffding_radius(3, 50, 0.5) < r
    with pytest.raises(ValueError):
        inversion.hoeffding_radius(3, 50, 0.0)
    with pytest.raises(ValueError):
        inversion.hoeffding_radius(3, 50, 1.5)
    with pytest.raises(ValueError):
        inversion.hoeffding_radius(3, 0, 0.5)


def test_trace_norm_factor():
    assert abs(inversion.trace_norm_factor(2) - 2.0) < 1e-15
    assert abs(inversion.trace_norm_factor(4) - 4.0) < 1e-15


def test_trace_norm_bounded_by_frobenius():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        for _ in range(17):
            h = random_hermitian(2**n, rng)
            assert trace_norm(h) <= inversion.trace_norm_factor(n) * states.frobenius_norm(h) + 1e-12
