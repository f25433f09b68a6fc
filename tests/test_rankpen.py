import numpy as np
import pytest

from conftest import random_hermitian, reference_physical_estimate, reference_scan_rank
from qtomo import inversion, measurement, rankpen, states


def _exact_frequencies(rho):
    """The noiseless frequencies of a state: its probability table."""
    n = states.qubit_count(rho)
    return measurement.EmpiricalFrequencies(n, measurement.probability_table(rho))


def test_spectral_diagonal_case():
    dec = rankpen.spectral(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    assert np.allclose(dec.singular_values, [0.5, 0.3, 0.2, 0.0], atol=1e-12)


def test_spectral_orders_by_absolute_value():
    dec = rankpen.spectral(np.diag([0.6, -0.1, 0.5, 0.0]).astype(complex))
    assert np.allclose(dec.singular_values, [0.6, 0.5, 0.1, 0.0], atol=1e-12)
    assert np.allclose(dec.eigenvalues, [0.6, 0.5, -0.1, 0.0], atol=1e-12)


def test_spectral_reconstruction_and_orthonormality():
    rng = np.random.default_rng(83)
    for _ in range(10):
        h = random_hermitian(8, rng)
        dec = rankpen.spectral(h)
        v = dec.vectors
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10
        rebuilt = (v * dec.eigenvalues) @ v.conj().T
        assert np.linalg.norm(rebuilt - h) < 1e-10
        assert (np.diff(dec.singular_values) <= 1e-12).all()


def test_truncate_examples():
    dec = rankpen.spectral(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    assert np.allclose(rankpen.truncate(dec, 2), np.diag([0.5, 0.3, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(rankpen.truncate(dec, 4), np.diag([0.5, 0.3, 0.2, 0.0]), atol=1e-12)
    assert np.allclose(rankpen.truncate(dec, 0), np.zeros((4, 4)), atol=1e-15)
    with pytest.raises(ValueError):
        rankpen.truncate(dec, 5)
    with pytest.raises(ValueError):
        rankpen.truncate(dec, -1)


def test_truncate_residual_identity():
    rng = np.random.default_rng(89)
    h = random_hermitian(8, rng)
    dec = rankpen.spectral(h)
    for k in range(9):
        resid = np.linalg.norm(rankpen.truncate(dec, k) - h) ** 2
        expected = float(np.sum(dec.singular_values[k:] ** 2))
        assert abs(resid - expected) < 1e-9


def test_select_rank_threshold_examples():
    dec = rankpen.spectral(np.diag([0.9, 0.1, 0.0, 0.0]).astype(complex))
    assert rankpen.select_rank_threshold(dec, 0.04) == 1
    assert rankpen.select_rank_threshold(dec, 0.0025) == 2
    assert rankpen.select_rank_threshold(dec, 1.0) == 0
    # exact tie counts as selected
    assert rankpen.select_rank_threshold(dec, 0.9**2) == 1
    with pytest.raises(ValueError):
        rankpen.select_rank_threshold(dec, -0.1)


@pytest.mark.parametrize("nu", [float("nan"), float("inf")])
def test_non_finite_penalty_rejected(nu):
    rho = np.diag([0.9, 0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        rankpen.select_rank_threshold(rankpen.spectral(rho), nu)
    with pytest.raises(ValueError, match="finite"):
        rankpen.penalized_fit(rankpen.spectral(rho), nu)
    with pytest.raises(ValueError, match="finite"):
        rankpen.penalized_error_bound(rho, nu, 1.0)


def test_penalized_fit_exact_diag_state():
    est = inversion.linear_estimator(_exact_frequencies(states.diag_state(2, 2)))
    fit = rankpen.penalized_fit(rankpen.spectral(est), 0.01)
    assert fit.k_hat == 2
    assert np.linalg.norm(fit.estimate - est) < 1e-10
    states.require_density(fit.physical_estimate)


def test_penalized_fit_penalty_dominates():
    est = inversion.linear_estimator(_exact_frequencies(states.diag_state(2, 2)))
    fit = rankpen.penalized_fit(rankpen.spectral(est), 0.3)  # above lambda_1^2 = 0.25
    assert fit.k_hat == 0
    assert np.linalg.norm(fit.estimate) < 1e-12
    assert fit.physical_rank == 1
    states.require_density(fit.physical_estimate)


def test_penalized_fit_objective_contents():
    rng = np.random.default_rng(97)
    h = random_hermitian(4, rng)
    nu = 0.37
    fit = rankpen.penalized_fit(rankpen.spectral(h), nu)
    lam2 = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1] ** 2
    for k in range(5):
        expected = float(lam2[k:].sum()) + nu * k
        assert abs(fit.objective[k] - expected) < 1e-9
    assert fit.objective[fit.k_hat] <= fit.objective.min() + 1e-12


def test_scan_equals_threshold_on_random_inputs():
    rng = np.random.default_rng(101)
    for _ in range(50):
        h = random_hermitian(8, rng)
        dec = rankpen.spectral(h)
        top = dec.singular_values[0]
        for _ in range(5):
            nu = float(rng.uniform(0.0, (1.05 * top) ** 2))
            assert rankpen.penalized_fit(dec, nu).k_hat == reference_scan_rank(h, nu)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_penalized_fit_selects_every_tied_value(dim):
    # nu = s_k^2 puts s_k exactly on the threshold (sqrt(x * x) == x in
    # binary floating point), and the rule selects it
    rng = np.random.default_rng(109 + dim)
    for _ in range(100):
        h = random_hermitian(dim, rng)
        dec = rankpen.spectral(h)
        s = dec.singular_values
        for sk in s:
            assert rankpen.penalized_fit(dec, float(sk) ** 2).k_hat == np.count_nonzero(s >= sk)


def test_penalized_fit_estimate_rank():
    rng = np.random.default_rng(103)
    h = random_hermitian(8, rng)
    fit = rankpen.penalized_fit(rankpen.spectral(h), 1.0)
    sv = np.sort(np.abs(np.linalg.eigvalsh(fit.estimate)))[::-1]
    assert (sv[fit.k_hat:] < 1e-10).all()


def test_penalized_error_bound_hand_case():
    # c(theta=2) = 2: values 2.0, 1.04, 0.08, 0.12, 0.16 over k = 0..4
    value = rankpen.penalized_error_bound(states.diag_state(2, 2), 0.01, 2.0)
    assert abs(value - 0.08) < 1e-12


def test_penalized_error_bound_orders_a_non_psd_spectrum_by_absolute_value():
    lam = np.array([0.5, 0.3, -0.4, 0.0])
    nu, theta = 0.01, 2.0
    c = 1.0 + 2.0 / theta
    s2 = np.sort(np.abs(lam))[::-1] ** 2
    expected = min(c**2 * s2[k:].sum() + 2 * c * nu * k for k in range(5))
    assert abs(expected - 0.12) < 1e-12
    value = rankpen.penalized_error_bound(np.diag(lam).astype(complex), nu, theta)
    assert abs(value - expected) < 1e-12


def test_penalized_error_bound_rank_d_form():
    # small nu: the scan bottoms out at k = d with value 2 c nu d
    rho = states.diag_state(3, 2)
    nu, theta = 0.001, 1.0
    c = 1.0 + 2.0 / theta
    assert abs(rankpen.penalized_error_bound(rho, nu, theta) - 2 * c * nu * 2) < 1e-12


def test_penalized_error_bound_large_theta_limit():
    rho = states.diag_state(2, 2)
    nu = 0.01
    value = rankpen.penalized_error_bound(rho, nu, 1e12)
    # c -> 1: min over k of residual + 2 nu k = 0.04 at k = 2
    assert abs(value - 0.04) < 1e-9
    with pytest.raises(ValueError):
        rankpen.penalized_error_bound(rho, nu, 0.0)
    with pytest.raises(ValueError):
        rankpen.penalized_error_bound(rho, nu, float("nan"))


def test_penalized_error_bound_of_a_large_finite_nu_is_the_rank_0_term():
    # 2 c nu overflows to inf, and the k = 0 term, which adds no penalty, is
    # c^2 sum s^2 = 9 sum s^2; under warnings-as-errors, inf * 0 would raise
    rho = states.ghz(2)
    value = rankpen.penalized_error_bound(rho, 1e308, 1.0)
    assert value == 9.0 * rankpen._tail_sums(rankpen.spectral(rho).singular_values)[0]
    assert abs(value - 9.0) < 1e-12


def test_rank_recovery_dominates_error_tail():
    # with lambda_d > (1+delta) sqrt(nu) and lambda_{d+1} < (1-delta) sqrt(nu),
    # P(k_hat = d) >= 1 - P(op-norm error >= delta sqrt(nu))
    n, d, m, reps = 2, 2, 200, 200
    rho = states.diag_state(n, d)  # eigenvalues 1/2, 1/2, 0, 0
    delta, nu = 0.5, 0.0625  # sqrt(nu) = 0.25: 0.5 > 0.375 and 0 < 0.125
    hits = 0
    tail = 0
    for rep in range(reps):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(211, spawn_key=(rep,)))
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        if rankpen.select_rank_threshold(rankpen.spectral(est), nu) == d:
            hits += 1
        if states.operator_norm(est - rho) >= delta * np.sqrt(nu):
            tail += 1
    slack = 3 * np.sqrt(0.25 / reps)
    assert hits / reps >= 1.0 - tail / reps - slack


def test_physical_estimate_always_valid():
    rng = np.random.default_rng(107)
    for _ in range(10):
        h = random_hermitian(4, rng)
        nu = float(rng.uniform(0.0, 2.0))
        fit = rankpen.penalized_fit(rankpen.spectral(h), nu)
        states.require_density(fit.physical_estimate)
        rank = np.count_nonzero(np.linalg.eigvalsh(fit.physical_estimate) > 1e-10)
        assert rank <= fit.physical_rank


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_physical_estimate_matches_the_reference(dim):
    # k_hat from the reference scan; penalties above the spectrum (k_hat = 0),
    # inside it and at zero (every rank), so the partial ranks include
    # retained eigenvalues that are negative and ones that are all positive
    rng = np.random.default_rng(127 + dim)
    seen = set()
    for _ in range(40):
        h = random_hermitian(dim, rng, scale=rng.uniform(0.05, 1.0))
        w = np.linalg.eigvalsh(h)
        s = np.sort(np.abs(w))[::-1]
        for nu in (1.01 * s[0]) ** 2, float(rng.uniform(s[-1], s[0])) ** 2, 0.0:
            k_hat = reference_scan_rank(h, nu)
            fit = rankpen.penalized_fit(rankpen.spectral(h), nu)
            assert fit.k_hat == k_hat
            expected = reference_physical_estimate(h, max(k_hat, 1))
            assert np.abs(fit.physical_estimate - expected).max() < 1e-12
            retained = w[np.argsort(-np.abs(w), kind="stable")[:k_hat]]
            if k_hat == 0:
                seen.add("k_hat = 0")
            elif k_hat < dim and (retained < 0).any():
                seen.add("negative retained")
            elif k_hat < dim:
                # all retained values positive: also the projection of the truncated estimate
                truncated = reference_physical_estimate(fit.estimate, k_hat)
                assert np.abs(fit.physical_estimate - truncated).max() < 1e-12
    assert seen == {"k_hat = 0", "negative retained"}
