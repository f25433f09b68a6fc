import numpy as np
import pytest

from qtomo import calibration, inversion, measurement, states
from qtomo.errors import ConfigError


def _estimate_of(matrix: np.ndarray) -> inversion.LinearEstimate:
    coeffs = states.pauli_expand(matrix)
    return inversion.LinearEstimate(
        n=states.qubit_count(matrix), coeffs=coeffs, matrix=matrix
    )


def test_nu_oracle_zero_when_exact():
    rho = states.ghz(2)
    assert calibration.nu_oracle(_estimate_of(rho), rho) == 0.0


def test_nu_oracle_diagonal_difference():
    rho = states.diag_state(2, 2)
    est = _estimate_of(rho + np.diag([0.3, -0.1, 0.0, 0.0]))
    assert abs(calibration.nu_oracle(est, rho) - 0.09) < 1e-12


def test_nu_oracle_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        calibration.nu_oracle(_estimate_of(states.ghz(2)), states.ghz(3))


def test_nu_theory_frozen_values():
    assert abs(calibration.nu_theory(4, 50) - 5.6082) < 5e-4
    assert abs(calibration.nu_theory(4, 100) - 2.8041) < 5e-4


def test_nu_theory_scaling_and_ranges():
    v = calibration.nu_theory(3, 80, theta=0.5, eps=0.2)
    assert abs(calibration.nu_theory(3, 160, theta=0.5, eps=0.2) - v / 2.0) < 1e-12
    assert calibration.nu_theory(3, 80, theta=1.0, eps=0.2) > v
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 0)
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 80, theta=-0.1)
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 80, eps=0.0)
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 80, eps=1.01)


def test_nu_bootstrap_deterministic():
    ds = measurement.simulate_dataset(states.diag_state(2, 2), 60, 5)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    a = calibration.nu_bootstrap(est, 60, 8, 123)
    b = calibration.nu_bootstrap(est, 60, 8, 123)
    c = calibration.nu_bootstrap(est, 60, 8, 124)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        calibration.nu_bootstrap(est, 60, 1, 123)


def test_nu_bootstrap_vanishes_with_many_repetitions():
    est = _estimate_of(states.maximally_mixed(1))
    small_m = calibration.nu_bootstrap(est, 100, 10, 3)
    large_m = calibration.nu_bootstrap(est, 4000, 10, 3)
    assert large_m < small_m
    assert large_m < 0.01


def test_nu_bootstrap_tracks_oracle_within_factor_three():
    rho = states.diag_state(3, 2)
    m = 100
    true_nus = []
    for rep in range(40):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(7, spawn_key=(rep,)))
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        true_nus.append(calibration.nu_oracle(est, rho))
    truth = float(np.mean(true_nus))

    ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(11))
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    boot = calibration.nu_bootstrap(est, m, 20, 13)
    assert truth / 3.0 <= boot <= truth * 3.0


def test_nu_bootstrap_mean_of_squares_is_larger():
    ds = measurement.simulate_dataset(states.ghz(2), 80, 19)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    default = calibration.nu_bootstrap(est, 80, 10, 7)
    mos = calibration.nu_bootstrap(est, 80, 10, 7, mean_of_squares=True)
    assert mos >= default


def test_nu_theory_dominates_observed_oracle():
    # the closed-form penalty is a loose upper bound in practice
    n, m = 4, 50
    bound = calibration.nu_theory(n, m)
    for d in (1, 2, 4):
        rho = states.diag_state(n, d)
        for rep in range(7):
            ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(23, spawn_key=(d, rep)))
            est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
            assert calibration.nu_oracle(est, rho) < bound


def test_penalty_choice_validation():
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode="magic")
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode="fixed")
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode="fixed", value=-1.0)
    calibration.PenaltyChoice(mode="fixed", value=0.2)


def test_resolve_penalty_modes():
    rho = states.diag_state(2, 2)
    ds = measurement.simulate_dataset(rho, 50, 29)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="fixed", value=0.2), est, 50
    )
    assert nu == 0.2 and details == {}

    nu, _ = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="oracle"), est, 50, rho_true=rho
    )
    assert abs(nu - calibration.nu_oracle(est, rho)) < 1e-15

    with pytest.raises(ConfigError, match="true state"):
        calibration.resolve_penalty(calibration.PenaltyChoice(mode="oracle"), est, 50)

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="theory", theta=0.0, eps=1.0), est, 50
    )
    assert abs(nu - calibration.nu_theory(2, 50)) < 1e-15
    assert details == {"theta": 0.0, "eps": 1.0}

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="bootstrap", reps=6, seed=31), est, 50
    )
    assert len(details["norms"]) == 6
    assert abs(nu - float(np.mean(details["norms"])) ** 2) < 1e-12

    nu, _ = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="bootstrap", reps=6, seed=31, mean_of_squares=True),
        est,
        50,
    )
    assert nu == calibration.nu_bootstrap(est, 50, 6, 31, mean_of_squares=True)


def test_calibration_report_dict():
    report = calibration.calibration_report_dict("theory", 0.5, {"theta": 0.0})
    assert report == {"mode": "theory", "value": 0.5, "details": {"theta": 0.0}}


def test_bootstrap_norms_match_per_repetition_simulation(monkeypatch):
    ds = measurement.simulate_dataset(states.mixture(3, 2, 0.3), 50, 17)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    calls = []
    table = measurement.probability_table
    monkeypatch.setattr(
        measurement, "probability_table", lambda rho: calls.append(1) or table(rho)
    )
    norms = calibration.bootstrap_norms(est, 50, 4, 99)
    monkeypatch.undo()
    assert len(calls) == 1

    sigma = states.nearest_density(est.matrix)
    expected = []
    for child in np.random.SeedSequence(99).spawn(4):
        synth = inversion.linear_estimator(
            measurement.empirical_frequencies(measurement.simulate_dataset(sigma, 50, child))
        )
        expected.append(states.operator_norm(synth.matrix - sigma))
    assert norms.tolist() == expected
