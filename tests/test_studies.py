import numpy as np
import pytest

from qtomo import calibration, inversion, measurement, rankpen, states, studies
from qtomo.errors import ConfigError


def test_rank_study_record_counts_and_pairing():
    records, aggregates = studies.rank_study(
        2, 40, [1, 2], modes=("oracle", "theory"), reps=4, seed=0
    )
    assert len(records) == 2 * 2 * 4
    assert len(aggregates) == 4
    # both modes see the same simulated dataset per (d, rep)
    for d in (1, 2):
        for rep in range(4):
            errs = {r.op_error for r in records if r.d == d and r.rep == rep}
            assert len(errs) == 1
    for a in aggregates:
        assert 0.0 <= a["frequency"] <= 1.0
        assert a["mean_nu"] >= 0.0


def test_rank_study_deterministic():
    _, a = studies.rank_study(2, 30, [1], modes=("oracle",), reps=3, seed=9)
    _, b = studies.rank_study(2, 30, [1], modes=("oracle",), reps=3, seed=9)
    _, c = studies.rank_study(2, 30, [1], modes=("oracle",), reps=3, seed=10)
    assert a == b
    assert a != c


def test_rank_study_fixed_mode():
    records, _ = studies.rank_study(2, 50, [2], modes=("fixed:0.01",), reps=2, seed=1)
    assert all(r.nu == 0.01 for r in records)


def test_rank_study_rejects_bad_input():
    with pytest.raises(ConfigError):
        studies.rank_study(2, 40, [], reps=3)
    with pytest.raises(ConfigError):
        studies.rank_study(2, 40, [1], reps=0)
    with pytest.raises(ConfigError):
        studies.rank_study(2, 40, [1], modes=("magic",), reps=1)


def test_rank_study_nu_matches_independent_formulas():
    n, m, seed, theta, eps, boot_reps = 2, 40, 5, 0.5, 0.2, 4
    modes = ("oracle", "theory", "bootstrap", "fixed:0.03", "0.07")
    records, aggregates = studies.rank_study(
        n, m, [1, 2], modes=modes, reps=2, seed=seed, theta=theta, eps=eps,
        bootstrap_reps=boot_reps,
    )
    assert len(records) == 2 * 2 * len(modes)
    assert [a["mode"] for a in aggregates] == list(modes) * 2
    for r in records:
        rho = states.diag_state(n, r.d)
        ds = measurement.simulate_dataset(
            rho, m, np.random.SeedSequence(seed, spawn_key=(0, r.d, r.rep))
        )
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        boot = np.random.SeedSequence(seed, spawn_key=(1, r.d, r.rep))
        expected = {
            "oracle": states.operator_norm(est - rho) ** 2,
            "theory": calibration.nu_theory(n, m, theta, eps),
            "bootstrap": float(
                np.mean(calibration.bootstrap_norms(rankpen.spectral(est), m, boot_reps, boot))
            ) ** 2,
            "fixed:0.03": 0.03,
            "0.07": 0.07,
        }[r.mode]
        assert r.nu == expected, r


def test_rank_study_builds_one_outcome_law_per_state(monkeypatch):
    # one probability table per d for the datasets, and one per (d, rep) for
    # the bootstrap's sigma; the other modes build none
    calls = []
    table = measurement.probability_table
    monkeypatch.setattr(
        measurement, "probability_table", lambda rho: calls.append(1) or table(rho)
    )
    studies.rank_study(2, 40, [1, 2, 3], modes=("oracle", "theory"), reps=4, seed=1)
    assert len(calls) == 3
    studies.rank_study(2, 40, [1, 2, 3], modes=("bootstrap",), reps=4, seed=1,
                       bootstrap_reps=2)
    assert len(calls) == 3 + 3 + 3 * 4


def _count_draws(monkeypatch) -> list:
    """Record every outcome law built and every dataset drawn from now on."""
    calls = []
    for name in ("outcome_law", "draw_dataset"):
        monkeypatch.setattr(
            measurement, name,
            lambda *a, f=getattr(measurement, name): calls.append(1) or f(*a),
        )
    return calls


@pytest.mark.parametrize("bad", [
    "fixed:-1", "fixed:x", "magic", "fixed:nan",
    # a rank or a sample size that the sweep reaches only after some draws
    pytest.param({"d_values": [1, 2, 9]}, id="d=9"),
    pytest.param({"m": 0}, id="m=0"),
])
def test_rank_study_rejects_bad_mode_before_simulating(monkeypatch, bad):
    calls = _count_draws(monkeypatch)
    args = dict(m=40, d_values=[1, 2], modes=("theory",), reps=2)
    args.update(bad if isinstance(bad, dict) else {"modes": ("theory", bad)})
    with pytest.raises(ConfigError):
        studies.rank_study(2, **args)
    assert calls == []


@pytest.mark.parametrize("d_values, m_values", [
    pytest.param([1, 2], [40, 0], id="m=0"),
    pytest.param([1, 2, 9], [40], id="d=9"),
])
def test_error_study_rejects_bad_sweep_before_simulating(monkeypatch, d_values, m_values):
    calls = _count_draws(monkeypatch)
    with pytest.raises(ConfigError):
        studies.error_study(2, d_values, m_values, reps=5)
    assert calls == []


def test_error_study_aggregates():
    records, aggregates = studies.error_study(2, [1, 2], [20, 40], reps=5, seed=2)
    assert len(records) == 2 * 2 * 5
    assert len(aggregates) == 4
    for a in aggregates:
        rows = [r.op_error for r in records if r.d == a["d"] and r.m == a["m"]]
        assert abs(a["mean_error"] - np.mean(rows)) < 1e-12
        assert a["max_error"] == max(rows)
    with pytest.raises(ConfigError):
        studies.error_study(2, [], [20], reps=2)


def test_error_study_draws_each_point_from_its_own_stream(monkeypatch):
    # one outcome law per state, and dataset (d, m, rep) from stream (0, d, m, rep)
    n, seed = 2, 3
    tables = []
    table = measurement.probability_table
    monkeypatch.setattr(
        measurement, "probability_table", lambda rho: tables.append(1) or table(rho)
    )
    records, _ = studies.error_study(n, [1, 3], [20, 50], reps=3, seed=seed)
    monkeypatch.undo()
    assert len(tables) == 2
    for r in records:
        rho = states.diag_state(n, r.d)
        ds = measurement.simulate_dataset(rho, r.m, measurement.stream(seed, 0, r.d, r.m, r.rep))
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        assert r.op_error == states.operator_norm(est - rho)
        assert r.frob_error == states.frobenius_norm(est - rho)

