import json
import math
import os
import threading

import numpy as np
import pytest

import qtomo
from conftest import maximally_mixed
from forking import allow_processes, no_child_left
from qtomo import _shares, calibration, inversion, measurement, rankpen, states
from qtomo.errors import ConfigError, FormatError


ORACLE = calibration.PenaltyChoice("oracle")


def _exact_dataset(rho, m):
    """A dataset whose counts are exactly m times the outcome law of ``rho``."""
    counts = measurement.probability_table(rho) * m
    assert np.allclose(counts, np.rint(counts), rtol=0.0, atol=1e-9)
    return measurement.Dataset(n=states.qubit_count(rho), m=m, counts=np.rint(counts).astype(np.int64))


def test_nu_oracle_zero_when_exact():
    # every outcome of the maximally mixed state once: the estimate is exact
    rho = maximally_mixed(2)
    assert calibration.calibrate(_exact_dataset(rho, 4), [ORACLE], 0, rho)[1] == [(0.0, {})]


def test_nu_oracle_diagonal_difference():
    rho = states.diag_state(2, 2)
    ds = _exact_dataset(np.diag([0.8, 0.2, 0.0, 0.0]).astype(complex), 20)
    _dec, [(nu, details)], _op_error, _frob_error = calibration.calibrate(ds, [ORACLE], 0, rho)
    assert abs(nu - 0.09) < 1e-12 and details == {}


def test_nu_oracle_reads_the_bare_matrix():
    rho = states.mixture(2, 2, 0.3)
    ds = measurement.simulate_dataset(rho, 40, 12)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec, [(nu, _details)], op_error, frob_error = calibration.calibrate(ds, [ORACLE], 0, rho)
    assert nu == states.operator_norm(est - rho) ** 2
    assert op_error == states.operator_norm(est - rho)
    assert frob_error == states.frobenius_norm(est - rho)
    assert np.array_equal(dec.eigenvalues, rankpen.spectral(est).eigenvalues)


def test_nu_oracle_dimension_mismatch():
    ds = measurement.simulate_dataset(states.ghz(2), 10, 0)
    with pytest.raises(ValueError, match=r"dimension mismatch: estimate \(4, 4\), truth \(8, 8\)"):
        calibration.calibrate(ds, [ORACLE], 0, states.ghz(3))


def test_calibrate_without_choices_decomposes_nothing(monkeypatch):
    rho = states.diag_state(2, 1)
    ds = measurement.simulate_dataset(rho, 30, 4)
    monkeypatch.setattr(rankpen, "spectral", lambda *a: pytest.fail("decomposed"))
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    diff = est - rho
    assert calibration.calibrate(ds, [], 0, rho) == (
        None, [], states.operator_norm(diff), states.frobenius_norm(diff))
    assert calibration.calibrate(ds, [], 0) == (None, [], None, None)


def test_nu_theory_frozen_values():
    assert abs(calibration.nu_theory(4, 50) - 5.6082) < 5e-4
    assert abs(calibration.nu_theory(4, 100) - 2.8041) < 5e-4


def test_nu_theory_scaling_and_ranges():
    v = calibration.nu_theory(3, 80, theta=0.5, eps=0.2)
    assert abs(calibration.nu_theory(3, 160, theta=0.5, eps=0.2) - v / 2.0) < 1e-12
    assert calibration.nu_theory(3, 80, theta=1.0, eps=0.2) > v
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 0)
    for theta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            calibration.nu_theory(3, 80, theta=theta)
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 80, eps=0.0)
    with pytest.raises(ValueError):
        calibration.nu_theory(3, 80, eps=1.01)


def test_nu_bootstrap_deterministic():
    ds = measurement.simulate_dataset(states.diag_state(2, 2), 60, 5)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    choice = calibration.PenaltyChoice("bootstrap", reps=8)
    a = calibration.resolve_penalty(choice, dec, 60, 123)[0]
    b = calibration.resolve_penalty(choice, dec, 60, 123)[0]
    c = calibration.resolve_penalty(choice, dec, 60, 124)[0]
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        calibration.resolve_penalty(calibration.PenaltyChoice("bootstrap", reps=1), dec, 60, 123)


def test_nu_bootstrap_repeats_for_one_seed_sequence_object():
    ds = measurement.simulate_dataset(states.diag_state(2, 2), 100, 5)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    choice = calibration.PenaltyChoice("bootstrap", reps=5)
    ss = np.random.SeedSequence(6)
    first = calibration.resolve_penalty(choice, dec, 100, ss)[0]
    assert calibration.resolve_penalty(choice, dec, 100, ss)[0] == first
    assert calibration.resolve_penalty(choice, dec, 100, np.random.SeedSequence(6))[0] == first


def test_nu_bootstrap_vanishes_with_many_repetitions():
    est = maximally_mixed(1)
    dec = rankpen.spectral(est)
    choice = calibration.PenaltyChoice("bootstrap", reps=10)
    small_m = calibration.resolve_penalty(choice, dec, 100, 3)[0]
    large_m = calibration.resolve_penalty(choice, dec, 4000, 3)[0]
    assert large_m < small_m
    assert large_m < 0.01


def test_every_name_in_the_package_all_resolves():
    # calibration.nu_bootstrap left the package with its __all__ entry
    namespace = {}
    exec("from qtomo import *", namespace)  # raises if a listed name is missing
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qtomo.__all__)
    assert all(getattr(qtomo, name) is namespace[name] for name in qtomo.__all__)
    assert "nu_bootstrap" not in qtomo.__all__


def test_nu_bootstrap_tracks_oracle_within_factor_three():
    rho = states.diag_state(3, 2)
    m = 100
    true_nus = []
    for rep in range(40):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(7, spawn_key=(rep,)))
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        true_nus.append(states.operator_norm(est - rho) ** 2)
    truth = float(np.mean(true_nus))

    ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(11))
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    boot = calibration.resolve_penalty(calibration.PenaltyChoice("bootstrap", reps=20), dec, m, 13)[0]
    assert truth / 3.0 <= boot <= truth * 3.0


def test_nu_theory_dominates_observed_oracle():
    # the closed-form penalty is a loose upper bound in practice
    n, m = 4, 50
    bound = calibration.nu_theory(n, m)
    for d in (1, 2, 4):
        rho = states.diag_state(n, d)
        for rep in range(7):
            ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(23, spawn_key=(d, rep)))
            est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
            assert states.operator_norm(est - rho) ** 2 < bound


PARSE_TABLE = [
    ("oracle", ("oracle", None)),
    ("theory", ("theory", None)),
    ("bootstrap", ("bootstrap", None)),
    ("fixed:0.05", ("fixed", 0.05)),
    ("fixed:0", ("fixed", 0.0)),
    ("0.05", ("fixed", 0.05)),
    ("2", ("fixed", 2.0)),
    ("1e-3", ("fixed", 0.001)),
    # tokens as they come out of a comma list such as "oracle, theory ,0.5"
    (" theory", ("theory", None)),
    ("theory ", ("theory", None)),
    (" 0.5 ", ("fixed", 0.5)),
    (" fixed:0.5", ("fixed", 0.5)),
    ("fixed", ConfigError),
    ("fixed:", ConfigError),
    ("fixed:x", ConfigError),
    ("fixed:fixed:1", ConfigError),
    ("fixed:-1", ConfigError),
    ("-1", ConfigError),
    ("-0.5", ConfigError),
    ("nan", ConfigError),
    ("fixed:nan", ConfigError),
    ("inf", ConfigError),
    ("fixed:inf", ConfigError),
    ("-inf", ConfigError),
    ("magic", ConfigError),
    ("Theory", ConfigError),
    ("", ConfigError),
    ("oracle,theory", ConfigError),
]


@pytest.mark.parametrize(
    "text, expected", PARSE_TABLE, ids=[repr(text) for text, _ in PARSE_TABLE]
)
def test_penalty_choice_parse(text, expected):
    if expected is ConfigError:
        with pytest.raises(ConfigError):
            calibration.PenaltyChoice.parse(text, theta=0.0, eps=1.0, reps=20)
        return
    choice = calibration.PenaltyChoice.parse(text, theta=0.5, eps=0.1, reps=7)
    assert (choice.mode, choice.value) == expected
    assert (choice.theta, choice.eps, choice.reps) == (0.5, 0.1, 7)


@pytest.mark.parametrize("value", [None, -1.0, float("nan"), float("inf")])
def test_fixed_penalty_choice_needs_finite_non_negative_value(value):
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode="fixed", value=value)


@pytest.mark.parametrize("text", ["-0", "fixed:-0", "-0.0", "fixed:-0e3"])
def test_a_negative_zero_penalty_is_read_as_zero(text):
    # -0.0 == 0.0, so only the sign tells the two apart
    choice = calibration.PenaltyChoice.parse(text, theta=0.0, eps=1.0, reps=20)
    assert choice.value == 0.0 and math.copysign(1.0, choice.value) == 1.0


def test_penalty_choice_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode="magic")
    assert calibration.PenaltyChoice(mode="fixed", value=0.2).value == 0.2


@pytest.mark.parametrize("mode, field, value", [
    ("theory", "theta", -0.5),
    ("theory", "theta", math.nan),
    ("theory", "theta", math.inf),
    ("theory", "eps", 0.0),
    ("theory", "eps", 1.5),
    ("theory", "eps", math.nan),
    ("bootstrap", "reps", 1),
    ("bootstrap", "reps", 0),
])
def test_penalty_choice_checks_its_mode_parameters(mode, field, value):
    with pytest.raises(ConfigError):
        calibration.PenaltyChoice(mode=mode, **{field: value})
    # a mode that ignores the value keeps accepting it
    other = "bootstrap" if mode == "theory" else "theory"
    for ignoring in ("oracle", "fixed", other):
        calibration.PenaltyChoice(mode=ignoring, value=0.1, **{field: value})


def test_penalty_choice_details_are_json_for_numpy_parameters():
    # numpy numbers pass the parameter rules; the choice keeps Python ones,
    # so the details a report writes are JSON
    ds = measurement.simulate_dataset(states.diag_state(2, 2), 50, 29)
    choices = [calibration.PenaltyChoice("bootstrap", reps=np.int64(4)),
               calibration.PenaltyChoice("theory", theta=np.float32(0.5), eps=np.float64(0.2))]
    assert [type(choices[0].reps), type(choices[1].theta), type(choices[1].eps)] == [int, float, float]
    details = [d for _, d in calibration.calibrate(ds, choices, 0)[1]]
    assert json.loads(json.dumps(details)) == details
    assert (details[0]["reps"], details[1]["theta"], details[1]["eps"]) == (4, 0.5, 0.2)


def test_resolve_penalty_modes():
    rho = states.diag_state(2, 2)
    ds = measurement.simulate_dataset(rho, 50, 29)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="fixed", value=0.2), dec, 50, 0
    )
    assert nu == 0.2 and details == {}

    op_error = states.operator_norm(est - rho)
    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="oracle"), dec, 50, 0, op_error=op_error
    )
    assert nu == op_error**2 and details == {}

    with pytest.raises(ConfigError, match="true state"):
        calibration.resolve_penalty(calibration.PenaltyChoice(mode="oracle"), dec, 50, 0)

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="theory", theta=0.0, eps=1.0), dec, 50, 0
    )
    assert abs(nu - calibration.nu_theory(2, 50)) < 1e-15
    assert details == {"theta": 0.0, "eps": 1.0}

    nu, details = calibration.resolve_penalty(
        calibration.PenaltyChoice(mode="bootstrap", reps=6), dec, 50, 31
    )
    assert len(details["norms"]) == 6
    assert abs(nu - float(np.mean(details["norms"])) ** 2) < 1e-12


@pytest.mark.parametrize("penalty", ["oracle", "theory", "bootstrap", "fixed:0.3"])
def test_resolve_penalty_gives_the_same_bits_from_the_dataset(penalty):
    # the fit path starts from the dataset, a library caller from the
    # decomposition of its inverse and the oracle's operator error
    rho = states.mixture(3, 2, 0.3)
    ds = measurement.simulate_dataset(rho, 40, 47)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    choice = calibration.PenaltyChoice.parse(penalty, theta=0.5, eps=0.2, reps=4)
    assert calibration.calibrate(ds, [choice], 53, rho)[1] == [calibration.resolve_penalty(
        choice, rankpen.spectral(est), 40, 53, states.operator_norm(est - rho)
    )]


def test_bootstrap_norms_match_per_repetition_simulation(monkeypatch):
    ds = measurement.simulate_dataset(states.mixture(3, 2, 0.3), 50, 17)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    calls = []
    table = measurement.probability_table
    monkeypatch.setattr(
        measurement, "probability_table", lambda rho: calls.append(1) or table(rho)
    )
    norms = calibration.bootstrap_norms(dec, 50, 4, 99)
    monkeypatch.undo()
    assert len(calls) == 1

    sigma = states.nearest_density(*np.linalg.eigh(est))
    expected = []
    for child in np.random.SeedSequence(99).spawn(4):
        synth = inversion.linear_estimator(
            measurement.empirical_frequencies(measurement.simulate_dataset(sigma, 50, child))
        )
        expected.append(states.operator_norm(synth - sigma))
    assert norms.tolist() == expected


def test_bootstrap_norms_build_the_outcome_law_once(monkeypatch):
    ds = measurement.simulate_dataset(states.mixture(2, 1, 0.2), 40, 3)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    calls = []
    law = measurement.outcome_law
    monkeypatch.setattr(
        measurement, "outcome_law", lambda *a: calls.append(1) or law(*a)
    )
    assert calibration.bootstrap_norms(dec, 40, 5, 8).shape == (5,)
    assert len(calls) == 1


def _batch_sizes(monkeypatch) -> list:
    """Record how many repetitions each bootstrap batch inverts."""
    sizes = []
    frequencies = measurement.empirical_frequencies
    monkeypatch.setattr(
        measurement, "empirical_frequencies",
        lambda ds: sizes.append(ds.counts.shape[0]) or frequencies(ds),
    )
    return sizes


def test_bootstrap_batches_give_the_bits_of_a_per_repetition_loop(monkeypatch):
    monkeypatch.setattr(_shares, "_worker_count", lambda: 1)  # one process: the counts see every call
    n, m, seed = 5, 30, 31
    per_batch = calibration.BATCH_CELLS // 6**n
    assert per_batch > 1
    reps = 2 * per_batch + 1  # two full batches and a partial one
    ds = measurement.simulate_dataset(states.mixture(n, 2, 0.4), m, 37)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    sizes = _batch_sizes(monkeypatch)
    norms = calibration.bootstrap_norms(dec, m, reps, seed)
    monkeypatch.undo()
    assert sizes == [per_batch, per_batch, 1]

    sigma = states.nearest_density(*np.linalg.eigh(est))
    expected = []
    for j in range(reps):
        synth = inversion.linear_estimator(measurement.empirical_frequencies(
            measurement.simulate_dataset(sigma, m, measurement.stream(seed, j))
        ))
        expected.append(states.operator_norm(synth - sigma))
    assert norms.tolist() == expected


def _multi_batch_bootstrap(reps: int = 9):
    """(decomposition, m, reps, seed) of an n = 5 bootstrap of three batches."""
    assert calibration.BATCH_CELLS // 6**5 == 4
    ds = measurement.simulate_dataset(states.mixture(5, 2, 0.4), 30, 37)
    dec = rankpen.spectral(inversion.linear_estimator(measurement.empirical_frequencies(ds)))
    return dec, 30, reps, 31


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bootstrap_bits_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # three batches: one process, two (two batches and one), one batch each
    dec, m, reps, seed = _multi_batch_bootstrap()
    allow_processes(monkeypatch, workers)
    norms = calibration.bootstrap_norms(dec, m, reps, seed)
    monkeypatch.undo()

    sigma = states.nearest_density(dec.eigenvalues, dec.vectors)
    expected = []
    for j in range(reps):
        synth = inversion.linear_estimator(measurement.empirical_frequencies(
            measurement.simulate_dataset(sigma, m, measurement.stream(seed, j))
        ))
        expected.append(states.operator_norm(synth - sigma))
    assert norms.tolist() == expected


def test_a_one_batch_bootstrap_forks_no_process(monkeypatch):
    def refuse():
        raise AssertionError("a one-batch bootstrap forked")

    allow_processes(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", refuse)
    ds = measurement.simulate_dataset(states.mixture(4, 2, 0.3), 30, 5)
    dec = rankpen.spectral(inversion.linear_estimator(measurement.empirical_frequencies(ds)))
    assert calibration.bootstrap_norms(dec, 30, 20, 7).shape == (20,)


def test_a_multi_batch_bootstrap_starts_no_thread(monkeypatch):
    # the calling process draws its own share on the calling thread
    dec, m, reps, seed = _multi_batch_bootstrap()
    allow_processes(monkeypatch, 3)
    threads, draw = set(), measurement.draw_counts
    monkeypatch.setattr(measurement, "draw_counts", lambda *a: threads.add(
        threading.get_ident()) or draw(*a))
    before = threading.active_count()
    assert calibration.bootstrap_norms(dec, m, reps, seed).shape == (reps,)
    assert threading.active_count() == before
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_draw_reaches_the_caller_and_stops_later_draws(monkeypatch, workers):
    # six batches of four; the second, in the calling process's share, fails
    dec, m, reps, seed = _multi_batch_bootstrap(reps=24)
    allow_processes(monkeypatch, workers)
    started = []  # the batches this process drew
    draw = measurement.draw_counts

    def failing(law, m, streams):
        batch = streams[0].spawn_key[-1] // 4
        started.append(batch)
        if batch == 1:
            raise RuntimeError("draw failed")
        return draw(law, m, streams)

    monkeypatch.setattr(measurement, "draw_counts", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        calibration.bootstrap_norms(dec, m, reps, seed)
    assert started == [0, 1]
    no_child_left()  # a child drawing later batches is stopped and reaped


@pytest.mark.parametrize("error", [
    ConfigError("bad setting"), FormatError("counts[3].outcome", "bad outcome"),
    RuntimeError("draw failed")], ids=lambda e: type(e).__name__)
def test_a_failed_draw_in_a_child_reaches_the_caller_with_its_type(monkeypatch, error):
    # three batches in three processes; the last is a child's share
    dec, m, reps, seed = _multi_batch_bootstrap()
    allow_processes(monkeypatch, 3)
    draw = measurement.draw_counts

    def failing(law, m, streams):
        if streams[0].spawn_key[-1] // 4 == 2:
            raise error
        return draw(law, m, streams)

    monkeypatch.setattr(measurement, "draw_counts", failing)
    with pytest.raises(type(error)) as raised:
        calibration.bootstrap_norms(dec, m, reps, seed)
    assert str(raised.value) == str(error)
    assert getattr(raised.value, "path", None) == getattr(error, "path", None)
    no_child_left()


def test_bootstrap_batches_hold_one_repetition_from_six_qubits(monkeypatch):
    # a 6^6 table alone exceeds the cap, so a large run keeps the memory of
    # one repetition at every n >= 6
    monkeypatch.setattr(_shares, "_worker_count", lambda: 1)  # one process: the counts see every call
    assert calibration.BATCH_CELLS < 6**6
    ds = measurement.simulate_dataset(states.ghz(6), 20, 41)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    sizes = _batch_sizes(monkeypatch)
    assert calibration.bootstrap_norms(dec, 20, 3, 43).shape == (3,)
    assert sizes == [1, 1, 1]


def test_bootstrap_norms_do_not_depend_on_the_repetition_count():
    # one child stream per repetition: the first repetitions of a longer run
    # are the repetitions of a shorter one, bit for bit
    ds = measurement.simulate_dataset(states.mixture(3, 2, 0.3), 50, 23)
    est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
    dec = rankpen.spectral(est)
    short = calibration.bootstrap_norms(dec, 50, 3, 29)
    long = calibration.bootstrap_norms(dec, 50, 5, 29)
    assert short.tolist() == long[:3].tolist()
