"""Each input rule has one home: every entry point gives its one message."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtomo
from qtomo import calibration, inversion, measurement, pauli, rankpen, states, studies
from qtomo.cli import main
from qtomo.errors import ConfigError, FormatError


def run(*argv):
    return main([str(a) for a in argv])


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_a_repetition_count_beyond_a_64_bit_count_has_one_message(tmp_path, capsys):
    m = 2**63
    expected = _message(lambda: measurement.check_repetitions(m))
    assert expected == f"repetition count m={m} must be <= 2^63 - 1"
    assert run("simulate", "--n", 2, "--m", m, "--state", "ghz", "--out", tmp_path / "x.json") == 2
    assert capsys.readouterr().err == f"configuration error: {expected}\n"
    assert not (tmp_path / "x.json").exists()
    assert _message(lambda: measurement.simulate_dataset(states.ghz(2), m, 0)) == expected
    assert _message(lambda: calibration.nu_theory(4, m)) == expected
    assert _message(lambda: inversion.hoeffding_radius(4, m, 0.5)) == expected
    assert _message(lambda: inversion.variance_bound("xiz", m)) == expected


@pytest.mark.parametrize("mode, field, value, evaluate, expected", [
    ("theory", "eps", 0.0, lambda: calibration.nu_theory(3, 100, eps=0.0), "eps=0.0 out of (0, 1]"),
    ("theory", "theta", -1.0, lambda: calibration.nu_theory(3, 100, theta=-1.0),
     "theta=-1.0 must be finite and >= 0"),
    ("bootstrap", "reps", 1,
     lambda: calibration.bootstrap_norms(rankpen.spectral(states.ghz(2)), 100, 1, 0),
     "bootstrap needs reps >= 2, got 1"),
])
def test_a_bad_penalty_parameter_raises_one_config_error(mode, field, value, evaluate, expected):
    for call in (lambda: calibration.PenaltyChoice(mode, **{field: value}), evaluate):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == expected


@pytest.mark.parametrize("penalty", ["theory", "fixed:0.01", "oracle", "bootstrap"])
def test_spectrum_counts_the_rank_that_estimate_selects(tmp_path, capsys, penalty):
    data, state = tmp_path / "data.json", tmp_path / "state.json"
    states.save_state(state, states.mixture(3, 2, 0.3))
    run("simulate", "--n", 3, "--m", 2000, "--state", state, "--seed", 1, "--out", data)
    flags = ("--penalty", penalty, "--state", state, "--reps", 4, "--seed", 9)
    assert run("estimate", data, *flags, "--out", tmp_path / "fit") == 0
    capsys.readouterr()
    assert run("spectrum", data, *flags, "--out", tmp_path / "spectrum.csv") == 0
    above = int(capsys.readouterr().out.split(", ")[1].split()[0])
    assert above == json.loads((tmp_path / "fit" / "fit.json").read_text())["k_hat"]


def _bad(value, entry=(0, 1)) -> np.ndarray:
    matrix = states.mixture(2, 2, 0.5)
    matrix[entry] = value
    return matrix


_NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]


@pytest.mark.parametrize("check", [
    states.require_hermitian, states.require_density, states.pauli_expand, rankpen.spectral,
    measurement.outcome_law,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", _NON_FINITE, ids=str)
def test_a_non_finite_entry_is_rejected_before_any_arithmetic(check, value):
    # under the suite's warnings-as-errors, arithmetic on inf would raise a RuntimeWarning
    assert _message(lambda: check(_bad(value))) == "entry [0, 1] is not finite"
    assert _message(lambda: check(_bad(value, (3, 3)))) == "entry [3, 3] is not finite"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("stack", [(), (2,)], ids=["one", "stack"])
def test_frequencies_with_a_non_finite_entry_are_rejected(value, stack):
    values = np.broadcast_to(measurement.probability_table(states.ghz(2)), (*stack, 9, 4)).copy()
    values[..., 4, 1] = value
    assert _message(lambda: measurement.EmpiricalFrequencies(2, values)) == (
        "frequencies must lie in [0, 1]")


def test_a_one_batch_bootstrap_leaves_concurrent_futures_unimported(tmp_path):
    data = tmp_path / "data.json"
    measurement.save_dataset(data, measurement.simulate_dataset(states.ghz(3), 100, 0))
    script = (
        "import sys, qtomo.cli; "
        f"code = qtomo.cli.main(['estimate', {str(data)!r}, '--penalty', 'bootstrap', "
        f"'--reps', '20', '--out', {str(tmp_path / 'fit')!r}]); "
        "print(code, 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qtomo.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


def test_spectrum_rejects_an_infinite_nu_as_estimate_does(tmp_path, capsys):
    # theta = 1e308 overflows the theory penalty to nu = inf
    data = tmp_path / "data.json"
    measurement.save_dataset(data, measurement.simulate_dataset(states.ghz(3), 100, 0))
    for command, out in (("estimate", tmp_path / "fit"), ("spectrum", tmp_path / "s.csv")):
        assert run(command, data, "--theta", "1e308", "--out", out) == 2
        assert capsys.readouterr().err == (
            "configuration error: penalty nu=inf must be finite and >= 0\n")
        assert not out.exists()


@pytest.mark.parametrize("seed", [None, [1, 2], True, -1, 1.5], ids=repr)
def test_a_seed_that_is_not_a_non_negative_integer_or_a_seed_sequence_raises(seed):
    law = measurement.outcome_law(states.ghz(2))
    for call in (lambda: measurement.simulate_dataset(states.ghz(2), 10, seed),
                 lambda: measurement.draw_dataset(law, 10, seed)):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == (
            f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")


@pytest.mark.parametrize("seed", [7, np.int64(7), 2**70], ids=repr)
def test_an_integer_seed_draws_the_bits_of_default_rng(seed):
    rho = states.mixture(2, 2, 0.3)
    law = measurement.outcome_law(rho)
    expected = np.random.default_rng(seed).multinomial(50, law)
    np.testing.assert_array_equal(measurement.draw_dataset(law, 50, seed).counts, expected)
    np.testing.assert_array_equal(measurement.simulate_dataset(rho, 50, seed).counts, expected)


def test_a_theory_penalty_that_overflows_is_rejected_as_it_is_made():
    with pytest.raises(ConfigError) as info:
        calibration.PenaltyChoice("theory", theta=1e308)
    assert str(info.value) == "penalty nu=inf must be finite and >= 0"


def test_calibrate_rejects_an_infinite_nu_and_writes_nothing(tmp_path, capsys):
    data = tmp_path / "data.json"
    measurement.save_dataset(data, measurement.simulate_dataset(states.ghz(3), 100, 0))
    for out in ((), ("--out", tmp_path / "cal.json")):
        assert run("calibrate", data, "--penalty", "theory", "--theta", "1e308", *out) == 2
        assert capsys.readouterr() == (
            "", "configuration error: penalty nu=inf must be finite and >= 0\n")
    assert sorted(tmp_path.iterdir()) == [data]


def test_estimate_rejects_an_objective_that_overflows_and_writes_nothing(tmp_path, capsys):
    # nu = 1e308 is finite, but nu * k overflows for k >= 2; under the suite's
    # warnings-as-errors, an overflow warning would raise instead of exiting 2
    data = tmp_path / "data.json"
    measurement.save_dataset(data, measurement.simulate_dataset(states.ghz(2), 50, 0))
    assert run("estimate", data, "--penalty", "fixed:1e308", "--out", tmp_path / "fit") == 2
    assert capsys.readouterr() == (
        "", "configuration error: an output value is not finite, which JSON cannot hold\n")
    assert sorted(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("study", [
    lambda: studies.rank_study(2, 50, [1, 9], reps=2),
    lambda: studies.error_study(2, [1, 9], [50], reps=2),
], ids=["rank_study", "error_study"])
def test_a_study_rank_out_of_range_raises_before_any_draw(monkeypatch, study):
    calls = []
    for name in ("outcome_law", "draw_dataset"):
        monkeypatch.setattr(measurement, name,
                            lambda *a, f=getattr(measurement, name): calls.append(1) or f(*a))
    with pytest.raises(ConfigError) as info:
        study()
    assert str(info.value) == "rank d=9 out of range [1, 4]"
    assert calls == []


@pytest.mark.parametrize("call, kind, expected", [
    (lambda: measurement.EmpiricalFrequencies(2, np.zeros((9, 3))), ValueError,
     "values shape (9, 3) does not match (9, 4)"),
    (lambda: measurement.EmpiricalFrequencies(1, [[0.5, 0.4], [0.5, 0.5], [0.5, 0.5]]),
     ValueError, "per-setting frequency sums deviate from 1 by 1.000e-01"),
    (lambda: measurement.dataset_from_dict({"n": 1, "m": 1, "counts": {}}), FormatError,
     "counts: expected a list"),
    (lambda: pauli.check_qubits(1.5), ConfigError, "qubit count must be an integer, got 1.5"),
    (lambda: pauli.setting_at(2, 9), ValueError, "setting index 9 out of range for n=2"),
    (lambda: states.qubit_count(np.zeros((2, 4))), ValueError,
     "expected a square matrix, got shape (2, 4)"),
    (lambda: states.qubit_count(np.zeros((3, 3))), ValueError,
     "matrix dimension 3 is not a power of two >= 2"),
    (lambda: states.require_density(np.eye(2)), ValueError,
     "trace 2.0 differs from 1 by more than 1.0e-10"),
    (lambda: states.project_simplex([]), ValueError, "expected a non-empty 1-d vector"),
    (lambda: states.state_from_dict([1]), FormatError, "expected a JSON object"),
], ids=["frequency shape", "frequency row sum", "counts not a list", "n not an integer",
        "setting index", "not square", "not a power of two", "trace", "empty simplex",
        "not an object"])
def test_each_library_input_rule_raises_its_type_and_message(call, kind, expected):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == expected


def test_each_command_line_input_rule_exits_2_with_its_message(tmp_path, capsys):
    state = tmp_path / "ghz2.json"
    states.save_state(state, states.ghz(2))
    cases = [
        (("rank-study", "--n", 2, "--m", 10, "--d", "1,x"),
         "--d: expected comma-separated integers, got '1,x'"),
        (("rank-study", "--n", 2, "--m", 10, "--d", 1, "--penalty", ","),
         "empty penalty mode list"),
        (("simulate", "--n", 2, "--m", 10), "--state diag needs --d"),
        (("simulate", "--n", 3, "--m", 10, "--state", state),
         f"state file {str(state)!r} has n=2, expected --n 3"),
    ]
    for argv, message in cases:
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")
        assert not out.exists()


_PAULI_INDEX = [(pauli.degree, "i", "basis label", "ixyz"),
                (pauli.setting_index, "x", "setting", "xyz"),
                (pauli.outcome_index, "+", "outcome", "-+")]


@pytest.mark.parametrize("index, char, what, chars", _PAULI_INDEX,
                         ids=[f.__name__ for f, *_ in _PAULI_INDEX])
@pytest.mark.parametrize("text, kind, expected", [
    ("{char}q", ValueError, "invalid {what} '{char}q': characters must be in '{chars}'"),
    ("", ConfigError, "qubit count must be >= 1, got 0"),
    ("{char}" * (pauli.MAX_QUBITS + 1), ConfigError,
     f"n={pauli.MAX_QUBITS + 1} exceeds the configured limit of {pauli.MAX_QUBITS} qubits"),
], ids=["bad character", "empty", "too long"])
def test_each_pauli_string_rule_raises_its_type_and_message(index, char, what, chars, text,
                                                            kind, expected):
    with pytest.raises(ValueError) as info:
        index(text.format(char=char))
    assert type(info.value) is kind
    assert str(info.value) == expected.format(char=char, what=what, chars=chars)


def test_a_bad_row_in_a_stack_of_datasets_names_its_setting():
    counts = np.full((2, 2, 9, 4), [3, 0, 0, 0])
    counts[1, 0, 5] = [1, 1, 0, 0]  # setting 5 of n = 2 is 'yz'
    with pytest.raises(ValueError) as info:
        measurement.Dataset(n=2, m=3, counts=counts)
    assert type(info.value) is ValueError
    assert str(info.value) == "setting 'yz' sums to 2, expected m=3"


@pytest.mark.parametrize("rho, trace", [
    (2 * states.ghz(2), "1.9999999999999996"),
    (0.3 * states.diag_state(2, 1), "0.3"),
], ids=["2 ghz", "0.3 diag"])
def test_a_state_whose_trace_is_not_1_is_not_sampled(rho, trace):
    expected = f"trace {trace} differs from 1 by more than 1.0e-10"
    assert _message(lambda: states.require_density(rho)) == expected
    assert _message(lambda: measurement.outcome_law(rho)) == expected
    assert _message(lambda: measurement.simulate_dataset(rho, 10, 0)) == expected


def test_a_trace_within_the_tolerance_is_sampled():
    rho = (1 + 0.5 * states.TRACE_ATOL) * states.ghz(2)
    np.testing.assert_array_equal(measurement.simulate_dataset(rho, 10, 0).counts.sum(axis=1), 10)
