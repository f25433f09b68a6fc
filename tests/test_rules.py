"""Each input rule has one home: every entry point gives its one message."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtomo
from qtomo import calibration, inversion, measurement, rankpen, states
from qtomo.cli import main
from qtomo.errors import ConfigError


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
