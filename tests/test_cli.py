import json

import numpy as np
import pytest

from conftest import (
    ReferenceTomography,
    dataset_to_dict,
    reference_physical_estimate,
    state_to_dict,
)
from qtomo import inversion, measurement, states
from qtomo.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def test_simulate_writes_dataset_and_summary(tmp_path, capsys):
    out = tmp_path / "data.json"
    code = run("simulate", "--n", 2, "--m", 50, "--state", "diag", "--d", 2,
               "--seed", 7, "--out", out)
    assert code == 0
    assert "n=2" in capsys.readouterr().out
    ds = measurement.load_dataset(out)
    assert ds.n == 2 and ds.m == 50
    assert (ds.counts.sum(axis=1) == 50).all()
    assert len(dataset_to_dict(ds)["counts"]) >= 9


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("simulate", "--n", 2, "--m", 30, "--d", 1, "--seed", 3, "--out", a)
    run("simulate", "--n", 2, "--m", 30, "--d", 1, "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_range_error_exit_2(tmp_path, capsys):
    code = run("simulate", "--n", 2, "--m", 10, "--d", 5, "--out", tmp_path / "x.json")
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("m", [2**63, 10**19])
def test_simulate_m_beyond_a_64_bit_count_exit_2(tmp_path, capsys, m):
    out = tmp_path / "x.json"
    assert run("simulate", "--n", 1, "--m", m, "--state", "diag", "--d", 1, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: repetition count m={m} must be <= 2^63 - 1\n")
    assert not out.exists()
    assert run("simulate", "--n", 1, "--m", 2**63 - 1, "--state", "diag", "--d", 1,
               "--out", out) == 0


@pytest.mark.parametrize("m", [2**63, 10**19])
def test_a_dataset_file_with_m_beyond_a_64_bit_count_exit_4(tmp_path, monkeypatch, capsys, m):
    # Two counts of m / 2 per setting: the rows sum to m. The writer's layout
    # (a 19-digit m fits the byte reader's pattern) and an indented copy fail
    # with the json path's error.
    entries = [{"count": m // 2, "outcome": r, "setting": a} for a in "xyz" for r in "-+"]
    obj = {"counts": entries, "m": m, "n": 1}
    (tmp_path / "layout.json").write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    (tmp_path / "indented.json").write_text(json.dumps(obj, indent=1))
    reads = []
    monkeypatch.setattr(states, "read_json", lambda path, f=states.read_json: reads.append(1) or f(path))
    for name in ("layout", "indented"):
        code = run("estimate", tmp_path / f"{name}.json", "--penalty", "bootstrap",
                   "--out", tmp_path / name)
        assert code == 4
        assert capsys.readouterr().err == f"data error: m: repetition count m={m} must be <= 2^63 - 1\n"
    assert reads == [1, 1]


def test_simulate_mixture_needs_p(tmp_path):
    code = run("simulate", "--n", 2, "--m", 10, "--state", "mixture", "--d", 2,
               "--out", tmp_path / "x.json")
    assert code == 2


def test_estimate_round_trip(tmp_path, capsys):
    data = tmp_path / "data.json"
    run("simulate", "--n", 2, "--m", 100, "--d", 2, "--seed", 1, "--out", data)
    out_dir = tmp_path / "fit"
    code = run("estimate", data, "--penalty", "fixed:0.01", "--out", out_dir)
    assert code == 0
    captured = capsys.readouterr()
    assert "k_hat=" in captured.out
    assert captured.err == ""

    report = json.loads((out_dir / "fit.json").read_text())
    assert set(report) == {"nu", "k_hat", "singular_values", "objective"}
    assert report["nu"] == 0.01
    est = states.load_state(out_dir / "estimate_state.json")
    phys = states.load_state(out_dir / "physical_state.json")
    assert est.shape == (4, 4)
    states.require_density(phys)


def test_estimate_fit_json_agrees_with_stdout(tmp_path, capsys):
    n = 3
    data = tmp_path / "data.json"
    run("simulate", "--n", n, "--m", 100, "--state", "ghz", "--seed", 5, "--out", data)
    out_dir = tmp_path / "fit"
    capsys.readouterr()
    assert run("estimate", data, "--penalty", "fixed:0.01", "--out", out_dir) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()[1:3])
    report = json.loads((out_dir / "fit.json").read_text())
    assert type(report["k_hat"]) is int
    assert report["k_hat"] == int(printed["k_hat"])
    values = report["singular_values"]
    assert len(values) == 2**n
    assert values == sorted(values, reverse=True)
    assert values == [float(v) for v in printed["singular_values"].split()]
    objective = report["objective"]
    assert len(objective) == 2**n + 1
    assert objective[report["k_hat"]] == min(objective)


def test_estimate_theory_penalty_well_formed(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--n", 2, "--m", 60, "--state", "w", "--seed", 2, "--out", data)
    out_dir = tmp_path / "fit"
    code = run("estimate", data, "--penalty", "theory", "--theta", 0.0, "--out", out_dir)
    assert code == 0
    report = json.loads((out_dir / "fit.json").read_text())
    # theory threshold is far above any eigenvalue here: tiny or zero rank
    assert 0 <= report["k_hat"] <= 1


def test_estimate_rank_zero_physical_state_follows_the_data(tmp_path):
    # the default theory penalty selects k_hat = 0 at m = 100; the physical
    # state is then the top eigenvector of the linear estimate, so W data and
    # GHZ data give different states, each nearer the state it was drawn from
    truths = {"w": states.w_state(4), "ghz": states.ghz(4)}
    physical = {}
    for name in truths:
        data, out_dir = tmp_path / f"{name}.json", tmp_path / name
        run("simulate", "--n", 4, "--m", 100, "--state", name, "--seed", 7, "--out", data)
        assert run("estimate", data, "--out", out_dir) == 0
        assert json.loads((out_dir / "fit.json").read_text())["k_hat"] == 0
        physical[name] = states.require_density(states.load_state(out_dir / "physical_state.json"))
    fidelity = {(a, b): np.trace(truths[a] @ physical[b]).real for a in truths for b in truths}
    assert fidelity["w", "w"] > fidelity["w", "ghz"]
    assert fidelity["ghz", "ghz"] > fidelity["ghz", "w"]


def _count_linalg(monkeypatch, name: str) -> list:
    """Record every ``numpy.linalg.<name>`` call from now on."""
    f, counted = getattr(np.linalg, name), []
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: counted.append(1) or f(*a, **k))
    return counted


def _dataset_and_state(tmp_path):
    data, state = tmp_path / "data.json", tmp_path / "state.json"
    states.save_state(state, states.mixture(3, 2, 0.3))
    run("simulate", "--n", 3, "--m", 50, "--state", state, "--seed", 1, "--out", data)
    return data, state


@pytest.mark.parametrize("name, n", [("w", 4), ("ghz", 3)])
def test_estimate_rank_zero_physical_state_clears_the_sampling_bound(tmp_path, name, n):
    # At m = 100 the default theory penalty selects k_hat = 0, and the physical
    # state is the top eigenvector of the linear estimate. Its fidelity with
    # the truth must reach the 1 % quantile of that fidelity over 200 datasets
    # that the reference model re-simulates and inverts. The old rank-0 answer
    # |0...0> has fidelity <0...0|rho|0...0> (0 for W, 0.5 for GHZ), below it.
    rho = {"w": states.w_state, "ghz": states.ghz}[name](n)
    ref = ReferenceTomography(n)
    counts = ref.sample_counts(rho, 100, 200, np.random.default_rng(11))
    fidelities = [
        np.trace(rho @ reference_physical_estimate(est, 1)).real
        for est in ref.estimate(counts / 100)
    ]
    bound = np.quantile(fidelities, 0.01)
    assert bound > rho[0, 0].real

    data, out_dir = tmp_path / "data.json", tmp_path / "fit"
    run("simulate", "--n", n, "--m", 100, "--state", name, "--seed", 7, "--out", data)
    assert run("estimate", data, "--out", out_dir) == 0
    assert json.loads((out_dir / "fit.json").read_text())["k_hat"] == 0
    physical = states.load_state(out_dir / "physical_state.json")
    assert np.trace(rho @ physical).real >= bound


@pytest.mark.parametrize(
    "penalty, calls", [("theory", 1), ("fixed:0.01", 1), ("oracle", 1), ("bootstrap", 1)]
)
def test_estimate_eigensolves_once_per_fit(tmp_path, monkeypatch, penalty, calls):
    # the fit builds both estimates from one eigh of the linear estimate, and
    # the bootstrap re-simulates from the physical state of that eigensystem
    data, state = _dataset_and_state(tmp_path)
    counted = _count_linalg(monkeypatch, "eigh")
    code = run("estimate", data, "--penalty", penalty, "--state", state, "--reps", 3,
               "--out", tmp_path / "fit")
    assert code == 0
    assert len(counted) == calls


@pytest.mark.parametrize("penalty", ["theory", "fixed:0.01", "oracle", "bootstrap"])
def test_spectrum_and_calibrate_eigensolve_only_what_they_read(tmp_path, monkeypatch, penalty):
    # both read the linear estimate through the one fit path, which
    # decomposes it once with every penalty; the bootstrap re-simulates from
    # the physical state of that eigensystem
    data, state = _dataset_and_state(tmp_path)
    counted = _count_linalg(monkeypatch, "eigh")
    flags = ("--penalty", penalty, "--state", state, "--reps", 3)
    assert run("spectrum", data, *flags, "--out", tmp_path / "spectrum.csv") == 0
    assert len(counted) == 1
    assert run("calibrate", data, *flags, "--out", tmp_path / "calibrate.json") == 0
    assert len(counted) == 2


def test_error_study_eigensolves_nothing(tmp_path, monkeypatch):
    # the error study scores each estimate with operator norms and selects no rank
    counted = _count_linalg(monkeypatch, "eigh")
    code = run("error-study", "--n", 2, "--m", "20,40", "--d", "1,2", "--reps", 2,
               "--out", tmp_path / "errors.csv")
    assert code == 0
    assert counted == []


@pytest.mark.parametrize("penalty", ["theory", "fixed:0.01", "oracle", "bootstrap"])
def test_estimate_spectrum_and_calibrate_agree_on_nu(tmp_path, penalty):
    data, state = _dataset_and_state(tmp_path)
    flags = ("--penalty", penalty, "--state", state, "--reps", 4, "--seed", 9)
    assert run("estimate", data, *flags, "--out", tmp_path / "fit") == 0
    assert run("spectrum", data, *flags, "--out", tmp_path / "spectrum.csv") == 0
    assert run("calibrate", data, *flags, "--out", tmp_path / "cal.json") == 0
    nu = json.loads((tmp_path / "fit" / "fit.json").read_text())["nu"]
    value = json.loads((tmp_path / "cal.json").read_text())["value"]
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    thresholds = {float(row.split(",")[2]).hex() for row in rows}
    assert value.hex() == nu.hex()
    assert thresholds == {float(np.sqrt(nu)).hex()}


@pytest.mark.parametrize("command", ["estimate", "spectrum", "calibrate"])
def test_oracle_state_of_the_wrong_size_exit_2_and_writes_nothing(tmp_path, capsys, command):
    data, state = tmp_path / "data.json", tmp_path / "state.json"
    states.save_state(state, states.ghz(3))
    run("simulate", "--n", 4, "--m", 20, "--state", "ghz", "--out", data)
    capsys.readouterr()
    out = tmp_path / "out"
    code = run(command, data, "--penalty", "oracle", "--state", state, "--out", out)
    assert code == 2
    assert capsys.readouterr() == (
        "", "configuration error: dimension mismatch: estimate (16, 16), truth (8, 8)\n"
    )
    assert not out.exists()


def test_rank_study_eigensolves_once_per_dataset(tmp_path, monkeypatch):
    # every mode, the bootstrap's sigma included, reads the one eigensystem
    # of each (d, rep) linear estimate
    counted = _count_linalg(monkeypatch, "eigh")
    code = run("rank-study", "--n", 2, "--m", 40, "--d", "1,2,3", "--penalty",
               "oracle,theory,bootstrap,0.1", "--reps", 2, "--bootstrap-reps", 3,
               "--out", tmp_path / "study.csv")
    assert code == 0
    assert len(counted) == 3 * 2


def test_rank_study_takes_two_operator_norms_per_dataset(tmp_path, monkeypatch):
    # the error norm of each (d, rep) estimate, which the oracle reads too, and
    # one stacked call for the bootstrap's synthetic errors
    counted = _count_linalg(monkeypatch, "eigvalsh")
    code = run("rank-study", "--n", 2, "--m", 40, "--d", "1,2,3", "--penalty",
               "oracle,theory,bootstrap,0.1", "--reps", 2, "--bootstrap-reps", 3,
               "--out", tmp_path / "study.csv")
    assert code == 0
    assert len(counted) == 3 * 2 * 2


def test_estimate_missing_file_exit_3(tmp_path):
    assert run("estimate", tmp_path / "nope.json", "--out", tmp_path / "o") == 3


def test_estimate_malformed_json_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "m": 10')
    assert run("estimate", bad, "--out", tmp_path / "o") == 4

    bad.write_text(json.dumps({
        "n": 1, "m": 2,
        "counts": [{"setting": "x", "outcome": "+&", "count": 2}],
    }))
    code = run("estimate", bad, "--out", tmp_path / "o")
    assert code == 4
    assert "counts[0].outcome" in capsys.readouterr().err


def test_estimate_invariant_violation_exit_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "m": 5, "counts": []}))
    assert run("estimate", bad, "--out", tmp_path / "o") == 4


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", 2, "--m", 10, "--state", "ghz"],
    ["estimate", "data.json"],
    ["estimate", "data.json", "--penalty", "bootstrap"],
    ["spectrum", "data.json"],
    ["calibrate", "data.json"],
    ["rank-study", "--n", 2, "--m", 10, "--d", 1],
    ["error-study", "--n", 2, "--m", 10, "--d", 1],
])
def test_a_negative_seed_exits_2_before_any_file_is_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run("simulate", "--n", 2, "--m", 10, "--state", "ghz", "--out", "data.json")
    reads = []
    monkeypatch.setattr(measurement, "load_dataset", reads.append)
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--seed", -1, "--out", "out")
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]


def test_estimate_oracle_needs_state_exit_2(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 20, "--d", 1, "--out", data)
    assert run("estimate", data, "--penalty", "oracle", "--out", tmp_path / "o") == 2


def test_estimate_oracle_with_state_file(tmp_path):
    truth = tmp_path / "truth.json"
    states.save_state(truth, states.diag_state(2, 2))
    data = tmp_path / "data.json"
    run("simulate", "--n", 2, "--m", 200, "--d", 2, "--seed", 5, "--out", data)
    code = run("estimate", data, "--penalty", "oracle", "--state", truth,
               "--out", tmp_path / "o")
    assert code == 0
    report = json.loads((tmp_path / "o" / "fit.json").read_text())
    assert report["k_hat"] == 2


@pytest.mark.parametrize("value, message", [
    (10**400, "re[0][0]: expected a finite number"),
    (float("nan"), "re[0][0]: expected a finite number"),
    (True, "re[0][0]: expected a number"),
], ids=["huge integer", "NaN", "bool"])
def test_unreadable_state_file_entry_exit_4(tmp_path, capsys, value, message):
    obj = state_to_dict(states.diag_state(2, 1))
    obj["re"][0][0] = value
    truth = tmp_path / "big.json"
    truth.write_text(json.dumps(obj))
    data = tmp_path / "data.json"
    code = run("simulate", "--n", 2, "--m", 10, "--state", truth, "--out", data)
    assert code == 4
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not data.exists()


def test_file_that_is_not_utf8_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"n": 1}')
    assert run("estimate", bad, "--out", tmp_path / "o") == 4
    assert run("simulate", "--n", 1, "--m", 5, "--state", bad, "--out", tmp_path / "d.json") == 4
    assert capsys.readouterr().err.count("data error: invalid JSON: 'utf-8' codec") == 2


BAD_STATES = {
    # trace 1, eigenvalues 2 and -1
    "smallest eigenvalue": np.diag([2.0, -1.0]).astype(complex),
    "not Hermitian": np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
}


@pytest.mark.parametrize("reason", sorted(BAD_STATES))
def test_non_density_state_file_exit_4(tmp_path, capsys, reason):
    truth = tmp_path / "truth.json"
    states.save_state(truth, BAD_STATES[reason])
    data = tmp_path / "data.json"
    code = run("simulate", "--n", 1, "--m", 20, "--state", truth, "--out", data)
    assert code == 4
    assert reason in capsys.readouterr().err
    assert not data.exists()

    run("simulate", "--n", 1, "--m", 20, "--d", 1, "--out", data)
    capsys.readouterr()
    code = run("estimate", data, "--penalty", "oracle", "--state", truth,
               "--out", tmp_path / "o")
    assert code == 4
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rank_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = run("rank-study", "--n", 2, "--m", 60, "--d", "1,2", "--penalty",
               "oracle,theory", "--reps", 3, "--seed", 0, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,mode,frequency,mean_nu,mean_error"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        freq = float(line.split(",")[2])
        assert 0.0 <= freq <= 1.0

    again = tmp_path / "again.csv"
    run("rank-study", "--n", 2, "--m", 60, "--d", "1,2", "--penalty",
        "oracle,theory", "--reps", 3, "--seed", 0, "--out", again)
    assert out.read_bytes() == again.read_bytes()


def test_rank_study_bare_number_mode(tmp_path):
    out = tmp_path / "study.csv"
    code = run("rank-study", "--n", 2, "--m", 60, "--d", "1,2", "--penalty",
               "theory, 0.5", "--reps", 2, "--seed", 0, "--out", out)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["theory", "0.5", "theory", "0.5"]
    assert [float(r[3]) for r in rows if r[1] == "0.5"] == [0.5, 0.5]


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
    # a rank or a sample size that the sweep reaches only after some draws;
    # a later flag overrides the earlier one
    pytest.param(("--d", "1,2,9"), id="d=9"),
    pytest.param(("--m", "0"), id="m=0"),
])
def test_rank_study_bad_mode_exit_2_before_simulating(tmp_path, monkeypatch, bad):
    calls = _count_draws(monkeypatch)
    flags = bad if isinstance(bad, tuple) else ("--penalty", f"theory,{bad}")
    out = tmp_path / "study.csv"
    code = run("rank-study", "--n", 2, "--m", 60, "--d", "1,2", *flags, "--reps", 2,
               "--out", out)
    assert code == 2
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("d, m, message", [
    pytest.param("1,2", "40,0", "repetition count m=0 must be >= 1", id="m=0"),
    pytest.param("1,2", f"40,{2**63}", f"repetition count m={2**63} must be <= 2^63 - 1",
                 id="m=2^63"),
    pytest.param("1,2,9", "40", "rank d=9 out of range [1, 4]", id="d=9"),
])
def test_error_study_bad_sweep_exit_2_before_simulating(tmp_path, monkeypatch, capsys,
                                                        d, m, message):
    calls = _count_draws(monkeypatch)
    out = tmp_path / "err.csv"
    code = run("error-study", "--n", 2, "--d", d, "--m", m, "--reps", 5, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "fixed:nan", "fixed:inf"])
def test_non_finite_penalty_exit_2_without_output(tmp_path, capsys, token):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 20, "--d", 1, "--out", data)
    capsys.readouterr()
    for command in ("estimate", "spectrum", "calibrate"):
        out = tmp_path / command
        assert run(command, data, "--penalty", token, "--out", out) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("mode, flag, value", [
    ("theory", "--eps", "0"),
    ("theory", "--eps", "1.5"),
    ("theory", "--theta", "nan"),
    ("theory", "--theta", "-1"),
    ("bootstrap", "--reps", "1"),
])
def test_bad_penalty_parameter_exit_2_before_work(tmp_path, monkeypatch, mode, flag, value):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 20, "--d", 1, "--out", data)
    calls = []
    for name in ("load_dataset", "simulate_dataset"):
        original = getattr(measurement, name)
        monkeypatch.setattr(
            measurement, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    for command in ("estimate", "spectrum", "calibrate"):
        out = tmp_path / command
        assert run(command, data, "--penalty", mode, flag, value, "--out", out) == 2
        assert not out.exists()
    study_flag = "--bootstrap-reps" if flag == "--reps" else flag
    out = tmp_path / "study.csv"
    assert run("rank-study", "--n", 2, "--m", 10, "--d", "1,2", "--penalty", mode,
               study_flag, value, "--out", out) == 2
    assert not out.exists()
    assert calls == []


def test_error_study_csv_and_empty_sweep(tmp_path):
    out = tmp_path / "err.csv"
    code = run("error-study", "--n", 2, "--m", "20,40", "--d", "1,2", "--reps", 3,
               "--seed", 1, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,m,mean_error,max_error"
    assert len(lines) == 1 + 4

    assert run("error-study", "--n", 2, "--m", "20", "--d", " ", "--reps", 3,
               "--out", tmp_path / "e2.csv") == 2


def test_spectrum_rank2_dominated(tmp_path):
    # two eigenvalues far above a bootstrap-calibrated threshold
    truth = tmp_path / "truth.json"
    states.save_state(truth, np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex))
    data = tmp_path / "data.json"
    run("simulate", "--n", 2, "--m", 100, "--state", truth, "--seed", 4, "--out", data)
    out = tmp_path / "spec.csv"
    code = run("spectrum", data, "--penalty", "bootstrap", "--reps", 20, "--seed", 4,
               "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,singular_value,threshold"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    thresholds = {r[2] for r in rows}
    assert len(thresholds) == 1
    above = sum(v >= float(r[2]) for v, r in zip(values, rows))
    assert above == 2


def test_spectrum_fixed_penalty_csv(tmp_path):
    n = 2
    data = tmp_path / "data.json"
    run("simulate", "--n", n, "--m", 100, "--d", 3, "--seed", 8, "--out", data)
    out = tmp_path / "spec.csv"
    assert run("spectrum", data, "--penalty", "fixed:0.04", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,singular_value,threshold"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 2**n + 1))
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert {float(r[2]) for r in rows} == {0.2}


def test_spectrum_rejects_zero_dataset(tmp_path):
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"n": 1, "m": 4, "counts": []}))
    assert run("spectrum", bad, "--out", tmp_path / "s.csv") == 4


def test_calibrate_fixed_report(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 30, "--d", 1, "--out", data)
    out = tmp_path / "cal.json"
    code = run("calibrate", data, "--penalty", "0.05", "--out", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report == {"mode": "fixed", "value": 0.05, "details": {}}


def test_calibrate_bootstrap_details(tmp_path, capsys):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 40, "--d", 2, "--seed", 6, "--out", data)
    capsys.readouterr()  # drop the simulate summary
    code = run("calibrate", data, "--penalty", "bootstrap", "--reps", 5, "--seed", 6)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "bootstrap"
    assert len(report["details"]["norms"]) == 5


@pytest.mark.parametrize(
    "penalty, mode, calls",
    [("theory", "theory", 1), ("fixed:0.05", "fixed", 1), ("0.05", "fixed", 1),
     ("bootstrap", "bootstrap", 4), ("oracle", "oracle", 1)],
)
def test_every_dataset_command_inverts_its_dataset_once(
    tmp_path, monkeypatch, capsys, penalty, mode, calls
):
    data, state = tmp_path / "data.json", tmp_path / "state.json"
    states.save_state(state, states.mixture(2, 2, 0.3))
    run("simulate", "--n", 2, "--m", 40, "--state", state, "--seed", 2, "--out", data)
    freqs = measurement.load_dataset(data).counts / 40
    of_dataset, inverted = [], []
    linear_estimator = inversion.linear_estimator

    def counting(f):
        of_dataset.append(np.array_equal(f.values, freqs))
        inverted.append(f.values.size // freqs.size)  # a stack inverts several datasets
        return linear_estimator(f)

    monkeypatch.setattr(inversion, "linear_estimator", counting)
    flags = ("--penalty", penalty, "--state", state, "--reps", 3)
    for command, out in [("estimate", "fit"), ("spectrum", "spectrum.csv"), ("calibrate", None)]:
        of_dataset.clear()
        inverted.clear()
        capsys.readouterr()
        code = run(command, data, *flags, *(("--out", tmp_path / out) if out else ()))
        assert code == 0
        # the dataset is inverted once; bootstrap adds its 3 synthetic datasets
        assert (sum(of_dataset), sum(inverted)) == (1, calls)
    assert json.loads(capsys.readouterr().out)["mode"] == mode


def test_unknown_penalty_exit_2(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--n", 1, "--m", 10, "--d", 1, "--out", data)
    assert run("estimate", data, "--penalty", "magic", "--out", tmp_path / "o") == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def test_ghz_bootstrap_rank_selection(tmp_path):
    # rank-1 state: top singular value sits far above the bootstrap threshold,
    # the next ones at the noise scale, so selection lands on 1, sometimes on
    # 2 and now and then on 3. Band on the count of k_hat in {1, 2}: the same
    # path (simulate, then bootstrap with reps = 20, seed = library seed) on
    # seeds 20-419, disjoint from the 20 below, gave k_hat = 1/2/3 on
    # 319/69/12 seeds, so 388/400 in {1, 2}. Its one-sided 99% Clopper-Pearson
    # lower bound is p = 0.944, and P(Binomial(20, 0.944) < 15) = 6.2e-4, so
    # at least 15 of 20 must land in {1, 2}.
    truth = tmp_path / "ghz.json"
    states.save_state(truth, states.ghz(4))
    k_hats = []
    for seed in range(20):
        data = tmp_path / f"data_{seed}.json"
        run("simulate", "--n", 4, "--m", 100, "--state", truth, "--seed", seed,
            "--out", data)
        out_dir = tmp_path / f"fit_{seed}"
        code = run("estimate", data, "--penalty", "bootstrap", "--reps", 20,
                   "--seed", seed, "--out", out_dir)
        assert code == 0
        k_hats.append(json.loads((out_dir / "fit.json").read_text())["k_hat"])
    assert all(k >= 1 for k in k_hats)
    assert sum(k in (1, 2) for k in k_hats) >= 15
    assert sum(k == 1 for k in k_hats) >= 12
