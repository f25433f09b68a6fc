import json
import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from qtomo import measurement, pauli, states
from qtomo.errors import FormatError


def test_outcome_probability_maximally_mixed():
    for n in (1, 2):
        rho = states.maximally_mixed(n)
        for a in pauli.all_settings(n):
            for r in pauli.all_outcomes(n):
                for path in ("trace", "pauli"):
                    p = measurement.outcome_probability(rho, a, r, path=path)
                    assert abs(p - 1.0 / 2**n) < 1e-12


def test_outcome_probability_z_eigenstate():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(measurement.outcome_probability(rho, "z", "+") - 1.0) < 1e-12
    assert abs(measurement.outcome_probability(rho, "z", "-")) < 1e-12
    assert abs(measurement.outcome_probability(rho, "x", "+") - 0.5) < 1e-12
    assert abs(measurement.outcome_probability(rho, "x", "-") - 0.5) < 1e-12


def test_outcome_probability_ghz_zz():
    rho = states.ghz(2)
    expected = {"++": 0.5, "--": 0.5, "+-": 0.0, "-+": 0.0}
    for r, p in expected.items():
        assert abs(measurement.outcome_probability(rho, "zz", r) - p) < 1e-12


def test_outcome_probability_errors():
    rho = states.maximally_mixed(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        measurement.outcome_probability(rho, "z", "++")
    with pytest.raises(ValueError, match="unknown path"):
        measurement.outcome_probability(rho, "zz", "++", path="magic")


@pytest.mark.parametrize("n", [1, 2])
def test_paths_agree_on_random_states(n):
    rng = np.random.default_rng(31 + n)
    for _ in range(5):
        rho = random_density(2**n, rng)
        for a in pauli.all_settings(n):
            for r in pauli.all_outcomes(n):
                pt = measurement.outcome_probability(rho, a, r, path="trace")
                pf = measurement.outcome_probability(rho, a, r, path="pauli")
                assert abs(pt - pf) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_probability_table_matches_trace_oracle(n):
    rng = np.random.default_rng(37 + n)
    rho = random_density(2**n, rng)
    table = measurement.probability_table(rho)
    for s, a in enumerate(pauli.all_settings(n)):
        for o, r in enumerate(pauli.all_outcomes(n)):
            direct = measurement.outcome_probability(rho, a, r, path="trace")
            assert abs(table[s, o] - direct) < 1e-12


def test_probability_table_examples():
    table = measurement.probability_table(states.maximally_mixed(1))
    assert np.allclose(table, 0.5, atol=1e-15)
    assert table.shape == (3, 2)

    table = measurement.probability_table(states.diag_state(2, 2))
    s = pauli.setting_index("zz")
    o = pauli.outcome_index("++")
    assert abs(table[s, o] - 0.5) < 1e-12

    for n in (1, 2, 3):
        rng = np.random.default_rng(41 + n)
        table = measurement.probability_table(random_density(2**n, rng))
        assert abs(table.sum() - 3**n) < 1e-9
        assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-12


def test_simulate_deterministic_outcome():
    rho = np.diag([1.0, 0.0]).astype(complex)
    ds = measurement.simulate_dataset(rho, 25, 3)
    s = pauli.setting_index("z")
    o = pauli.outcome_index("+")
    assert ds.counts[s, o] == 25
    assert ds.counts[s, pauli.outcome_index("-")] == 0


def test_simulate_seed_determinism():
    rho = states.ghz(2)
    a = measurement.simulate_dataset(rho, 40, 7)
    b = measurement.simulate_dataset(rho, 40, 7)
    c = measurement.simulate_dataset(rho, 40, 8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_counts_invariant():
    rng = np.random.default_rng(43)
    rho = random_density(4, rng)
    ds = measurement.simulate_dataset(rho, 33, 5)
    assert (ds.counts.sum(axis=1) == 33).all()
    assert (ds.counts >= 0).all()


def test_simulate_binomial_consistency():
    # fair coin per setting: frequencies within 5 standard errors of 1/2
    ds = measurement.simulate_dataset(states.maximally_mixed(1), 10000, 11)
    freqs = measurement.empirical_frequencies(ds)
    se = np.sqrt(0.25 / 10000)
    assert np.abs(freqs.values - 0.5).max() < 5 * se


def test_simulate_converges_to_exact_table():
    m = 10000
    for rho in (states.ghz(2), states.mixture(2, 3, 0.4)):
        table = measurement.probability_table(rho)
        ds = measurement.simulate_dataset(rho, m, 13)
        freqs = measurement.empirical_frequencies(ds)
        bound = 5.0 * np.sqrt(table * (1.0 - table) / m) + 1e-9
        assert (np.abs(freqs.values - table) <= bound).all()


def test_simulate_rejects_non_physical():
    with pytest.raises(ValueError, match="density"):
        measurement.simulate_dataset(np.diag([1.5, -0.5]).astype(complex), 10, 0)


def test_empirical_frequencies_values():
    rho = np.diag([1.0, 0.0]).astype(complex)
    ds = measurement.simulate_dataset(rho, 20, 0)
    freqs = measurement.empirical_frequencies(ds)
    s = pauli.setting_index("z")
    assert freqs.values[s, pauli.outcome_index("+")] == 1.0
    assert freqs.values[s, pauli.outcome_index("-")] == 0.0
    assert np.abs(freqs.values.sum(axis=1) - 1.0).max() < 1e-12


def test_dataset_validation():
    with pytest.raises(ValueError, match="counts"):
        measurement.Dataset(n=1, m=5, counts=np.array([[4, 2], [5, 0], [5, 0]]))
    with pytest.raises(ValueError, match="m="):
        measurement.Dataset(n=1, m=0, counts=np.zeros((3, 2), dtype=np.int64))


def test_dataset_json_round_trip():
    rng = np.random.default_rng(47)
    ds = measurement.simulate_dataset(random_density(4, rng), 12, 9)
    back = measurement.dataset_from_dict(measurement.dataset_to_dict(ds))
    assert back.n == ds.n and back.m == ds.m
    assert np.array_equal(back.counts, ds.counts)


def test_dataset_json_omitted_pairs_are_zero():
    obj = {
        "n": 1,
        "m": 2,
        "counts": [
            {"setting": "x", "outcome": "+", "count": 2},
            {"setting": "y", "outcome": "-", "count": 2},
            {"setting": "z", "outcome": "-", "count": 1},
            {"setting": "z", "outcome": "+", "count": 1},
        ],
    }
    ds = measurement.dataset_from_dict(obj)
    assert ds.counts[pauli.setting_index("x"), pauli.outcome_index("-")] == 0


def test_dataset_json_duplicate_pair():
    obj = {
        "n": 1,
        "m": 2,
        "counts": [
            {"setting": "x", "outcome": "+", "count": 1},
            {"setting": "x", "outcome": "+", "count": 1},
        ],
    }
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert err.value.path == "counts[1]"


def test_dataset_json_bad_outcome_path():
    obj = {"n": 1, "m": 1, "counts": [{"setting": "x", "outcome": "+1", "count": 1}]}
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert err.value.path == "counts[0].outcome"


def test_dataset_json_sum_mismatch():
    obj = {"n": 1, "m": 3, "counts": [{"setting": "x", "outcome": "+", "count": 1}]}
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert err.value.path == "counts"


def test_dataset_file_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    ds = measurement.simulate_dataset(random_density(2, rng), 15, 2)
    path = tmp_path / "data.json"
    measurement.save_dataset(path, ds)
    back = measurement.load_dataset(path)
    assert np.array_equal(back.counts, ds.counts)

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "m": 3')
    with pytest.raises(FormatError):
        measurement.load_dataset(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_saved_bytes_match_indented_json_dump(tmp_path, n):
    rng = np.random.default_rng(59 + n)
    cases = [
        (states.diag_state(n, 1), 40),
        (random_density(2**n, rng), 40),
        (random_density(2**n, rng), 1),
    ]
    path = tmp_path / "data.json"
    for seed, (rho, m) in enumerate(cases):
        ds = measurement.simulate_dataset(rho, m, seed)
        measurement.save_dataset(path, ds)
        expected = json.dumps(measurement.dataset_to_dict(ds), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


def test_load_accepts_any_layout_and_entry_order(tmp_path):
    rng = np.random.default_rng(61)
    ds = measurement.simulate_dataset(random_density(8, rng), 20, 4)
    obj = measurement.dataset_to_dict(ds)
    random.Random(61).shuffle(obj["counts"])
    path = tmp_path / "data.json"
    path.write_text(json.dumps(obj, separators=(",", ":")))
    assert np.array_equal(measurement.load_dataset(path).counts, ds.counts)


def _two_qubit_doc(*entries):
    return {"n": 2, "m": 1, "counts": [{"setting": "xx", "outcome": "++", "count": 1}, *entries]}


def _entry(setting="xy", outcome="+-", count=1):
    return {"setting": setting, "outcome": outcome, "count": count}


# (malformed entry at index 1, error path, error message), as the reference
# per-entry validation reports them.
MALFORMED_ENTRIES = [
    (["xy", "+-", 1], "counts[1]", "expected an object"),
    ("xy", "counts[1]", "expected an object"),
    ({"outcome": "+-", "count": 1}, "counts[1].setting", "missing key"),
    ({"setting": "xy", "count": 1}, "counts[1].outcome", "missing key"),
    ({"setting": "xy", "outcome": "+-"}, "counts[1].count", "missing key"),
    (_entry(setting=7), "counts[1].setting", "expected a string"),
    (_entry(setting=["x", "y"]), "counts[1].setting", "expected a string"),
    (_entry(setting="xq"), "counts[1].setting", "invalid setting 'xq': characters must be in 'xyz'"),
    (_entry(setting="XY"), "counts[1].setting", "invalid setting 'XY': characters must be in 'xyz'"),
    (_entry(setting="x"), "counts[1].setting", "length 1 != n=2"),
    (_entry(setting="xyz"), "counts[1].setting", "length 3 != n=2"),
    (_entry(setting=""), "counts[1].setting", "qubit count must be >= 1, got 0"),
    (_entry(outcome=None), "counts[1].outcome", "expected a string"),
    (_entry(outcome="+0"), "counts[1].outcome", "invalid outcome '+0': characters must be in '-+'"),
    (_entry(outcome="+"), "counts[1].outcome", "length 1 != n=2"),
    (_entry(outcome="+-+"), "counts[1].outcome", "length 3 != n=2"),
    (_entry(count=True), "counts[1].count", "expected a non-negative integer, got True"),
    (_entry(count=-1), "counts[1].count", "expected a non-negative integer, got -1"),
    (_entry(count=1.0), "counts[1].count", "expected a non-negative integer, got 1.0"),
    (_entry(count="1"), "counts[1].count", "expected a non-negative integer, got '1'"),
    (_entry(setting="xx", outcome="++", count=0), "counts[1]",
     "duplicate (setting, outcome) pair ('xx', '++')"),
]


@pytest.mark.parametrize("entry,path,message", MALFORMED_ENTRIES)
def test_malformed_entry_path_and_message(entry, path, message):
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(_two_qubit_doc(entry, _entry(setting="yy")))
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_duplicate_reported_before_later_bad_count():
    obj = _two_qubit_doc(_entry(), _entry(setting="xx", outcome="++"), _entry(count=-1))
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert str(err.value) == "counts[2]: duplicate (setting, outcome) pair ('xx', '++')"


def test_bad_count_reported_before_later_duplicate():
    obj = _two_qubit_doc(_entry(count=-1), _entry(), _entry(setting="xx", outcome="++"))
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert str(err.value) == "counts[1].count: expected a non-negative integer, got -1"


def test_count_beyond_int64_is_a_format_error():
    big = 2**63
    obj = {"n": 1, "m": 1, "counts": [_entry("x", "+", big), _entry("x", "-", -1)]}
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert str(err.value) == f"counts[0].count: {big} does not fit in a 64-bit count"


@pytest.mark.parametrize(
    "entries,message",
    [
        ([_entry("y", "+", 2)], "setting 'x' sums to 0, expected m=2"),
        ([_entry("x", "+", 1)], "setting 'x' sums to 1, expected m=2"),
        ([_entry("z", "+", 2), _entry("y", "-", 3), _entry("x", "+", 2)],
         "setting 'y' sums to 3, expected m=2"),
    ],
)
def test_row_sum_error_names_first_bad_setting(entries, message):
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict({"n": 1, "m": 2, "counts": entries})
    assert err.value.path == "counts"
    assert str(err.value) == f"counts: {message}"


def test_missing_settings_fail_before_the_table_is_allocated():
    # The (3^9, 2^9) int64 table alone would take 80 MB.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            measurement.dataset_from_dict({"n": 9, "m": 1, "counts": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.path == "counts"
    assert str(err.value) == "counts: setting 'xxxxxxxxx' sums to 0, expected m=1"
    assert peak < 10 * 2**20
