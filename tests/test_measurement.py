import collections
import io
import json
import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from conftest import ReferenceTomography, dataset_to_dict, maximally_mixed, random_density
from qtomo import _kernels, measurement, pauli, states
from qtomo.cli import main
from qtomo.errors import FormatError


def _probability(rho: np.ndarray, setting: str, outcome: str) -> float:
    """Cell (setting, outcome) of the probability table."""
    table = measurement.probability_table(rho)
    return table[pauli.setting_index(setting), pauli.outcome_index(outcome)]


def test_outcome_probability_maximally_mixed():
    for n in (1, 2):
        table = measurement.probability_table(maximally_mixed(n))
        assert np.abs(table - 1.0 / 2**n).max() < 1e-12


def test_outcome_probability_z_eigenstate():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(_probability(rho, "z", "+") - 1.0) < 1e-12
    assert abs(_probability(rho, "z", "-")) < 1e-12
    assert abs(_probability(rho, "x", "+") - 0.5) < 1e-12
    assert abs(_probability(rho, "x", "-") - 0.5) < 1e-12


def test_outcome_probability_ghz_zz():
    rho = states.ghz(2)
    expected = {"++": 0.5, "--": 0.5, "+-": 0.0, "-+": 0.0}
    for r, p in expected.items():
        assert abs(_probability(rho, "zz", r) - p) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_paths_agree_on_random_states(n):
    # the Pauli route (coefficients through the design, by the kernel and by
    # the reference's dense matrix) against the trace route Tr(rho P_r^a)
    rng = np.random.default_rng(31 + n)
    ref = ReferenceTomography(n)
    for _ in range(5):
        rho = random_density(2**n, rng)
        coeffs = states.pauli_expand(rho)
        traces = ref.probabilities(rho)
        dense = (ref.design @ coeffs).reshape(3**n, 2**n)
        assert np.abs(_kernels.table_from_coeffs(coeffs, n) - traces).max() < 1e-12
        assert np.abs(dense - traces).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_probability_table_matches_trace_oracle(n):
    # Tr(rho P_r^a) from Kronecker-product projectors, for 5 random states
    rng = np.random.default_rng(37 + n)
    ref = ReferenceTomography(n)
    for _ in range(5):
        rho = random_density(2**n, rng)
        table = measurement.probability_table(rho)
        assert np.abs(table - ref.probabilities(rho)).max() < 1e-12


def test_probability_table_examples():
    table = measurement.probability_table(maximally_mixed(1))
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


def _state_of(ss):
    return ss.entropy, ss.spawn_key, ss.pool_size, ss.generate_state(4).tolist()


def test_stream_extends_the_spawn_key_of_its_seed():
    for key in [(), (3,), (0, 2, 5), (1, 4, 100, 7)]:
        assert _state_of(measurement.stream(11, *key)) == _state_of(
            np.random.SeedSequence(11, spawn_key=key)
        )
    root = np.random.SeedSequence(11, spawn_key=(2,), pool_size=8)
    assert _state_of(measurement.stream(root, 3, 4)) == _state_of(
        np.random.SeedSequence(11, spawn_key=(2, 3, 4), pool_size=8)
    )
    # stateless: stream(root, j) is child j of a fresh spawn, however often asked
    children = np.random.SeedSequence(11, spawn_key=(2,), pool_size=8).spawn(3)
    for _ in range(2):
        assert [_state_of(measurement.stream(root, j)) for j in range(3)] == [
            _state_of(child) for child in children
        ]
    assert root.n_children_spawned == 0


@pytest.mark.parametrize("chunk_cells", [1, 24, 100])
def test_a_chunked_draw_gives_the_bits_of_one_multinomial_call(monkeypatch, chunk_cells):
    # 1 cell still draws a whole row; 24 and 100 cells split the 27 rows of
    # n = 3 into chunks of 3 and 12 rows, the last one partial
    law = measurement.outcome_law(states.mixture(3, 2, 0.3))
    assert law.size > chunk_cells
    monkeypatch.setattr(measurement, "DRAW_CHUNK_CELLS", chunk_cells)
    streams = [measurement.stream(5, j) for j in range(3)]
    stack = measurement.draw_counts(law, 40, streams)
    one = measurement.draw_dataset(law, 40, measurement.stream(5, 1))
    expected = [np.random.default_rng(s).multinomial(40, law) for s in streams]
    assert stack.shape == (3, 27, 8)
    for counts, reference in zip(stack, expected):
        assert np.array_equal(counts, reference)
    assert np.array_equal(one.counts, expected[1])


def test_simulate_counts_invariant():
    rng = np.random.default_rng(43)
    rho = random_density(4, rng)
    ds = measurement.simulate_dataset(rho, 33, 5)
    assert (ds.counts.sum(axis=1) == 33).all()
    assert (ds.counts >= 0).all()


def test_simulate_binomial_consistency():
    # fair coin per setting: frequencies within 5 standard errors of 1/2
    ds = measurement.simulate_dataset(maximally_mixed(1), 10000, 11)
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


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_counts_follow_the_reference_binomial_law(n):
    # Each cell of R independent datasets is Binomial(m, p) with p from the
    # reference's traces Tr(rho P_r^a). Per cell, the count summed over the
    # datasets must lie in the normal band of Binomial(R m, p), and the sample
    # variance in the chi-square band of m p (1 - p) (Wilson-Hilferty
    # quantiles). Both bands are Bonferroni-corrected over the 6^n cells at a
    # family error of 1e-3. Mixing with the maximally mixed state keeps
    # p >= 2^-(n+1), where counts are close enough to normal for the
    # chi-square band.
    R, m, alpha = 200, 100, 1e-3
    rng = np.random.default_rng(50 + n)
    rho = 0.5 * random_density(2**n, rng) + 0.5 * np.eye(2**n) / 2**n
    p = ReferenceTomography(n).probabilities(rho)
    counts = np.array([
        measurement.simulate_dataset(rho, m, np.random.SeedSequence(60 + n, spawn_key=(r,))).counts
        for r in range(R)
    ])
    z = statistics.NormalDist().inv_cdf(1 - alpha / (2 * p.size))
    total_sd = np.sqrt(R * m * p * (1 - p))
    assert (np.abs(counts.sum(axis=0) - R * m * p) <= z * total_sd).all()

    def chi2_quantile(z_score, dof):
        return dof * (1 - 2 / (9 * dof) + z_score * math.sqrt(2 / (9 * dof))) ** 3

    ratio = (R - 1) * counts.var(axis=0, ddof=1) / (m * p * (1 - p))
    assert (ratio >= chi2_quantile(-z, R - 1)).all()
    assert (ratio <= chi2_quantile(z, R - 1)).all()


def test_simulate_rejects_non_physical():
    with pytest.raises(ValueError, match="density"):
        measurement.simulate_dataset(np.diag([1.5, -0.5]).astype(complex), 10, 0)


def test_simulate_rejects_a_large_negative_eigenvalue_after_checking_m():
    # Hermitian with unit trace, eigenvalues 1.8 and -0.8
    rho = np.array([[0.5, 1.3], [1.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        measurement.simulate_dataset(rho, 10, 0)
    with pytest.raises(ValueError, match="m=0 must be >= 1"):
        measurement.simulate_dataset(rho, 0, 0)


def test_empirical_frequencies_values():
    rho = np.diag([1.0, 0.0]).astype(complex)
    ds = measurement.simulate_dataset(rho, 20, 0)
    freqs = measurement.empirical_frequencies(ds)
    s = pauli.setting_index("z")
    assert freqs.values[s, pauli.outcome_index("+")] == 1.0
    assert freqs.values[s, pauli.outcome_index("-")] == 0.0
    assert np.abs(freqs.values.sum(axis=1) - 1.0).max() < 1e-12


def test_dataset_validation():
    with pytest.raises(ValueError, match="setting 'x' sums to 6, expected m=5"):
        measurement.Dataset(n=1, m=5, counts=np.array([[4, 2], [5, 0], [5, 0]]))
    with pytest.raises(ValueError, match="m="):
        measurement.Dataset(n=1, m=0, counts=np.zeros((3, 2), dtype=np.int64))
    # a stack of datasets is checked row by row, and names the bad setting
    good = [[5, 0], [5, 0], [5, 0]]
    assert measurement.Dataset(n=1, m=5, counts=np.array([good, good])).counts.shape == (2, 3, 2)
    with pytest.raises(ValueError, match="setting 'y' sums to 6, expected m=5"):
        measurement.Dataset(n=1, m=5, counts=np.array([good, [[5, 0], [4, 2], [5, 0]]]))
    with pytest.raises(ValueError, match="non-negative"):
        measurement.Dataset(n=1, m=5, counts=np.array([good, [[5, 0], [6, -1], [5, 0]]]))
    with pytest.raises(ValueError, match="shape"):
        measurement.Dataset(n=1, m=5, counts=np.array([good, good]).reshape(2, 2, 3))


def test_dataset_json_round_trip():
    rng = np.random.default_rng(47)
    ds = measurement.simulate_dataset(random_density(4, rng), 12, 9)
    back = measurement.dataset_from_dict(dataset_to_dict(ds))
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_saved_bytes_match_indented_json_dump(tmp_path, n):
    rng = np.random.default_rng(59 + n)
    cases = [
        (states.diag_state(n, 1), 40),
        (states.diag_state(n, 1), 1000),  # counts of 1 to 4 digits
        (random_density(2**n, rng), 40),
        (random_density(2**n, rng), 1),
    ]
    path = tmp_path / "data.json"
    for seed, (rho, m) in enumerate(cases):
        ds = measurement.simulate_dataset(rho, m, seed)
        measurement.save_dataset(path, ds)
        expected = json.dumps(dataset_to_dict(ds), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


def _write_peak(path, dataset) -> int:
    """tracemalloc peak, in bytes, of save_dataset(path, dataset)."""
    tracemalloc.start()
    try:
        measurement.save_dataset(path, dataset)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saved_bytes_with_a_large_m_need_no_table_over_counts(tmp_path):
    # A fragment per possible count, range(m + 1), would take about 100 MB here.
    ds = measurement.simulate_dataset(random_density(2, np.random.default_rng(71)), 10**6, 3)
    path = tmp_path / "data.json"
    peak = _write_peak(path, ds)
    expected = json.dumps(dataset_to_dict(ds), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert peak < 2 * 2**20


def _expected_bytes(dataset) -> bytes:
    return (json.dumps(dataset_to_dict(dataset), indent=2, sort_keys=True) + "\n").encode()


def test_saved_bytes_match_indented_json_dump_across_chunks(tmp_path):
    # 3^7 settings in chunks of 2^16 / 2^7 = 512: four full chunks and a partial one
    n, path = 7, tmp_path / "data.json"
    assert -(-3**n // (measurement.DRAW_CHUNK_CELLS // 2**n)) == 5
    ds = measurement.simulate_dataset(states.mixture(n, 2, 0.5), 100, 3)
    measurement.save_dataset(path, ds)
    assert path.read_bytes() == _expected_bytes(ds)


def test_saved_bytes_cross_every_count_width(tmp_path):
    # 1 and each pair 10^k - 1, 10^k, three to a setting; each setting's last
    # cell tops it up to m = 2^63 - 1, which a setting of zeros holds alone
    m, path, written = 2**63 - 1, tmp_path / "data.json", set()
    widths = [1, *(c for k in range(1, 19) for c in (10**k - 1, 10**k))]
    for part in (widths[:27], widths[27:]):
        free = np.zeros(27, dtype=np.int64)
        free[:len(part)] = part
        counts = np.column_stack([free.reshape(9, 3), m - free.reshape(9, 3).sum(axis=1)])
        ds = measurement.Dataset(n=2, m=m, counts=counts)
        measurement.save_dataset(path, ds)
        assert path.read_bytes() == _expected_bytes(ds)
        assert np.array_equal(measurement.load_dataset(path).counts, counts)
        written.update(counts[counts > 0].tolist())
    assert {*widths, m} <= written
    assert {len(str(c)) for c in written} == set(range(1, 20))


def test_a_stack_of_datasets_is_not_saved(tmp_path):
    ds = measurement.simulate_dataset(states.ghz(2), 10, 1)
    stack = measurement.Dataset(n=2, m=10, counts=np.stack([ds.counts, ds.counts]))
    with pytest.raises(ValueError):
        measurement.save_dataset(tmp_path / "data.json", stack)
    assert not (tmp_path / "data.json").exists()


def test_save_dataset_peak_stays_within_one_chunk(tmp_path):
    # Every cell of an n = 7 table holds an 18-digit count: the file takes
    # 28 MB. The writer holds one chunk of at most DRAW_CHUNK_CELLS entries,
    # each at most its bytes, its outcome and setting characters and eight
    # 8-byte indices, and the two character tables, as a str and as bytes.
    n, path = 7, tmp_path / "data.json"
    ds = measurement.simulate_dataset(random_density(2**n, np.random.default_rng(73)), 10**17, 5)
    entry = len(measurement._COUNT + measurement._OUTCOME + measurement._SETTING
                + measurement._CLOSE + measurement._SEP) + 19 + 2 * n
    bound = measurement.DRAW_CHUNK_CELLS * (entry + 2 * n + 8 * 8) + 2 * (3**n + 2**n) * n
    peak = _write_peak(path, ds)
    assert bound < path.stat().st_size / 2
    assert peak < bound


def test_save_dataset_peak_at_eight_qubits_stays_below_5_mb(tmp_path):
    ds = measurement.simulate_dataset(states.ghz(8), 100, 5)
    assert _write_peak(tmp_path / "data.json", ds) <= 5 * 2**20


def test_load_accepts_any_layout_and_entry_order(tmp_path):
    rng = np.random.default_rng(61)
    ds = measurement.simulate_dataset(random_density(8, rng), 20, 4)
    obj = dataset_to_dict(ds)
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


@pytest.mark.parametrize("entry,path,message", MALFORMED_ENTRIES)
def test_malformed_entry_in_a_full_list_path_and_message(entry, path, message):
    # with an entry for every setting the loader looks entries up in its
    # setting and outcome maps, and reports the same first error as for a short list
    full = [_entry(a, "--", 0) for a in pauli.all_settings(2)]
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(_two_qubit_doc(entry, _entry(setting="yy"), *full))
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


def test_count_beyond_int64_in_a_full_list_is_a_format_error():
    big = 2**63
    obj = {"n": 1, "m": 1, "counts": [_entry("x", "+", big), _entry("y", "+", 1), _entry("z", "-", 1)]}
    with pytest.raises(FormatError) as err:
        measurement.dataset_from_dict(obj)
    assert str(err.value) == f"counts[0].count: {big} does not fit in a 64-bit count"


class _Count(int):
    """An int subclass, as a JSON decoder with a custom parse_int may give."""


@pytest.mark.parametrize(
    "alter",
    [collections.OrderedDict, lambda entry: {**entry, "count": _Count(entry["count"])}],
    ids=["ordered-dict-entry", "int-subclass-count"],
)
def test_an_unusual_entry_in_a_full_list_loads_through_the_walk(monkeypatch, alter):
    ds = measurement.simulate_dataset(random_density(4, np.random.default_rng(67)), 12, 9)
    obj = dataset_to_dict(ds)
    assert len(obj["counts"]) >= 3**2  # a full-length list, so entries are looked up in the maps first
    obj["counts"][3] = alter(obj["counts"][3])
    walked, entry_cell = [], measurement._entry_cell
    monkeypatch.setattr(
        measurement, "_entry_cell", lambda i, entry, n: walked.append(i) or entry_cell(i, entry, n)
    )
    assert np.array_equal(measurement.dataset_from_dict(obj).counts, ds.counts)
    assert walked == [3]


@pytest.mark.parametrize(
    "entries,message",
    [
        ([_entry("y", "+", 2)], "setting 'x' sums to 0, expected m=2"),
        ([_entry("x", "+", 1)], "setting 'x' sums to 1, expected m=2"),
        ([_entry("z", "+", 2), _entry("y", "-", 3), _entry("x", "+", 2)],
         "setting 'y' sums to 3, expected m=2"),
        ([_entry("x", "+", 2), _entry("z", "-", 1)], "setting 'y' sums to 0, expected m=2"),
        # as many entries as settings, so not a short list, yet one setting is absent
        ([_entry("x", "+", 1), _entry("x", "-", 1), _entry("y", "+", 2)],
         "setting 'z' sums to 0, expected m=2"),
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


@pytest.mark.parametrize(
    "entries,setting",
    [([], "xxxxxxxxxxxx"), ([_entry("x" * 12, "-" * 12, 1)], "xxxxxxxxxxxy"),
     # a wrong sum named before a setting near the end of the 3^12
     ([_entry("x" * 12, "-" * 12, 0), _entry("z" * 11 + "x", "-" * 12, 1)], "xxxxxxxxxxxx")],
)
def test_a_short_counts_list_fails_before_anything_of_size_3_to_the_n(entries, setting):
    # Fewer entries than the 3^12 settings cannot give each one m >= 1 counts;
    # the setting map alone would take 72 MB.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            measurement.dataset_from_dict({"n": 12, "m": 1, "counts": entries})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.path == "counts"
    assert str(err.value) == f"counts: setting {setting!r} sums to 0, expected m=1"
    assert peak < 2 * 2**20


# The bytes the mutants below substitute or insert: every character of the
# writer's layout, and digits that keep or break a count.
MUTANT_BYTES = b'0129+-xyz{} \n,":'


def _one_byte_mutants(data: bytes):
    """Every substitution by a MUTANT_BYTES byte, insertion of one, and deletion of a byte."""
    for i in range(len(data) + 1):
        head, tail = data[:i], data[i:]
        for c in MUTANT_BYTES:
            yield head + bytes([c]) + tail
            if tail and tail[0] != c:
                yield head + bytes([c]) + tail[1:]
        if tail:
            yield head + tail[1:]


def _outcome(load):
    """The counts ``load()`` gives, or the type and message of what it raises."""
    try:
        return load().counts
    except Exception as exc:  # whatever it raises is compared by type and message
        return type(exc), str(exc)


def _reference_load(data: bytes):
    """dataset_from_dict of the JSON document in ``data``, with read_json's error for invalid JSON."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError("", f"invalid JSON: {exc}") from exc
    return measurement.dataset_from_dict(obj)


def _same_outcome(got, expected) -> bool:
    if isinstance(got, tuple) or isinstance(expected, tuple):
        return got == expected
    return np.array_equal(got, expected)


def test_every_one_byte_mutant_loads_as_through_json(tmp_path, monkeypatch):
    files = []
    for n, rho, m in [(1, states.diag_state(1, 1), 12), (2, states.diag_state(2, 1), 1)]:
        measurement.save_dataset(tmp_path / "data.json", measurement.simulate_dataset(rho, m, n))
        files.append((tmp_path / "data.json").read_bytes())
    # Both modules open the file through a name that serves the current
    # mutant from memory: a file written per mutant would take most of the time.
    current = [b""]

    def serve(path, mode="r", encoding=None):
        raw = io.BytesIO(current[0])
        return raw if "b" in mode else io.TextIOWrapper(raw, encoding=encoding)

    monkeypatch.setattr(measurement, "open", serve, raising=False)
    monkeypatch.setattr(states, "open", serve, raising=False)
    json_reads, read_json = [], states.read_json
    monkeypatch.setattr(states, "read_json", lambda path: json_reads.append(path) or read_json(path))
    mutants = 0
    for data in files:
        for mutant in _one_byte_mutants(data):
            current[0] = mutant
            got = _outcome(lambda: measurement.load_dataset("data.json"))
            expected = _outcome(lambda: _reference_load(mutant))
            assert _same_outcome(got, expected), mutant
            mutants += 1
    assert mutants > 30_000
    # Some mutants are other valid datasets in the writer's layout and load
    # from their bytes, and a wrong row sum in the writer's layout resolves in
    # the byte path too, with the json path's error; the others go through json.
    assert 0 < mutants - len(json_reads) < 200


PERFBENCH_STATES = [
    ("ghz", states.ghz), ("w", states.w_state), ("mixture", lambda n: states.mixture(n, 2, 0.5)),
    *((f"diag{d}", lambda n, d=d: states.diag_state(n, d)) for d in range(1, 9)),
]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_saved_dataset_loads_from_its_bytes(tmp_path, monkeypatch, n):
    def no_json(path):
        raise AssertionError("read through json")

    monkeypatch.setattr(states, "read_json", no_json)
    path = tmp_path / "data.json"
    for name, state in PERFBENCH_STATES:
        try:
            rho = state(n)
        except ValueError:  # GHZ, W and the mixture need n >= 2; diag d needs d <= 2^n
            continue
        for seed, m in enumerate([1, 100, 10**17]):
            ds = measurement.simulate_dataset(rho, m, seed)
            measurement.save_dataset(path, ds)
            back = measurement.load_dataset(path)
            assert (back.n, back.m) == (n, m), name
            assert np.array_equal(back.counts, ds.counts), name


def test_a_multi_chunk_dataset_loads_from_its_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(states, "read_json", lambda path: pytest.fail("read through json"))
    path = tmp_path / "data.json"
    for seed, rho in enumerate([states.ghz(7), states.diag_state(7, 3)]):
        ds = measurement.simulate_dataset(rho, 100, seed)
        measurement.save_dataset(path, ds)
        back = measurement.load_dataset(path)
        assert (back.n, back.m) == (7, 100)
        assert np.array_equal(back.counts, ds.counts)


def test_a_short_list_in_the_writers_layout_fails_with_the_short_list_message(tmp_path):
    ds = measurement.simulate_dataset(states.ghz(3), 1, 2)  # one entry per setting
    path = tmp_path / "data.json"
    measurement.save_dataset(path, ds)
    data = path.read_bytes()
    entry = measurement._COUNT.encode()
    second = data.index(entry, data.index(entry) + 1)
    third = data.index(entry, second + 1)
    path.write_bytes(data[:second] + data[third:])  # the writer's layout without setting 'xxy'
    with pytest.raises(FormatError) as err:
        measurement.load_dataset(path)
    assert str(err.value) == "counts: setting 'xxy' sums to 0, expected m=1"


def _writers_layout(obj) -> bytes:
    """The bytes save_dataset writes for a dataset object (see test_saved_bytes_match_indented_json_dump)."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_a_wrong_row_sum_in_the_writers_layout_fails_without_json(tmp_path, monkeypatch):
    path = tmp_path / "data.json"
    measurement.save_dataset(path, measurement.simulate_dataset(states.ghz(3), 100, 4))
    data = path.read_bytes()
    start = data.index(measurement._COUNT.encode()) + len(measurement._COUNT)
    end = data.index(measurement._OUTCOME.encode(), start)
    data = data[:start] + str(int(data[start:end]) + 1).encode() + data[end:]  # first count + 1
    path.write_bytes(data)
    expected = _outcome(lambda: _reference_load(data))
    assert expected == (FormatError, "counts: setting 'xxx' sums to 101, expected m=100")
    json_reads = []
    monkeypatch.setattr(states, "read_json", json_reads.append)
    assert _outcome(lambda: measurement.load_dataset(path)) == expected
    assert json_reads == []


# Rows whose int64 sum wraps around to m: 2^64 + 1 at m = 1, and m + 2^64 at
# m = 7 * 10^18, where every count is at most m.
WRAPPING_ROWS = [
    (1, [2**63 - 1, 2**63 - 1, 3, 0]),
    (7 * 10**18, [7 * 10**18] * 3 + [2**64 - 14 * 10**18]),
]


@pytest.mark.parametrize("m,row", WRAPPING_ROWS)
def test_a_row_whose_int64_sum_wraps_to_m_is_rejected(tmp_path, monkeypatch, capsys, m, row):
    counts = np.zeros((9, 4), dtype=object)
    counts[0], counts[1:, 0] = row, m  # setting 'xx', then one cell of m per setting
    with pytest.raises(ValueError, match=f"setting 'xx' sums to {sum(row)}, expected m={m}"):
        measurement.Dataset(n=2, m=m, counts=counts.astype(np.int64))
    outcomes, settings = list(pauli.all_outcomes(2)), list(pauli.all_settings(2))
    obj = {"counts": [{"count": int(c), "outcome": outcomes[o], "setting": settings[s]}
                      for (s, o), c in np.ndenumerate(counts) if c], "m": m, "n": 2}
    (tmp_path / "bytes.json").write_bytes(_writers_layout(obj))
    (tmp_path / "indented.json").write_text(json.dumps(obj, indent=1))
    monkeypatch.chdir(tmp_path)
    errors = []
    for name in ("bytes", "indented"):
        assert main(["estimate", f"{name}.json", "--out", name]) == 4
        errors.append(capsys.readouterr().err)
    message = f"counts: setting 'xx' sums to {sum(row)}, expected m={m}"
    assert errors[0] == errors[1] == f"data error: {message}\n"
    monkeypatch.setattr(states, "read_json", lambda path: pytest.fail("read through json"))
    with pytest.raises(FormatError, match=message):  # the writer's layout fails in the byte path
        measurement.load_dataset("bytes.json")


@pytest.mark.parametrize(
    "x,m",
    [
        ({"+": 2**63 - 1}, 2**63 - 1),
        ({"+": 2**63}, 1),
        ({"-": 2**63, "+": 2**63 + 1}, 1),  # the row sums to 1 in 64 bits
        ({"+": 2**64 + 1}, 1),  # 1 in 64 bits
        ({"+": 10**19 + 1}, 1),
        ({"+": 1}, 10**19 - 1),
    ],
)
def test_a_count_beyond_int64_in_the_writers_layout_loads_as_through_json(tmp_path, x, m):
    entries = [{"count": c, "outcome": r, "setting": "x"} for r, c in x.items()]
    entries += [{"count": m, "outcome": "+", "setting": a} for a in "yz"]
    path = tmp_path / "data.json"
    path.write_bytes(data := _writers_layout({"counts": entries, "m": m, "n": 1}))
    expected = _outcome(lambda: _reference_load(data))
    assert _same_outcome(_outcome(lambda: measurement.load_dataset(path)), expected)
    assert isinstance(expected, tuple) == (x != {"+": m})


def test_a_short_list_in_the_writers_layout_allocates_nothing_of_size_6_to_the_n(tmp_path):
    # One entry at n = 12: the (3^12, 2^12) table would take 17 GB, the 3^12
    # row sums 4 MB.
    n, path = 12, tmp_path / "data.json"
    path.write_bytes(_writers_layout(
        {"counts": [{"count": 1, "outcome": "-" * n, "setting": "x" * n}], "m": 1, "n": n}))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            measurement.load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"counts: setting {'x' * (n - 1) + 'y'!r} sums to 0, expected m=1"
    assert peak < 2**20
