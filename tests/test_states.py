import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ReferenceFormatError,
    ReferenceTomography,
    maximally_mixed,
    random_density,
    random_hermitian,
    reference_square_rows,
    state_to_dict,
    trace_norm,
)
from qtomo import pauli, rankpen, states
from qtomo.errors import FormatError


def test_expand_examples():
    c = states.pauli_expand(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(c, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    for n in (1, 2, 3):
        c = states.pauli_expand(maximally_mixed(n))
        expected = np.zeros(4**n)
        expected[0] = 1.0 / 2**n
        assert np.allclose(c, expected, atol=1e-12)


def test_expand_ghz2_nonzero_coefficients():
    c = states.pauli_expand(states.ghz(2))
    expected = {"ii": 0.25, "xx": 0.25, "yy": -0.25, "zz": 0.25}
    for i, b in enumerate(pauli.all_labels(2)):
        assert abs(c[i] - expected.get(b, 0.0)) < 1e-12, b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expand_matches_trace_oracle(n):
    rng = np.random.default_rng(20 + n)
    h = random_hermitian(2**n, rng)
    c = states.pauli_expand(h)
    ref = ReferenceTomography(n)
    for i in range(4**n):
        direct = np.trace(h @ ref.paulis[i]).real / 2**n
        assert abs(c[i] - direct) < 1e-10


def test_expand_of_pauli_matrices_hits_unit_vectors():
    for n in (1, 2):
        ref = ReferenceTomography(n)
        for i in range(4**n):
            c = states.pauli_expand(ref.paulis[i])
            expected = np.zeros(4**n)
            expected[i] = 1.0
            assert np.allclose(c, expected, atol=1e-12)


def test_assemble_examples():
    for n in (1, 2):
        c = np.zeros(4**n)
        c[0] = 1.0 / 2**n
        assert np.allclose(states.pauli_assemble(c), maximally_mixed(n), atol=1e-14)
    c = states.pauli_expand(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(states.pauli_assemble(c), np.diag([1.0, 0.0]), atol=1e-14)


def test_expand_assemble_round_trips():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(34):
            h = random_hermitian(2**n, rng)
            back = states.pauli_assemble(states.pauli_expand(h))
            assert np.linalg.norm(back - h) < 1e-10
            c = rng.normal(size=4**n)
            again = states.pauli_expand(states.pauli_assemble(c))
            assert np.linalg.norm(again - c) < 1e-10


def test_expand_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        states.pauli_expand(bad)


def test_assemble_rejects_bad_length():
    with pytest.raises(ValueError, match="power of 4"):
        states.pauli_assemble(np.zeros(6))


def test_diag_state_examples():
    assert np.allclose(states.diag_state(1, 1), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(states.diag_state(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)
    w = np.linalg.eigvalsh(states.diag_state(4, 6))
    assert np.count_nonzero(w > 1e-12) == 6
    assert abs(w.max() - 1.0 / 6.0) < 1e-12
    with pytest.raises(ValueError):
        states.diag_state(2, 5)
    with pytest.raises(ValueError):
        states.diag_state(2, 0)


def test_ghz_pure_rank_one():
    rho = states.ghz(2)
    assert abs(rho.trace() - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    assert np.count_nonzero(np.linalg.eigvalsh(rho) > 1e-12) == 1
    with pytest.raises(ValueError):
        states.ghz(1)


def test_w_state_diagonal():
    rho = states.w_state(4)
    diag = np.diag(rho).real
    excited = [1 << k for k in range(4)]
    for idx in range(16):
        expected = 0.25 if idx in excited else 0.0
        assert abs(diag[idx] - expected) < 1e-12
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        states.w_state(1)


def test_mixture_rank():
    rho = states.mixture(4, 3, 0.2)
    states.require_density(rho)
    assert np.count_nonzero(np.linalg.eigvalsh(rho) > 1e-9) == 4
    with pytest.raises(ValueError):
        states.mixture(4, 3, 1.5)


def test_constructors_satisfy_density_invariants():
    for rho in (
        states.diag_state(3, 5),
        states.ghz(3),
        states.w_state(3),
        states.mixture(2, 3, 0.7),
        maximally_mixed(2),
    ):
        states.require_density(rho)


def test_project_simplex_hand_cases():
    assert np.allclose(states.project_simplex([1.2, -0.2]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(
        states.project_simplex([0.9, 0.3, -0.2, 0.0]), [0.8, 0.2, 0.0, 0.0], atol=1e-12
    )
    assert np.allclose(states.project_simplex([0.25, 0.25, 0.25, 0.25]),
                       [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_project_simplex_properties_and_optimality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 9))
        p = states.project_simplex(v)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-9
        base = np.linalg.norm(p - v)
        for _ in range(20):
            q = rng.dirichlet(np.ones(v.size))
            assert base <= np.linalg.norm(q - v) + 1e-9


def test_nearest_density_fixed_point():
    rng = np.random.default_rng(11)
    rho = random_density(8, rng)
    assert np.linalg.norm(states.nearest_density(*np.linalg.eigh(rho)) - rho) < 1e-12


def test_nearest_density_hand_cases():
    out = states.nearest_density(*np.linalg.eigh(np.diag([1.2, -0.2]).astype(complex)))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    out = states.nearest_density(*np.linalg.eigh(np.diag([0.9, 0.3, -0.2, 0.0]).astype(complex)))
    assert np.allclose(out, np.diag([0.8, 0.2, 0.0, 0.0]), atol=1e-12)


def test_nearest_density_idempotent_and_valid():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = random_hermitian(8, rng)
        out = states.nearest_density(*np.linalg.eigh(h))
        states.require_density(out)
        assert abs(out.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12
        assert np.linalg.norm(states.nearest_density(*np.linalg.eigh(out)) - out) < 1e-12


def test_nearest_density_max_rank():
    rng = np.random.default_rng(17)
    h = random_hermitian(8, rng)
    for k in (1, 2, 5):
        out = states.nearest_density(*np.linalg.eigh(h), max_rank=k)
        states.require_density(out)
        assert np.count_nonzero(np.linalg.eigvalsh(out) > 1e-10) <= k
    with pytest.raises(ValueError):
        states.nearest_density(*np.linalg.eigh(h), max_rank=0)
    with pytest.raises(ValueError):
        states.nearest_density(*np.linalg.eigh(h), max_rank=9)


def test_nearest_density_gives_the_bits_of_eigh_in_any_column_order():
    rng = np.random.default_rng(23)
    for dim in (2, 8, 32):
        w, v = np.linalg.eigh(random_hermitian(dim, rng))
        perm = rng.permutation(dim)
        for k in (None, 1, dim // 2):
            expected = states.nearest_density(w, v, max_rank=k).tobytes()
            assert states.nearest_density(w[perm], v[:, perm], max_rank=k).tobytes() == expected
    with pytest.raises(ValueError, match="shapes"):
        states.nearest_density(np.ones(3), np.eye(4))


def test_nearest_density_frobenius_optimality():
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = random_hermitian(4, rng)
        out = states.nearest_density(*np.linalg.eigh(h))
        rank = int(np.count_nonzero(np.linalg.eigvalsh(out) > 1e-10))
        base = np.linalg.norm(out - h)
        for _ in range(25):
            sigma = random_density(4, rng, rank=rank)
            assert base <= np.linalg.norm(sigma - h) + 1e-9


def test_norms():
    m = np.diag([3.0, -4.0]).astype(complex)
    assert abs(states.operator_norm(m) - 4.0) < 1e-12
    assert abs(states.frobenius_norm(m) - 5.0) < 1e-12
    assert abs(trace_norm(m) - 7.0) < 1e-12


def test_state_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    h = random_hermitian(4, rng)
    h.real[0, 1], h.imag[2, 3], h.imag[3, 3] = -0.0, -0.0, 5e-324
    path = tmp_path / "state.json"
    states.save_state(path, h)
    back = states.load_state(path)
    assert np.array_equal(back, h)
    assert np.array_equal(np.signbit(back.real), np.signbit(h.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(h.imag))


EDGE_VALUES = (-0.0, 0.0, 5e-324, 1e-300, 1e16, 1 / 3, -1 / 3, -1e16, -5e-324)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_saved_state_bytes_match_indented_json_dump(tmp_path, n):
    rng = np.random.default_rng(40 + n)
    dim = 2**n
    edges = np.empty((dim, dim), dtype=complex)
    edges.real, edges.imag = rng.choice(EDGE_VALUES, size=(2, dim, dim))
    for matrix in (random_hermitian(dim, rng), edges, np.zeros((dim, dim), dtype=complex)):
        _assert_written_as_json_dump(tmp_path, matrix)


def _assert_written_as_json_dump(tmp_path, matrix):
    path = tmp_path / "state.json"
    states.save_state(path, matrix)
    expected = json.dumps(state_to_dict(matrix), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fit_states_are_written_as_json_dump_writes_them(tmp_path, n):
    dim = 2**n
    dec = rankpen.spectral(random_hermitian(dim, np.random.default_rng(50 + n)))
    physical = states.nearest_density(dec.eigenvalues, dec.vectors)
    assert np.array_equal(physical, physical.conj().T)  # every pair mirrored
    for matrix in (physical, states.nearest_density(dec.eigenvalues, dec.vectors, 1),
                   rankpen.truncate(dec, 0), rankpen.truncate(dec, max(dim // 2, 1)),
                   rankpen.truncate(dec, dim)):
        _assert_written_as_json_dump(tmp_path, matrix)


def test_signed_zeros_in_mirrored_pairs_keep_their_text(tmp_path):
    # In im, (+0.0, +0.0) is not a negated pair and (-0.0, +0.0) is.
    rng = np.random.default_rng(61)
    edges = np.empty((8, 8), dtype=complex)
    edges.real, edges.imag = rng.choice(EDGE_VALUES, size=(2, 8, 8))
    hermitian = edges + edges.conj().T
    hermitian.imag[np.diag_indices(8)] = -0.0
    hermitian.imag[0, 1] = hermitian.imag[1, 0] = 0.0
    hermitian.imag[2, 3], hermitian.imag[3, 2] = -0.0, 0.0
    hermitian.imag[5, 4], hermitian.imag[4, 5] = -0.0, 0.0
    hermitian.real[6, 7], hermitian.real[7, 6] = -0.0, 0.0
    for matrix in (hermitian, hermitian.conj(), edges):
        _assert_written_as_json_dump(tmp_path, matrix)


def test_a_pair_one_ulp_apart_is_formatted_twice(tmp_path):
    matrix = random_hermitian(4, np.random.default_rng(62))
    matrix.real[2, 0] = np.nextafter(matrix.real[0, 2], np.inf)
    matrix.imag[3, 1] = np.nextafter(-matrix.imag[1, 3], -np.inf)
    matrix.imag[0, 3], matrix.imag[3, 0] = 0.1, np.nextafter(-0.1, 0.0)
    assert repr(float(matrix.imag[3, 0])) == "-0.09999999999999999"
    _assert_written_as_json_dump(tmp_path, matrix)


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("at", [(3, 1), (1, 3)])
def test_a_hermitian_matrix_with_one_broken_entry(tmp_path, part, at):
    matrix = random_hermitian(8, np.random.default_rng(63))
    getattr(matrix, part)[at] = 0.5
    _assert_written_as_json_dump(tmp_path, matrix)


def test_save_state_peak_stays_below_one_part_as_python_floats(tmp_path):
    # Formatting a whole part at once holds its 4^n entries as Python floats,
    # 32 bytes each with their list slot (0.52 MB at n = 7), and peaked at
    # 1.03 MB on this matrix. Row by row, the writer holds one row's floats
    # and at most a quarter of a part's texts.
    n = 7
    dec = rankpen.spectral(random_hermitian(2**n, np.random.default_rng(64)))
    matrix = states.nearest_density(dec.eigenvalues, dec.vectors, 1)
    tracemalloc.start()
    try:
        states.save_state(tmp_path / "state.json", matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4**n * 32


@pytest.mark.parametrize("value", [complex(math.nan, 0), complex(0, math.inf), -math.inf])
def test_save_state_rejects_a_non_finite_entry_before_opening(tmp_path, value):
    matrix = maximally_mixed(2)
    matrix[2, 1] = value
    matrix[3, 0] = math.nan
    path = tmp_path / "state.json"
    with pytest.raises(ValueError, match=r"entry \[2, 1\] is not finite"):
        states.save_state(path, matrix)
    assert not path.exists()


def test_load_state_accepts_integer_entries(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"n": 1, "re": [[1, 0], [0, 2.5]], "im": [[0, -1], [1, 0]]}')
    back = states.load_state(path)
    assert np.array_equal(back, np.array([[1, -1j], [1j, 2.5]]))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_state_rejects_a_non_finite_entry(tmp_path, literal):
    obj = state_to_dict(maximally_mixed(1))
    text = json.dumps(obj).replace('"re": [[0.5, 0.0], [0.0', f'"re": [[0.5, 0.0], [{literal}')
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        states.load_state(path)
    assert err.value.path == "re[1][0]"
    assert str(err.value) == "re[1][0]: expected a finite number"


# Defects planted in a valid state object by the mutation table below: whole
# rows, then single entries (each a JSON value the loader must reject, except
# the integers and 2**1024 - 2**970 - 1, which round to a finite float).
ROW_DEFECTS = ("missing row", "extra row", "short row", "long row", "row not a list",
               "block not a list")
ENTRY_DEFECTS = {
    "bool": True, "false": False, "str": "0.5", "None": None, "nested list": [0.5],
    "object": {}, "huge integer": 10**400, "negative huge integer": -(10**400),
    "overflowing integer": 2**1024 - 2**970, "largest integer": 2**1024 - 2**970 - 1,
    "integer": 7, "large integer": 2**70, "NaN": math.nan, "infinity": math.inf,
    "negative infinity": -math.inf,
}


def _plant(obj: dict, key: str, defect: str, rng) -> None:
    rows = obj[key]
    i = int(rng.integers(len(rows)))
    row = rows[i]
    k = int(rng.integers(len(row))) if isinstance(row, list) and row else None
    if defect == "missing row":
        rows.pop(i)
    elif defect == "extra row":
        rows.append([0.0] * len(rows))
    elif defect == "row not a list":
        rows[i] = 0.5
    elif defect == "block not a list":
        obj[key] = {"rows": rows}
    elif k is None:
        return  # an earlier defect already broke this row
    elif defect == "short row":
        row.pop(k)
    elif defect == "long row":
        row.append(0.0)
    else:
        row[k] = ENTRY_DEFECTS[defect]


def _check_against_reference(obj: dict) -> None:
    dim = 2 ** obj["n"]
    try:
        re = reference_square_rows(obj["re"], "re", dim)
        im = reference_square_rows(obj["im"], "im", dim)
    except ReferenceFormatError as ref:
        with pytest.raises(FormatError) as err:
            states.state_from_dict(obj)
        assert type(err.value) is FormatError
        assert (err.value.path, str(err.value)) == (ref.path, str(ref))
    else:
        back = states.state_from_dict(obj)
        assert np.array_equal(back.real, re) and np.array_equal(back.imag, im)


DEFECTS = ROW_DEFECTS + tuple(ENTRY_DEFECTS)


@pytest.mark.parametrize("defect", DEFECTS)
def test_state_block_errors_match_the_per_element_reference(defect):
    """One defect in the re block, or in the im block after a valid re block."""
    rng = np.random.default_rng(DEFECTS.index(defect))
    for n in (1, 2, 3):
        for key in ("re", "im"):
            for _ in range(3):
                obj = state_to_dict(random_hermitian(2**n, rng))
                _plant(obj, key, defect, rng)
                _check_against_reference(obj)


def test_first_bad_entry_in_row_major_order_is_reported():
    """Two or three defects per object: the reference decides which comes first."""
    rng = np.random.default_rng(67)
    names = ROW_DEFECTS[2:5] + tuple(ENTRY_DEFECTS)
    for n in (1, 2, 3):
        for _ in range(40):
            obj = state_to_dict(random_hermitian(2**n, rng))
            for _ in range(int(rng.integers(2, 4))):
                _plant(obj, str(rng.choice(["re", "im"])), str(rng.choice(names)), rng)
            _check_against_reference(obj)


def test_state_entries_may_be_float_subclasses():
    obj = state_to_dict(maximally_mixed(1))
    obj["re"][0][0] = np.float64(0.5)
    assert np.array_equal(states.state_from_dict(obj), maximally_mixed(1))


def test_state_json_errors(tmp_path):
    with pytest.raises(FormatError) as err:
        states.state_from_dict({"n": 1, "re": [[0.0, 0.0], [0.0, 0.0]]})
    assert err.value.path == "im"

    with pytest.raises(FormatError) as err:
        states.state_from_dict({"n": 1, "re": [[0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    assert err.value.path == "re[0]"

    with pytest.raises(FormatError) as err:
        states.state_from_dict({"n": 0, "re": [], "im": []})
    assert err.value.path == "n"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        states.load_state(bad)
