"""Forward measurement model: exact outcome laws, sampling, and frequencies.

Measuring one Pauli axis per qubit under setting ``a`` yields a sign vector
``r`` with probability ``Tr(rho P_r^a)``, the trace against the tensor
product of single-qubit eigenprojectors. The same number equals the sum over
labels b of the state's Pauli coefficient times the design entry
Tr(sigma_b P_r^a), which is what the table kernels evaluate.

A ``Dataset`` records, for each of the 3^n settings, the outcome counts of
``m`` independent repetitions, drawn with one multinomial call per dataset.

Determinism contract: every draw comes from ``stream(seed, *key)``, a pure
function of the user seed and an integer key naming the draw, so the same
(seed, key) gives the same numbers in any order or process, however often.
Keys: () for ``simulate_dataset``; (j,) for bootstrap repetition j;
(0, d, rep) and (1, d, rep) for the dataset and bootstrap of rank-study
point (d, rep); (0, d, m, rep) for the dataset of error-study point (d, m, rep).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import _kernels, pauli, states
from .errors import FormatError

FREQ_ATOL = 1e-12
_PROB_CLIP = 1e-12
_COUNT_MAX = np.iinfo(np.int64).max


@dataclass
class Dataset:
    """Outcome counts per (setting, outcome) cell; each row sums to m.

    ``counts`` may also be a stack (..., 3^n, 2^n) of datasets that share n
    and m, as the bootstrap draws them; the file format holds one dataset.
    """

    n: int
    m: int
    counts: np.ndarray  # (3^n, 2^n) int64

    def __post_init__(self):
        pauli.check_qubits(self.n)
        _check_repetitions(self.m)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        expected = (3**self.n, 2**self.n)
        if self.counts.shape[-2:] != expected:
            raise ValueError(
                f"counts shape {self.counts.shape} does not match {expected}"
            )
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        sums = self.counts.sum(axis=-1)
        if (sums != self.m).any():
            bad = tuple(np.argwhere(sums != self.m)[0])
            raise ValueError(
                f"setting {pauli.setting_at(self.n, int(bad[-1]))!r} has "
                f"{int(sums[bad])} counts, expected m={self.m}"
            )


@dataclass
class EmpiricalFrequencies:
    """Relative outcome frequencies; each setting's row sums to 1.

    ``values`` may be a stack (..., 3^n, 2^n), like ``Dataset.counts``.
    """

    n: int
    values: np.ndarray  # (3^n, 2^n) float64

    def __post_init__(self):
        pauli.check_qubits(self.n)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (3**self.n, 2**self.n)
        if self.values.shape[-2:] != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match {expected}"
            )
        if (self.values < -FREQ_ATOL).any() or (self.values > 1 + FREQ_ATOL).any():
            raise ValueError("frequencies must lie in [0, 1]")
        dev = np.abs(self.values.sum(axis=-1) - 1.0).max()
        if dev > FREQ_ATOL:
            raise ValueError(
                f"per-setting frequency sums deviate from 1 by {dev:.3e}"
            )


def probability_table(rho: np.ndarray) -> np.ndarray:
    """Exact outcome distribution for every setting, shape (3^n, 2^n).

    Row s is the distribution over the 2^n outcomes of setting s (rows sum
    to 1); flattening row-major gives the canonical 6^n probability vector.
    """
    n = states.qubit_count(rho)
    coeffs = states.pauli_expand(rho)
    return _kernels.table_from_coeffs(coeffs, n)


def stream(seed, *key: int) -> np.random.SeedSequence:
    """Stream ``key`` under ``seed``: ``SeedSequence(seed, spawn_key=key)``.

    A SeedSequence seed keeps its entropy and pool size and gets ``key``
    appended to its spawn key. Nothing is mutated, so a repeated call gives
    the same stream; ``stream(s, j)`` is child j of a fresh ``s.spawn``.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=(*seed.spawn_key, *key), pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed, spawn_key=key)


def simulate_dataset(rho: np.ndarray, m: int, seed) -> Dataset:
    """Draw m outcomes for each of the 3^n settings from the exact law.

    ``seed`` (an int or a SeedSequence) is the one stream all settings use.
    A bad ``m`` is reported before a non-physical state.
    """
    _check_repetitions(m)
    return draw_dataset(outcome_law(rho), m, seed)


def outcome_law(rho: np.ndarray) -> np.ndarray:
    """The sampling law of a state: its ``probability_table``, rows clipped and normalized.

    Probabilities within 1e-12 of [0, 1] are clipped; larger violations
    indicate a non-physical input and raise. Callers that sample one state
    many times (the bootstrap, the studies) build the law once and pass it
    to ``draw_dataset`` for every draw.
    """
    table = probability_table(rho)
    if table.min() < -_PROB_CLIP or table.max() > 1.0 + _PROB_CLIP:
        raise ValueError(
            f"outcome probabilities outside [0, 1] (min {table.min():.3e}, "
            f"max {table.max():.3e}); input is not a density matrix"
        )
    table = np.clip(table, 0.0, 1.0)
    return table / table.sum(axis=1, keepdims=True)


def draw_dataset(law: np.ndarray, m: int, seed) -> Dataset:
    """m outcomes per setting from an ``outcome_law``: one multinomial draw per stream.

    ``seed`` is one stream (an int or a SeedSequence), which gives one
    dataset, or a list of streams, which gives a stack of datasets in that
    order; each dataset of the stack has the bits of its stream drawn alone.
    """
    _check_repetitions(m)
    if isinstance(seed, list):
        counts = np.stack([np.random.default_rng(s).multinomial(m, law) for s in seed])
    else:
        counts = np.random.default_rng(seed).multinomial(m, law)
    return Dataset(n=law.shape[-1].bit_length() - 1, m=m, counts=counts)


def _check_repetitions(m: int) -> None:
    if m < 1:
        raise ValueError(f"repetition count m={m} must be >= 1")


def empirical_frequencies(dataset: Dataset) -> EmpiricalFrequencies:
    """Counts normalized by m."""
    return EmpiricalFrequencies(
        n=dataset.n, values=dataset.counts.astype(np.float64) / dataset.m
    )


# ---------------------------------------------------------------------------
# dataset JSON format:
# {"n": int, "m": int,
#  "counts": [{"setting": "xzyx", "outcome": "+--+", "count": int}, ...]}
# Omitted (setting, outcome) pairs are zero; duplicates are an error; each
# setting's counts must sum to m. save_dataset lists the nonzero cells in
# (setting, outcome) order and writes the bytes that json.dump(obj, fh,
# indent=2, sort_keys=True) plus a newline would write for that object;
# load_dataset accepts any JSON layout and entry order.
# ---------------------------------------------------------------------------


def dataset_from_dict(obj) -> Dataset:
    n = states.require_header(obj, ("n", "m", "counts"))
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise FormatError("m", f"expected a positive integer, got {m!r}")
    entries = obj["counts"]
    if not isinstance(entries, list):
        raise FormatError("counts", "expected a list")
    # Fewer entries than settings cannot give every setting m >= 1 counts.
    # Such a list is checked entry by entry (the empty maps miss every
    # lookup), and nothing of size 3^n is built before it fails.
    short = len(entries) < 3**n
    setting_of = {} if short else {a: s for s, a in enumerate(pauli.all_settings(n))}
    outcome_of = {} if short else {r: o for o, r in enumerate(pauli.all_outcomes(n))}
    width = 2**n
    cells_values = None if short else _cells_at_once(entries, setting_of, outcome_of, width)
    cells, values = cells_values or _cells_one_by_one(entries, n, setting_of, outcome_of)
    _check_duplicates(entries, cells)
    if short:
        bad, total = _first_short_setting(cells // width, values, m)
        raise FormatError(
            "counts", f"setting {pauli.setting_at(n, bad)!r} sums to {total}, expected m={m}"
        )
    # Row sums come from the entries, so a dataset that misses a setting
    # fails before the (3^n, 2^n) table is allocated.
    sums = np.zeros(3**n, dtype=np.int64)
    np.add.at(sums, cells // width, values)
    if (sums != m).any():
        bad = int(np.nonzero(sums != m)[0][0])
        raise FormatError(
            "counts",
            f"setting {pauli.setting_at(n, bad)!r} sums to {int(sums[bad])}, expected m={m}",
        )
    counts = np.zeros(3**n * width, dtype=np.int64)
    counts[cells] = values
    return Dataset(n=n, m=m, counts=counts.reshape(3**n, width))


def _cells_at_once(entries: list, setting_of: dict, outcome_of: dict, width: int):
    """(cells, counts) of well-formed entries, from a few C-level passes, else None.

    An entry that is not a plain dict, a missing or unknown key, or a count
    that is not a plain int in [0, 2^63) gives None; the walk then names the
    first error.
    """
    if set(map(type, entries)) != {dict}:
        return None
    try:
        counts = list(map(itemgetter("count"), entries))
        if set(map(type, counts)) != {int}:
            return None
        values = np.array(counts, dtype=np.int64)
        settings = np.fromiter(map(setting_of.__getitem__, map(itemgetter("setting"), entries)),
                               dtype=np.int64, count=len(entries))
        outcomes = np.fromiter(map(outcome_of.__getitem__, map(itemgetter("outcome"), entries)),
                               dtype=np.int64, count=len(entries))
    except (KeyError, TypeError, OverflowError):
        return None
    if values.min() < 0:
        return None
    return settings * width + outcomes, values


def _cells_one_by_one(entries: list, n: int, setting_of: dict, outcome_of: dict):
    """(cells, counts) of the entries, walked in order, or the first entry's FormatError."""
    width = 2**n
    cells, values = [], []
    for i, entry in enumerate(entries):
        # A miss in either map covers a non-string, a bad character and a
        # wrong length; _entry_cell then finds the precise error.
        try:
            cell = setting_of[entry["setting"]] * width + outcome_of[entry["outcome"]]
            c = entry["count"]
            valid = type(entry) is dict and type(c) is int and 0 <= c <= _COUNT_MAX
        except (KeyError, TypeError):
            valid = False
        if not valid:
            try:
                s, o, c = _entry_cell(i, entry, n)
            except FormatError:
                _check_duplicates(entries, cells)  # an earlier duplicate comes first
                raise
            cell = s * width + o
        cells.append(cell)
        values.append(c)
    return np.array(cells, dtype=np.int64), np.array(values, dtype=np.int64)


def _first_short_setting(settings: np.ndarray, values: np.ndarray, m: int) -> tuple[int, int]:
    """(index, sum) of the first setting not summing to m, given fewer entries than settings.

    Some setting then has no entry and sums to 0, so only the settings the
    entries name, up to the first absent one, need a sum.
    """
    named, where = np.unique(settings, return_inverse=True)
    sums = np.zeros(named.size, dtype=np.int64)
    np.add.at(sums, where, values)
    gaps = np.nonzero(named != np.arange(named.size))[0]
    absent = int(gaps[0]) if gaps.size else named.size
    wrong = np.nonzero((sums != m) & (named < absent))[0]
    return (int(named[wrong[0]]), int(sums[wrong[0]])) if wrong.size else (absent, 0)


def _entry_cell(i: int, entry, n: int) -> tuple[int, int, int]:
    """(setting index, outcome index, count) of entry i, or its FormatError."""
    where = f"counts[{i}]"
    if not isinstance(entry, dict):
        raise FormatError(where, "expected an object")
    for key in ("setting", "outcome", "count"):
        if key not in entry:
            raise FormatError(f"{where}.{key}", "missing key")
    a = entry["setting"]
    if not isinstance(a, str):
        raise FormatError(f"{where}.setting", "expected a string")
    try:
        s = pauli.setting_index(a)
    except ValueError as exc:
        raise FormatError(f"{where}.setting", str(exc)) from exc
    if len(a) != n:
        raise FormatError(f"{where}.setting", f"length {len(a)} != n={n}")
    r = entry["outcome"]
    if not isinstance(r, str):
        raise FormatError(f"{where}.outcome", "expected a string")
    try:
        o = pauli.outcome_index(r)
    except ValueError as exc:
        raise FormatError(f"{where}.outcome", str(exc)) from exc
    if len(r) != n:
        raise FormatError(f"{where}.outcome", f"length {len(r)} != n={n}")
    c = entry["count"]
    if not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise FormatError(f"{where}.count", f"expected a non-negative integer, got {c!r}")
    if c > _COUNT_MAX:
        raise FormatError(f"{where}.count", f"{c} does not fit in a 64-bit count")
    return s, o, c


def _check_duplicates(entries: list, cells) -> None:
    """Raise for the first entry whose cell an earlier entry already names."""
    cells = np.asarray(cells, dtype=np.int64)
    order = np.argsort(cells, kind="stable")
    later = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if later.size:
        j = int(later.min())
        a, r = entries[j]["setting"], entries[j]["outcome"]
        raise FormatError(
            f"counts[{j}]", f"duplicate (setting, outcome) pair ({a!r}, {r!r})"
        ) from None


def save_dataset(path, dataset: Dataset) -> None:
    # Entry text is head[count] + mid[outcome] + tail[setting], with the ",\n"
    # separator in tail: three small tables, one gather and one join.
    n = dataset.n
    settings, outcomes = np.nonzero(dataset.counts)
    values, which = np.unique(dataset.counts[settings, outcomes], return_inverse=True)
    parts = np.empty((settings.size, 3), dtype=object)
    parts[:, 0] = np.fromiter(
        (f'    {{\n      "count": {c},\n      "outcome": "' for c in values.tolist()), object
    )[which]
    parts[:, 1] = np.fromiter((f'{r}",\n      "setting": "' for r in pauli.all_outcomes(n)),
                              object)[outcomes]
    parts[:, 2] = np.fromiter((f'{a}"\n    }},\n' for a in pauli.all_settings(n)), object)[settings]
    parts[-1, 2] = parts[-1, 2][:-2]  # no separator after the last entry
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "counts": [\n')
        fh.write("".join(parts.ravel().tolist()))
        fh.write(f'\n  ],\n  "m": {dataset.m},\n  "n": {n}\n}}\n')


def load_dataset(path) -> Dataset:
    return dataset_from_dict(states.read_json(path))
