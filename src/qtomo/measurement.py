"""Forward measurement model: exact outcome laws, sampling, and frequencies.

Measuring one Pauli axis per qubit under setting ``a`` yields a sign vector
``r`` with probability ``Tr(rho P_r^a)``, the trace against the tensor
product of single-qubit eigenprojectors. The same number equals the sign- and
indicator-weighted sum of the state's Pauli coefficients, which is what the
fast table kernels evaluate; ``outcome_probability`` exposes both routes so
they can be checked against each other.

A ``Dataset`` records, for each of the 3^n settings, the outcome counts of
``m`` independent repetitions. Sampling draws one multinomial per setting
from an RNG stream derived from (seed, setting index), so results do not
depend on iteration order or scheduling and settings may be processed
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels, pauli, states
from .errors import FormatError

FREQ_ATOL = 1e-12
_PROB_CLIP = 1e-12
_COUNT_MAX = np.iinfo(np.int64).max


@dataclass
class Dataset:
    """Outcome counts per (setting, outcome) cell; each row sums to m."""

    n: int
    m: int
    counts: np.ndarray  # (3^n, 2^n) int64

    def __post_init__(self):
        pauli.check_qubits(self.n)
        if self.m < 1:
            raise ValueError(f"repetition count m={self.m} must be >= 1")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        expected = (3**self.n, 2**self.n)
        if self.counts.shape != expected:
            raise ValueError(
                f"counts shape {self.counts.shape} does not match {expected}"
            )
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        sums = self.counts.sum(axis=1)
        if (sums != self.m).any():
            bad = int(np.nonzero(sums != self.m)[0][0])
            raise ValueError(
                f"setting {pauli.setting_at(self.n, bad)!r} has "
                f"{int(sums[bad])} counts, expected m={self.m}"
            )


@dataclass
class EmpiricalFrequencies:
    """Relative outcome frequencies; each setting's row sums to 1."""

    n: int
    values: np.ndarray  # (3^n, 2^n) float64

    def __post_init__(self):
        pauli.check_qubits(self.n)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (3**self.n, 2**self.n)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match {expected}"
            )
        if (self.values < -FREQ_ATOL).any() or (self.values > 1 + FREQ_ATOL).any():
            raise ValueError("frequencies must lie in [0, 1]")
        dev = np.abs(self.values.sum(axis=1) - 1.0).max()
        if dev > FREQ_ATOL:
            raise ValueError(
                f"per-setting frequency sums deviate from 1 by {dev:.3e}"
            )


def outcome_probability(
    rho: np.ndarray, setting: str, outcome: str, path: str = "trace"
) -> float:
    """Probability of observing ``outcome`` when measuring ``setting``.

    Two independent routes are implemented and agree to 1e-12:
    ``path="trace"`` evaluates Tr(rho P_r^a) directly; ``path="pauli"``
    sums the state's Pauli coefficients weighted by design entries.
    """
    n = states.qubit_count(rho)
    if len(setting) != n or len(outcome) != n:
        raise ValueError(
            f"dimension mismatch: state has n={n}, setting {len(setting)}, "
            f"outcome {len(outcome)}"
        )
    if path == "trace":
        proj = pauli.projector(setting, outcome)
        return float(np.trace(np.asarray(rho, dtype=complex) @ proj).real)
    if path == "pauli":
        coeffs = states.pauli_expand(rho)
        total = 0.0
        for idx, b in enumerate(pauli.all_labels(n)):
            entry = pauli.design_entry(outcome, setting, b)
            if entry:
                total += coeffs[idx] * entry
        return total
    raise ValueError(f"unknown path {path!r}, expected 'trace' or 'pauli'")


def probability_table(rho: np.ndarray) -> np.ndarray:
    """Exact outcome distribution for every setting, shape (3^n, 2^n).

    Row s is the distribution over the 2^n outcomes of setting s (rows sum
    to 1); flattening row-major gives the canonical 6^n probability vector.
    """
    n = states.qubit_count(rho)
    coeffs = states.pauli_expand(rho)
    return _kernels.table_from_coeffs(coeffs, n)


def exact_frequencies(rho: np.ndarray) -> EmpiricalFrequencies:
    """The noiseless frequency object: probability_table wrapped as frequencies."""
    n = states.qubit_count(rho)
    return EmpiricalFrequencies(n=n, values=probability_table(rho))


def simulate_dataset(rho: np.ndarray, m: int, seed) -> Dataset:
    """Draw m outcomes for each of the 3^n settings from the exact law.

    ``seed`` is an integer or a numpy SeedSequence; each setting samples
    from its own stream spawned from it, so the result is deterministic and
    independent of setting iteration order. Probabilities within 1e-12 of
    [0, 1] are clipped; larger violations indicate a non-physical input and
    raise.
    """
    return _sample_dataset(probability_table(rho), m, seed)


def _sample_dataset(table: np.ndarray, m: int, seed) -> Dataset:
    """``simulate_dataset`` from a precomputed ``probability_table``.

    Lets callers that sample one state many times (the bootstrap) compute
    the table once; the draws are those of ``simulate_dataset``.
    """
    if m < 1:
        raise ValueError(f"repetition count m={m} must be >= 1")
    if table.min() < -_PROB_CLIP or table.max() > 1.0 + _PROB_CLIP:
        raise ValueError(
            f"outcome probabilities outside [0, 1] (min {table.min():.3e}, "
            f"max {table.max():.3e}); input is not a density matrix"
        )
    table = np.clip(table, 0.0, 1.0)
    n = table.shape[1].bit_length() - 1
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(3**n)
    counts = np.empty((3**n, 2**n), dtype=np.int64)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        p = table[i] / table[i].sum()
        counts[i] = rng.multinomial(m, p)
    return Dataset(n=n, m=m, counts=counts)


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
# setting's counts must sum to m. save_dataset writes the bytes of
# json.dump(dataset_to_dict(ds), fh, indent=2, sort_keys=True) plus a newline;
# load_dataset accepts any JSON layout and entry order.
# ---------------------------------------------------------------------------


def dataset_to_dict(dataset: Dataset) -> dict:
    entries = []
    settings = list(pauli.all_settings(dataset.n))
    outcomes = list(pauli.all_outcomes(dataset.n))
    for s, a in enumerate(settings):
        for o, r in enumerate(outcomes):
            c = int(dataset.counts[s, o])
            if c:
                entries.append({"setting": a, "outcome": r, "count": c})
    return {"n": dataset.n, "m": dataset.m, "counts": entries}


def dataset_from_dict(obj) -> Dataset:
    if not isinstance(obj, dict):
        raise FormatError("", "expected a JSON object")
    for key in ("n", "m", "counts"):
        if key not in obj:
            raise FormatError(key, "missing key")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("n", f"expected a positive integer, got {n!r}")
    try:
        pauli.check_qubits(n)
    except ValueError as exc:
        raise FormatError("n", str(exc)) from exc
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise FormatError("m", f"expected a positive integer, got {m!r}")
    entries = obj["counts"]
    if not isinstance(entries, list):
        raise FormatError("counts", "expected a list")
    setting_of = {a: s for s, a in enumerate(pauli.all_settings(n))}
    outcome_of = {r: o for o, r in enumerate(pauli.all_outcomes(n))}
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
    cells = np.array(cells, dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    _check_duplicates(entries, cells)
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
    cells = np.nonzero(dataset.counts)
    settings = list(pauli.all_settings(dataset.n))
    outcomes = list(pauli.all_outcomes(dataset.n))
    entries = zip(
        dataset.counts[cells].tolist(),
        map(outcomes.__getitem__, cells[1].tolist()),
        map(settings.__getitem__, cells[0].tolist()),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "counts": [\n')
        fh.write(",\n".join([
            f'    {{\n      "count": {c},\n      "outcome": "{r}",\n      "setting": "{a}"\n    }}'
            for c, r, a in entries
        ]))
        fh.write(f'\n  ],\n  "m": {dataset.m},\n  "n": {dataset.n}\n}}\n')


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("", f"invalid JSON: {exc}") from exc
    return dataset_from_dict(obj)
