"""Forward measurement model: exact outcome laws, sampling, and frequencies.

Measuring one Pauli axis per qubit under setting ``a`` yields a sign vector
``r`` with probability ``Tr(rho P_r^a)``, the trace against the tensor
product of single-qubit eigenprojectors. The same number equals the sum over
labels b of the state's Pauli coefficient times the design entry
Tr(sigma_b P_r^a), which is what the table kernels evaluate.

A ``Dataset`` records, for each of the 3^n settings, the outcome counts of
``m`` independent repetitions, drawn from one generator per dataset.

Determinism contract: every draw comes from ``stream(seed, *key)``, a pure
function of the user seed and an integer key naming the draw, so the same
(seed, key) gives the same numbers in any order or process, however often.
Keys: () for ``simulate_dataset``; (j,) for bootstrap repetition j;
(0, d, rep) and (1, d, rep) for the dataset and bootstrap of rank-study
point (d, rep); (0, d, m, rep) for the dataset of error-study point (d, m, rep).
A stream's draw has the same bits on any thread and in any row chunking:
``draw_counts`` draws a table's rows in chunks, one after another from the
stream's one generator, which gives the bits of a single multinomial call.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass

import numpy as np

from . import _kernels, pauli, states
from .errors import ConfigError, FormatError

FREQ_ATOL = 1e-12
_PROB_CLIP = 1e-12
_COUNT_MAX = np.iinfo(np.int64).max
# The most table cells that one multinomial call of ``draw_counts`` draws, so
# the temporary it returns stays small whichever thread allocates it.
DRAW_CHUNK_CELLS = 2**16


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
        check_repetitions(self.m)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        expected = (3**self.n, 2**self.n)
        if self.counts.shape[-2:] != expected:
            raise ValueError(
                f"counts shape {self.counts.shape} does not match {expected}"
            )
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        sums = self.counts.sum(axis=-1, dtype=_sum_dtype(self.counts, 2**self.n))
        _check_row_sums(sums, self.m, self.n)


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
        # min and max are NaN when an entry is, which fails the comparison
        if not (self.values.min() >= -FREQ_ATOL and self.values.max() <= 1 + FREQ_ATOL):
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

    ``seed`` is a non-negative integer or a SeedSequence, else ConfigError.
    A SeedSequence seed keeps its entropy and pool size and gets ``key``
    appended to its spawn key. Nothing is mutated, so a repeated call gives
    the same stream; ``stream(s, j)`` is child j of a fresh ``s.spawn``.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=(*seed.spawn_key, *key), pool_size=seed.pool_size
        )
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")
    return np.random.SeedSequence(int(seed), spawn_key=key)


def simulate_dataset(rho: np.ndarray, m: int, seed) -> Dataset:
    """Draw m outcomes for each of the 3^n settings from the exact law.

    ``seed``, read by ``stream``, is the one stream all settings use.
    A bad ``m`` is reported before a non-physical state.
    """
    check_repetitions(m)
    return draw_dataset(outcome_law(rho), m, seed)


def outcome_law(rho: np.ndarray) -> np.ndarray:
    """The sampling law of a state: its ``probability_table``, rows clipped and normalized.

    A trace other than 1 (``states.require_unit_trace``) raises after the
    table's own checks. Probabilities within 1e-12 of [0, 1] are clipped;
    larger violations indicate a non-physical input and raise. Callers that
    sample one state many times (the bootstrap, the studies) build the law
    once and pass it to ``draw_dataset`` for every draw.
    """
    table = probability_table(rho)
    states.require_unit_trace(rho)
    if table.min() < -_PROB_CLIP or table.max() > 1.0 + _PROB_CLIP:
        raise ValueError(
            f"outcome probabilities outside [0, 1] (min {table.min():.3e}, "
            f"max {table.max():.3e}); input is not a density matrix"
        )
    table = np.clip(table, 0.0, 1.0)
    return table / table.sum(axis=1, keepdims=True)


def draw_dataset(law: np.ndarray, m: int, seed) -> Dataset:
    """m outcomes per setting from an ``outcome_law``, drawn by ``draw_counts``.

    ``seed`` is read by ``stream``; ``draw_counts`` draws a stack of datasets,
    one stream each.
    """
    check_repetitions(m)
    counts = draw_counts(law, m, [stream(seed)], np.empty((1, *law.shape), dtype=np.int64))
    return Dataset(n=law.shape[-1].bit_length() - 1, m=m, counts=counts[0])


def draw_counts(law: np.ndarray, m: int, streams: list, out: np.ndarray) -> np.ndarray:
    """Fill ``out[i]`` with m outcomes per row of ``law`` drawn from ``streams[i]``; return ``out``.

    ``out`` is an int64 array of shape (len(streams), *law.shape) that the
    caller allocates. Each stream's rows are drawn in chunks of at most
    ``DRAW_CHUNK_CELLS`` cells from one generator, in row order, which gives
    the bits of one ``multinomial(m, law)`` call. Only the generator and the
    chunk are touched, so a worker thread may fill a buffer.
    """
    rows = max(1, DRAW_CHUNK_CELLS // law.shape[-1])
    for stream_seed, counts in zip(streams, out, strict=True):
        rng = np.random.default_rng(stream_seed)
        for start in range(0, len(law), rows):
            counts[start:start + rows] = rng.multinomial(m, law[start:start + rows])
    return out


def _check_row_sums(sums: np.ndarray, m: int, n: int) -> None:
    """ValueError for the first sum that is not m, naming its setting (the last axis of a stack)."""
    if (sums != m).any():
        bad = tuple(np.argwhere(sums != m)[0])
        setting = pauli.setting_at(n, int(bad[-1]))
        raise ValueError(f"setting {setting!r} sums to {int(sums[bad])}, expected m={m}")


def _sum_dtype(values: np.ndarray, terms: int):
    """int64 if no sum of ``terms`` non-negative ``values`` can pass 2^63 - 1, else object (exact ints)."""
    return np.int64 if values.max(initial=0) <= _COUNT_MAX // max(terms, 1) else object


def check_repetitions(m: int) -> None:
    """Raise ConfigError unless 1 <= m <= 2^63 - 1, the most a 64-bit count holds."""
    if m < 1:
        raise ConfigError(f"repetition count m={m} must be >= 1")
    if m > _COUNT_MAX:
        raise ConfigError(f"repetition count m={m} must be <= 2^63 - 1")


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
# indent=2, sort_keys=True) plus a newline would write for that object,
# joined from the fragments below. load_dataset reads a file in exactly that
# layout from its bytes (_dataset_from_bytes) and any other JSON layout and
# entry order through json and dataset_from_dict; both give the same dataset,
# or the same error, for every file.
# ---------------------------------------------------------------------------

# The file is _HEAD, the entries joined by _SEP, then _M, m, _N, n, _END; an
# entry is _COUNT, count, _OUTCOME, outcome, _SETTING, setting, _CLOSE.
_HEAD = '{\n  "counts": [\n'
_COUNT = '    {\n      "count": '
_OUTCOME = ',\n      "outcome": "'
_SETTING = '",\n      "setting": "'
_CLOSE = '"\n    }'
_SEP = ",\n"
_M = '\n  ],\n  "m": '
_N = ',\n  "n": '
_END = "\n}\n"
# m and n as save_dataset writes them: no sign and no leading zero. A 19-digit
# m above 2^63 - 1 matches, and _dataset_from_bytes leaves it to json's error.
_TAIL = re.compile(
    re.escape(_M.encode()) + rb"([1-9][0-9]{0,18})" + re.escape(_N.encode())
    + rb"([1-9][0-9]?)" + re.escape(_END.encode())
)


def dataset_from_dict(obj) -> Dataset:
    n = states.require_header(obj, ("n", "m", "counts"))
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise FormatError("m", f"expected a positive integer, got {m!r}")
    if m > _COUNT_MAX:
        raise FormatError("m", f"{m} does not fit in a 64-bit count")
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
    cells, values = array("q"), array("q")  # 8 bytes a cell, not an int object
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
    cells, values = np.frombuffer(cells, dtype=np.int64), np.frombuffer(values, dtype=np.int64)
    _check_duplicates(entries, cells)
    return Dataset(n=n, m=m, counts=_count_table(cells, values, n, m))


def _count_table(cells: np.ndarray, values: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (3^n, 2^n) table of the cells, or the FormatError of the first setting not summing to m.

    Fewer cells than settings leave a setting at or below len(cells) unnamed,
    so the first bad setting is one of the first len(cells) + 1, and only
    those are summed: nothing of size 3^n is built for a list that misses a
    setting. A later setting adds to the last slot, which is reported only
    when the settings before it take every cell, so that none is later.
    """
    width = 2**n
    sums = np.zeros(min(3**n, len(cells) + 1), dtype=_sum_dtype(values, len(values)))
    np.add.at(sums, np.minimum(cells // width, len(sums) - 1), values.astype(sums.dtype, copy=False))
    try:
        _check_row_sums(sums, m, n)
    except ValueError as exc:
        raise FormatError("counts", str(exc)) from None
    counts = np.zeros(3**n * width, dtype=np.int64)
    counts[cells] = values
    return counts.reshape(3**n, width)


def _entry_cell(i: int, entry, n: int) -> tuple[int, int, int]:
    """(setting index, outcome index, count) of entry i, or its FormatError."""
    where = f"counts[{i}]"
    if not isinstance(entry, dict):
        raise FormatError(where, "expected an object")
    for key in ("setting", "outcome", "count"):
        if key not in entry:
            raise FormatError(f"{where}.{key}", "missing key")
    indices = []
    for key, index in (("setting", pauli.setting_index), ("outcome", pauli.outcome_index)):
        text = entry[key]
        if not isinstance(text, str):
            raise FormatError(f"{where}.{key}", "expected a string")
        try:
            indices.append(index(text))
        except ValueError as exc:
            raise FormatError(f"{where}.{key}", str(exc)) from exc
        if len(text) != n:
            raise FormatError(f"{where}.{key}", f"length {len(text)} != n={n}")
    c = entry["count"]
    if not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise FormatError(f"{where}.count", f"expected a non-negative integer, got {c!r}")
    if c > _COUNT_MAX:
        raise FormatError(f"{where}.count", f"{c} does not fit in a 64-bit count")
    return (*indices, c)


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
    # Entry text is head[count] + mid[outcome] + tail[setting], with the
    # separator in tail: three small tables, one gather and one join.
    n = dataset.n
    settings, outcomes = np.nonzero(dataset.counts)
    values, which = np.unique(dataset.counts[settings, outcomes], return_inverse=True)
    parts = np.empty((settings.size, 3), dtype=object)
    parts[:, 0] = np.fromiter((f"{_COUNT}{c}{_OUTCOME}" for c in values.tolist()), object)[which]
    parts[:, 1] = np.fromiter((f"{r}{_SETTING}" for r in pauli.all_outcomes(n)), object)[outcomes]
    parts[:, 2] = np.fromiter((f"{a}{_CLOSE}{_SEP}" for a in pauli.all_settings(n)),
                              object)[settings]
    parts[-1, 2] = parts[-1, 2][:-len(_SEP)]  # no separator after the last entry
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEAD)
        fh.write("".join(parts.ravel().tolist()))
        fh.write(f"{_M}{dataset.m}{_N}{n}{_END}")


def load_dataset(path) -> Dataset:
    """The dataset in a file: from its bytes in save_dataset's layout, else through json."""
    with open(path, "rb") as fh:
        dataset = _dataset_from_bytes(fh.read())
    return dataset if dataset is not None else dataset_from_dict(states.read_json(path))


def _dataset_from_bytes(data: bytes) -> Dataset | None:
    """The dataset in ``data`` if it is exactly save_dataset's layout, else None.

    Every byte is checked against the writer's fragments, the count digits and
    the sign and axis characters, so json would decode the same object. None,
    which the caller reads through json, is returned for an m above 2^63 - 1, a
    short list, an unsorted or repeated cell or a zero count; a wrong row sum
    fails in ``_count_table``.
    """
    t = data.rfind(_M.encode())
    tail = _TAIL.fullmatch(data, t) if t >= 0 else None
    if tail is None or not data.startswith((_HEAD + _COUNT).encode()):
        return None
    m, n = int(tail[1]), int(tail[2])
    buf = np.frombuffer(data, dtype=np.uint8)
    braces = buf[:t] == ord("{")
    # Checked before anything of size 3^n is built, as dataset_from_dict does.
    if m > _COUNT_MAX or n > pauli.MAX_QUBITS or np.count_nonzero(braces) - 1 < 3**n:
        return None
    # Entry i starts at starts[i] and its count's digits end at q[i]. The rest
    # of the entry, from q[i], is _OUTCOME, outcome, _SETTING, setting, _CLOSE.
    starts = np.flatnonzero(braces)[1:] - _COUNT.index("{")
    del braces
    at_setting = len(_OUTCOME) + n + len(_SETTING)
    q = np.append(starts[1:] - len(_SEP), t) - (at_setting + n + len(_CLOSE))
    digits = q - starts - len(_COUNT)
    if digits.min() < 1 or digits.max() > 19:
        return None
    if not _holds(_rows(buf, starts[1:] - len(_SEP), len(_SEP + _COUNT)), _SEP + _COUNT):
        return None
    rest = _rows(buf, q, at_setting + n + len(_CLOSE))
    if not (_holds(rest[:, :len(_OUTCOME)], _OUTCOME)
            and _holds(rest[:, at_setting - len(_SETTING):at_setting], _SETTING)
            and _holds(rest[:, at_setting + n:], _CLOSE)):
        return None
    outcomes = _numerals(rest[:, len(_OUTCOME):len(_OUTCOME) + n], pauli.SIGN_CHARS)
    settings = _numerals(rest[:, at_setting:at_setting + n], pauli.AXIS_CHARS)
    del rest
    # Counts are read right-aligned in the widest count's width, padded with "0".
    width = int(digits.max())
    padded = _rows(buf, q - width, width)
    padded[np.arange(width) < (width - digits)[:, None]] = ord("0")
    values = _numerals(padded, "0123456789")
    # A leading "0" is a zero count or not a JSON number.
    if (values is None or outcomes is None or settings is None or values.max() > _COUNT_MAX
            or (buf[q - digits] == ord("0")).any()):
        return None
    cells = settings.astype(np.int64) * 2**n + outcomes.astype(np.int64)
    if (np.diff(cells) <= 0).any():
        return None
    return Dataset(n=n, m=m, counts=_count_table(cells, values.astype(np.int64), n, m))


def _rows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """A new (len(at), width) array whose row i holds buf[at[i]:at[i] + width]."""
    windows = np.ndarray((buf.size - width + 1, width), np.uint8, buf, strides=(1, 1))
    return windows[at]


def _holds(rows: np.ndarray, text: str) -> bool:
    """Whether every row of bytes is ``text``."""
    return bool((rows == np.frombuffer(text.encode(), np.uint8)).all())


def _numerals(rows: np.ndarray, chars: str) -> np.ndarray | None:
    """The number each row of bytes spells with the digits ``chars``, or None if a byte is not one."""
    table = np.full(256, len(chars), dtype=np.uint8)
    table[np.frombuffer(chars.encode(), np.uint8)] = np.arange(len(chars))
    digits = table[rows]
    if (digits == len(chars)).any():
        return None
    value = np.zeros(len(rows), dtype=np.uint64)
    for column in digits.T:
        value = value * len(chars) + column
    return value
