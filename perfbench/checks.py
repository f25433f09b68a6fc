"""Checks on the files the qtomo commands write, in plain numpy.

Nothing here imports qtomo: each check re-derives what it needs from the
documented file formats, so a fault in the program's own helpers cannot hide
a fault in its output. Every check returns a list of error strings; an empty
list means the file passed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np

TOL = 1e-9


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_dataset(path, n: int, m: int) -> tuple[list[str], int]:
    """Every one of the 3^n settings has outcome counts summing to m.

    Returns the errors and the number of count entries in the file.
    """
    obj = _load(path)
    if obj.get("n") != n or obj.get("m") != m:
        return [f"{path}: header n={obj.get('n')} m={obj.get('m')}, expected n={n} m={m}"], 0
    sums: Counter = Counter()
    for entry in obj["counts"]:
        sums[entry["setting"]] += entry["count"]
    errors = []
    if len(sums) != 3**n or any(len(a) != n or set(a) - set("xyz") for a in sums):
        errors.append(f"{path}: {len(sums)} distinct settings, expected 3^{n}={3**n}")
    bad = [a for a, total in sums.items() if total != m]
    if bad:
        errors.append(f"{path}: setting {bad[0]!r} sums to {sums[bad[0]]}, expected m={m}")
    return errors, len(obj["counts"])


def check_fit(path, n: int) -> list[str]:
    """k_hat is the number of singular values >= sqrt(nu); objective has 2^n + 1 entries."""
    fit = _load(path)
    values = np.asarray(fit["singular_values"], dtype=float)
    errors = []
    expected = int(np.count_nonzero(values >= math.sqrt(fit["nu"])))
    if fit["k_hat"] != expected:
        errors.append(f"{path}: k_hat={fit['k_hat']}, but {expected} singular values reach sqrt(nu)")
    if values.size != 2**n:
        errors.append(f"{path}: {values.size} singular values, expected 2^{n}")
    if len(fit["objective"]) != 2**n + 1:
        errors.append(f"{path}: objective has {len(fit['objective'])} entries, expected 2^{n}+1")
    return errors


def check_density(path, n: int) -> list[str]:
    """The state file holds a Hermitian, unit-trace, positive semidefinite 2^n x 2^n matrix."""
    obj = _load(path)
    rho = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if rho.shape != (2**n, 2**n):
        return [f"{path}: shape {rho.shape}, expected {(2**n, 2**n)}"]
    errors = []
    asym = float(np.abs(rho - rho.conj().T).max())
    if asym > TOL:
        errors.append(f"{path}: not Hermitian (max |rho - rho^H| = {asym:.3e})")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > TOL:
        errors.append(f"{path}: trace {trace:.12g}, expected 1")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -TOL:
        errors.append(f"{path}: not PSD (min eigenvalue {low:.3e})")
    return errors


def theory_nu(n: int, m: int) -> float:
    """The paper's theory penalty at theta = 0, eps = 1: 32 (4/3)^n n ln 2 / m."""
    return 32.0 * (4.0 / 3.0) ** n * n * math.log(2.0) / m


def check_rank_study(path, n: int, m: int, d_values, modes) -> list[str]:
    """One row per (d, mode); theory rows carry the closed-form penalty."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    expected = [(str(d), mode) for d in d_values for mode in modes]
    if [(r["d"], r["mode"]) for r in rows] != expected:
        errors.append(f"{path}: rows {[(r['d'], r['mode']) for r in rows]}, expected {expected}")
    nu = theory_nu(n, m)
    for r in rows:
        if not 0.0 <= float(r["frequency"]) <= 1.0:
            errors.append(f"{path}: d={r['d']} {r['mode']} frequency {r['frequency']} outside [0, 1]")
        if r["mode"] == "theory" and not math.isclose(float(r["mean_nu"]), nu, rel_tol=1e-12):
            errors.append(f"{path}: d={r['d']} theory mean_nu {r['mean_nu']}, expected {nu!r}")
    return errors
