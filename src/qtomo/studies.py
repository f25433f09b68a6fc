"""Monte-Carlo studies behind the CSV outputs of the command line.

Both studies aggregate the records of one sweep, which checks every rank,
sample size and the repetition count before its first draw. Each (d, m, rep)
point is drawn once and goes through ``calibration.calibrate``, the fit path
of the command line: it is inverted and scored once, and, given penalty
modes, its estimate is decomposed once and every mode selects a rank from
that decomposition, so mode comparisons are paired. The oracle reads the
operator error of the point's score. Each point draws from its own
``measurement.stream`` of the user seed, so records are reproducible and
independent of execution order. The rank study keys its dataset (0, d, rep)
and its bootstrap (1, d, rep); the error study keys its dataset (0, d, m, rep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import calibration, measurement, rankpen, states
from .errors import ConfigError, integer


@dataclass
class StudyRecord:
    """One repetition of one parameter point."""

    d: int
    m: int
    mode: str
    rep: int
    k_hat: int
    nu: float
    op_error: float
    frob_error: float


def _sweep(
    n: int, d_values: Sequence[int], m_values: Sequence[int], reps: int, seed: int,
    key: Callable[[int, int, int], tuple], modes: Sequence[str] = (),
    choices: Sequence[calibration.PenaltyChoice] = (),
) -> list[StudyRecord]:
    """The records of every (d, m, rep, mode), in that order.

    Point (d, m, rep) draws its dataset from ``stream(seed, 0, *key(d, m, rep))``
    and its bootstrap from ``stream(seed, 1, *key(d, m, rep))``. ``modes``
    names each of ``choices`` in the records; without any choice, a point
    gives one record of mode "none" with k_hat -1 and nu NaN.
    """
    if not d_values or not m_values:
        raise ConfigError("empty sweep")
    if integer(reps, "reps") < 1:
        raise ConfigError(f"reps={reps} must be >= 1")
    rhos = [states.diag_state(n, d) for d in d_values]  # 2^n x 2^n each, no 6^n table yet
    for m in m_values:
        measurement.check_repetitions(m)
    records: list[StudyRecord] = []
    for d, rho in zip(d_values, rhos):
        law = measurement.outcome_law(rho)
        for m in m_values:
            for rep in range(reps):
                stream_key = key(d, m, rep)
                dec, penalties, op_error, frob_error = calibration.calibrate(
                    measurement.draw_dataset(law, m, measurement.stream(seed, 0, *stream_key)),
                    choices, measurement.stream(seed, 1, *stream_key), rho)
                shared = dict(d=d, m=m, rep=rep, op_error=op_error, frob_error=frob_error)
                if not choices:
                    records.append(StudyRecord(mode="none", k_hat=-1, nu=float("nan"), **shared))
                for mode, (nu, _details) in zip(modes, penalties):
                    k_hat = rankpen.select_rank_threshold(dec, nu)
                    records.append(StudyRecord(mode=mode, k_hat=k_hat, nu=nu, **shared))
                del dec, penalties  # freed before the next point's bootstrap, the sweep's memory peak
    return records


def rank_study(
    n: int,
    m: int,
    d_values: Sequence[int],
    modes: Sequence[str] = ("oracle", "theory"),
    reps: int = 20,
    seed: int = 0,
    theta: float = 0.0,
    eps: float = 1.0,
    bootstrap_reps: int = 20,
) -> tuple[list[StudyRecord], list[dict]]:
    """Frequency of recovering the true rank of diagonal test states.

    Each mode is a ``PenaltyChoice.parse`` token, reported as given; all are
    parsed before the first simulation. Aggregates report, per (d, mode): the
    selection frequency, the mean penalty, and the mean operator-norm error of
    the linear estimate.
    """
    if not modes:
        raise ConfigError("empty penalty mode list")
    choices = [calibration.PenaltyChoice.parse(mode, theta=theta, eps=eps, reps=bootstrap_reps)
               for mode in modes]
    records = _sweep(n, d_values, [m], reps, seed, lambda d, m, rep: (d, rep), modes, choices)
    aggregates = []
    for d in d_values:
        for mode in modes:
            rows = [r for r in records if r.d == d and r.mode == mode]
            aggregates.append(
                {
                    "d": d,
                    "mode": mode,
                    "frequency": float(np.mean([r.k_hat == r.d for r in rows])),
                    "mean_nu": float(np.mean([r.nu for r in rows])),
                    "mean_error": float(np.mean([r.op_error for r in rows])),
                }
            )
    return records, aggregates


def error_study(
    n: int,
    d_values: Sequence[int],
    m_values: Sequence[int],
    reps: int = 20,
    seed: int = 0,
) -> tuple[list[StudyRecord], list[dict]]:
    """Operator-norm error of the linear estimator across ranks and sample sizes."""
    records = _sweep(n, d_values, m_values, reps, seed, lambda d, m, rep: (d, m, rep))
    aggregates = []
    for d in d_values:
        for m in m_values:
            errs = [r.op_error for r in records if r.d == d and r.m == m]
            aggregates.append(
                {
                    "d": d,
                    "m": m,
                    "mean_error": float(np.mean(errs)),
                    "max_error": float(np.max(errs)),
                }
            )
    return records, aggregates
