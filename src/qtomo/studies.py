"""Monte-Carlo studies behind the CSV outputs of the command line.

Every (parameter point, repetition) draws from its own ``measurement.stream``
of the user seed, so records are reproducible and independent of execution
order; repetitions could run concurrently without changing any output.
Within the rank study all penalty modes are evaluated on the same simulated
dataset, so mode comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import calibration, inversion, measurement, rankpen, states
from .errors import ConfigError


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

    For each d, draws ``reps`` datasets from the outcome law of the rank-d
    diagonal state (built once per d), inverts and decomposes each once, and
    selects a rank per penalty mode from that decomposition. Each mode is a
    ``PenaltyChoice.parse`` token, reported as given; all are parsed before
    the first simulation. Aggregates report, per (d, mode): the selection
    frequency, the mean penalty, and the mean operator-norm error of the
    linear estimate.
    """
    if not d_values:
        raise ConfigError("empty d sweep")
    if not modes:
        raise ConfigError("empty penalty mode list")
    if reps < 1:
        raise ConfigError(f"reps={reps} must be >= 1")
    choices = [
        (mode, calibration.PenaltyChoice.parse(
            mode, theta=theta, eps=eps, reps=bootstrap_reps))
        for mode in modes
    ]
    records: list[StudyRecord] = []
    for d in d_values:
        rho = states.diag_state(n, d)
        law = measurement.outcome_law(rho)
        for rep in range(reps):
            ds = measurement.draw_dataset(law, m, measurement.stream(seed, 0, d, rep))
            est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
            dec = rankpen.spectral(est)
            diff = est - rho
            op_error = states.operator_norm(diff)
            frob_error = states.frobenius_norm(diff)
            for mode, choice in choices:
                nu, _details = calibration.resolve_penalty(
                    choice, dec, m, measurement.stream(seed, 1, d, rep), rho_true=rho
                )
                k_hat = rankpen.select_rank_threshold(dec, nu)
                records.append(
                    StudyRecord(
                        d=d, m=m, mode=mode, rep=rep, k_hat=k_hat, nu=nu,
                        op_error=op_error, frob_error=frob_error,
                    )
                )
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
    if not d_values or not m_values:
        raise ConfigError("empty sweep")
    if reps < 1:
        raise ConfigError(f"reps={reps} must be >= 1")
    records: list[StudyRecord] = []
    for d in d_values:
        rho = states.diag_state(n, d)
        law = measurement.outcome_law(rho)
        for m in m_values:
            for rep in range(reps):
                ds = measurement.draw_dataset(law, m, measurement.stream(seed, 0, d, m, rep))
                est = inversion.linear_estimator(
                    measurement.empirical_frequencies(ds)
                )
                diff = est - rho
                records.append(
                    StudyRecord(
                        d=d, m=m, mode="none", rep=rep, k_hat=-1, nu=float("nan"),
                        op_error=states.operator_norm(diff),
                        frob_error=states.frobenius_norm(diff),
                    )
                )
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
