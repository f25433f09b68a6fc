"""Rank-penalized reconstruction of n-qubit states from Pauli measurement data.

Pipeline: simulate (or load) per-setting outcome counts, invert the
empirical frequencies in closed form into a Hermitian linear estimate, then
select a rank by penalized spectral thresholding and project the truncated
estimate onto physical states. See the command line (``qtomo --help``) for
the experiment front end.
"""

from .calibration import (
    PenaltyChoice,
    calibrate,
    nu_theory,
    resolve_penalty,
)
from .errors import ConfigError, FormatError
from .inversion import (
    hoeffding_radius,
    invert_coefficients,
    linear_estimator,
    trace_norm_factor,
    variance_bound,
)
from .measurement import (
    Dataset,
    EmpiricalFrequencies,
    draw_dataset,
    empirical_frequencies,
    load_dataset,
    outcome_law,
    probability_table,
    save_dataset,
    simulate_dataset,
)
from .rankpen import (
    RankPenalizedFit,
    SpectralDecomposition,
    penalized_fit,
    select_rank_threshold,
    spectral,
    penalized_error_bound,
    truncate,
)
from .states import (
    diag_state,
    frobenius_norm,
    ghz,
    load_state,
    mixture,
    nearest_density,
    operator_norm,
    pauli_assemble,
    pauli_expand,
    project_simplex,
    save_state,
    w_state,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "EmpiricalFrequencies",
    "FormatError",
    "PenaltyChoice",
    "RankPenalizedFit",
    "SpectralDecomposition",
    "calibrate",
    "diag_state",
    "draw_dataset",
    "empirical_frequencies",
    "frobenius_norm",
    "ghz",
    "hoeffding_radius",
    "invert_coefficients",
    "linear_estimator",
    "load_dataset",
    "load_state",
    "mixture",
    "nearest_density",
    "nu_theory",
    "operator_norm",
    "outcome_law",
    "pauli_assemble",
    "pauli_expand",
    "penalized_fit",
    "probability_table",
    "project_simplex",
    "resolve_penalty",
    "save_dataset",
    "save_state",
    "select_rank_threshold",
    "simulate_dataset",
    "spectral",
    "penalized_error_bound",
    "trace_norm_factor",
    "truncate",
    "variance_bound",
    "w_state",
]
