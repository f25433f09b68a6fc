"""Command-line front end: simulation, estimation, and study CSVs.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 data-format or
data-invariant violation. All commands are deterministic given --seed;
re-running an invocation produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, measurement, rankpen, states, studies
from .errors import ConfigError, FormatError

RANK_STUDY_HEADER = ["d", "mode", "frequency", "mean_nu", "mean_error"]
ERROR_STUDY_HEADER = ["d", "m", "mean_error", "max_error"]
SPECTRUM_HEADER = ["index", "singular_value", "threshold"]


def _parse_int_list(text: str, flag: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{flag}: empty sweep")
    try:
        return [int(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _load_true_state(path) -> np.ndarray:
    """A state JSON file that must hold a density matrix (exit 4 otherwise)."""
    matrix = states.load_state(path)
    try:
        return states.require_density(matrix)
    except ValueError as exc:
        raise FormatError("", f"state file {path!r}: {exc}") from exc


def _build_state(args) -> np.ndarray:
    """State matrix from --state/--d/--p, or from a state JSON file."""
    name = args.state
    if name == "diag":
        if args.d is None:
            raise ConfigError("--state diag needs --d")
        return states.diag_state(args.n, args.d)
    if name == "ghz":
        return states.ghz(args.n)
    if name == "w":
        return states.w_state(args.n)
    if name == "mixture":
        if args.d is None or args.p is None:
            raise ConfigError("--state mixture needs --d and --p")
        return states.mixture(args.n, args.d, args.p)
    # anything else is a path to a state JSON file
    matrix = _load_true_state(name)
    if states.qubit_count(matrix) != args.n:
        raise ConfigError(
            f"state file {name!r} has n={states.qubit_count(matrix)}, expected --n {args.n}"
        )
    return matrix


def _calibrated(args):
    """(mode, dec, nu, details) of the dataset's penalty, from ``calibration.calibrate``.

    The penalty and, for oracle, the true-state file are checked before the
    dataset is read.
    """
    choice = calibration.PenaltyChoice.parse(
        args.penalty, theta=args.theta, eps=args.eps, reps=args.reps
    )
    rho_true = None
    if choice.mode == "oracle":
        if args.state is None:
            raise ConfigError("--penalty oracle needs --state <state JSON file>")
        rho_true = _load_true_state(args.state)
    dec, [(nu, details)], _op_error, _frob_error = calibration.calibrate(
        measurement.load_dataset(args.dataset), [choice], args.seed, rho_true)
    return choice.mode, dec, nu, details


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(obj) -> str:
    """Strict JSON text, made before any output file: NaN or inf raises ConfigError."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ConfigError("an output value is not finite, which JSON cannot hold") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    rho = _build_state(args)
    dataset = measurement.simulate_dataset(rho, args.m, args.seed)
    measurement.save_dataset(args.out, dataset)
    nonzero = int(np.count_nonzero(dataset.counts))
    print(
        f"wrote {args.out}: n={dataset.n} m={dataset.m} "
        f"settings={3**dataset.n} nonzero_cells={nonzero}"
    )
    return 0


def cmd_estimate(args) -> int:
    mode, dec, nu = _calibrated(args)[:3]
    fit = rankpen.penalized_fit(dec, nu)
    text = _json_text({
        "nu": float(nu),
        "k_hat": fit.k_hat,
        "singular_values": dec.singular_values.tolist(),
        "objective": fit.objective.tolist(),
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "fit.json").write_text(text, encoding="utf-8")
    states.save_state(out_dir / "estimate_state.json", fit.estimate)
    states.save_state(out_dir / "physical_state.json", fit.physical_estimate)
    print(f"penalty mode={mode} nu={nu!r} threshold={float(np.sqrt(nu))!r}")
    print(f"k_hat={fit.k_hat}")
    print("singular_values=" + " ".join(repr(float(v)) for v in dec.singular_values))
    print(f"wrote {out_dir / 'fit.json'}")
    return 0


def cmd_rank_study(args) -> int:
    d_values = _parse_int_list(args.d, "--d")
    modes = [part.strip() for part in args.penalty.split(",") if part.strip()]
    _records, aggregates = studies.rank_study(
        args.n,
        args.m,
        d_values,
        modes=modes,
        reps=args.reps,
        seed=args.seed,
        theta=args.theta,
        eps=args.eps,
        bootstrap_reps=args.bootstrap_reps,
    )
    rows = [[a[key] for key in RANK_STUDY_HEADER] for a in aggregates]
    _write_csv(args.out, RANK_STUDY_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows ({len(d_values)} ranks x {len(modes)} modes)")
    return 0


def cmd_error_study(args) -> int:
    d_values = _parse_int_list(args.d, "--d")
    m_values = _parse_int_list(args.m, "--m")
    _records, aggregates = studies.error_study(
        args.n, d_values, m_values, reps=args.reps, seed=args.seed
    )
    rows = [[a[key] for key in ERROR_STUDY_HEADER] for a in aggregates]
    _write_csv(args.out, ERROR_STUDY_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_spectrum(args) -> int:
    _mode, dec, nu = _calibrated(args)[:3]
    threshold = float(np.sqrt(nu))
    rows = [
        [index, value, threshold]
        for index, value in enumerate(dec.singular_values[::-1].tolist(), start=1)
    ]
    above = rankpen.select_rank_threshold(dec, nu)
    _write_csv(args.out, SPECTRUM_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} singular values, {above} above threshold")
    return 0


def cmd_calibrate(args) -> int:
    mode, _dec, nu, details = _calibrated(args)
    text = _json_text({"mode": mode, "value": float(nu), "details": details})
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: nu={nu!r}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """The --seed value, a non-negative integer, checked as the command line is parsed."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_shared_flags(sub, reps: str) -> None:
    """--theta, --eps, --reps and --seed, after --penalty; ``reps`` says what --reps counts."""
    sub.add_argument("--theta", type=float, default=0.0, help="theory-penalty theta (default 0)")
    sub.add_argument("--eps", type=float, default=1.0, help="theory-penalty eps in (0, 1] (default 1)")
    sub.add_argument("--reps", type=int, default=20, help=f"{reps} repetitions (default 20)")
    sub.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")


def _add_dataset_flags(sub) -> None:
    """The dataset, --state and penalty flags of the commands that read a dataset."""
    sub.add_argument("dataset", help="dataset JSON file")
    sub.add_argument("--state", default=None, help="true-state JSON file (required for --penalty oracle)")
    sub.add_argument(
        "--penalty",
        default="theory",
        help=f"{calibration.PENALTY_GRAMMAR} (default theory)",
    )
    _add_shared_flags(sub, "bootstrap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtomo",
        description=(
            "Reconstruct an n-qubit state from repeated Pauli measurements and "
            "estimate its rank by penalized spectral thresholding."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "simulate",
        help="simulate a measurement dataset and write it as JSON",
    )
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--m", type=int, required=True, help="repetitions per setting")
    p.add_argument(
        "--state",
        default="diag",
        help="diag | ghz | w | mixture | path to a state JSON file (default diag)",
    )
    p.add_argument("--d", type=int, default=None, help="rank of the diag/mixture state")
    p.add_argument("--p", type=float, default=None, help="mixture weight in [0, 1]")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output dataset JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "estimate",
        help="invert a dataset and run the rank-penalized fit",
        epilog=(
            "writes fit.json (nu, k_hat, singular_values, objective), "
            "estimate_state.json and physical_state.json into --out"
        ),
    )
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "rank-study",
        help="frequency of correct rank selection over simulated repetitions",
        epilog=f"CSV columns: {','.join(RANK_STUDY_HEADER)}",
    )
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--m", type=int, required=True, help="repetitions per setting")
    p.add_argument("--d", required=True, help="comma-separated ranks, e.g. 1,2,3,4,5")
    p.add_argument(
        "--penalty",
        default="oracle,theory",
        help=f"comma-separated penalty tokens, each {calibration.PENALTY_GRAMMAR} "
        "(default oracle,theory)",
    )
    _add_shared_flags(p, "study")
    p.add_argument("--bootstrap-reps", type=int, default=20, help="bootstrap repetitions (default 20)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_rank_study)

    p = sub.add_parser(
        "error-study",
        help="operator-norm error of the linear estimator across d and m",
        epilog=f"CSV columns: {','.join(ERROR_STUDY_HEADER)}",
    )
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--m", required=True, help="comma-separated repetition counts")
    p.add_argument("--d", required=True, help="comma-separated ranks")
    p.add_argument("--reps", type=int, default=20, help="study repetitions (default 20)")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_error_study)

    p = sub.add_parser(
        "spectrum",
        help="singular values of the linear estimate next to the threshold",
        epilog=f"CSV columns: {','.join(SPECTRUM_HEADER)} "
        "(singular values in increasing order)",
    )
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "calibrate",
        help="evaluate a penalty choice on a dataset and report it as JSON",
    )
    _add_dataset_flags(p)
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
