"""Acceptance suite: one check per validation criterion, at its stated
tolerance, printing one pass/fail line each. Run with

    pytest tests/test_acceptance.py -v -s

Two checks test a probabilistic promise of the method at a point where the
method makes it, against references that share no code with the fast paths:

* criterion 4, theory-penalty half: with eps = (1 - 0.9) / 2 the two-sided
  operator-norm guarantee holds with probability >= 0.9, and on that event
  Weyl's inequality gives correct selection once lambda_d >= 2 sqrt(nu).
  The check picks the smallest m where that holds (m = 9335 at n = 4,
  d <= 2) and requires the 0.9 selection frequency there. At m = 100 the
  penalty overshoots every reachable eigenvalue (threshold 1.67); that
  frequency is reported, not asserted;
* criterion 5: every oracle penalty nu1 equals the squared spectral norm of
  the error of a brute-force least-squares estimate (projector traces and a
  pseudo-inverse, ``conftest.ReferenceTomography``), and the maximum over 20
  runs lies in the central 99 % of that statistic under an independent
  simulation of the same model.
"""

import ast
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ReferenceTomography,
    label_degrees,
    maximally_mixed,
    random_hermitian,
    reference_diag_state,
    reference_scan_rank,
    reference_sq_op_norm,
)
from qtomo import (
    _kernels,
    calibration,
    inversion,
    measurement,
    pauli,
    rankpen,
    states,
    studies,
)
from qtomo.cli import main as cli_main


def _check(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _example_states(n: int):
    out = [(f"diag d={d}", states.diag_state(n, d)) for d in range(1, 2**n + 1)]
    if n >= 2:
        out.append(("ghz", states.ghz(n)))
        out.append(("w", states.w_state(n)))
        out.append(("mixture d=3 p=0.2", states.mixture(n, 3, 0.2)))
    return out


def test_criterion_01_exact_inversion_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        ref = ReferenceTomography(n)
        for _name, rho in _example_states(n):
            # exact frequencies from the package's forward map and from the
            # reference's projector traces must both invert to the state
            for freqs in (measurement.EmpiricalFrequencies(n, measurement.probability_table(rho)),
                          measurement.EmpiricalFrequencies(n, ref.probabilities(rho))):
                est = inversion.linear_estimator(freqs)
                worst = max(worst, float(np.linalg.norm(est - rho)))
    elapsed = time.perf_counter() - t0
    _check(
        1,
        "exact inversion identity",
        worst < 1e-10 and elapsed < 10.0,
        f"worst Frobenius dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gram_structure():
    # Column b of the Gram matrix is the adjoint kernel applied to the forward
    # kernel's image of the unit vector e_b. Every entry is an integer below
    # 2^53, so the float sums are exact and any deviation is an error.
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        gram = np.stack(
            [_kernels.design_adjoint_sums(_kernels.table_from_coeffs(e_b, n), n)
             for e_b in np.eye(4**n)],
            axis=1,
        )
        design = ReferenceTomography(n).design
        expected = np.diag(3.0 ** label_degrees(n) * 2**n)
        worst = max(worst, np.abs(gram - design.T @ design).max(),
                    np.abs(gram - expected).max())
    elapsed = time.perf_counter() - t0
    _check(2, "gram structure", worst == 0.0 and elapsed < 5.0,
           f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_probability_path_equivalence():
    # the kernel route (Pauli coefficients through the design) against
    # Tr(rho P_r^a) with Kronecker-product projectors
    rng = np.random.default_rng(2025)
    worst = 0.0
    for n, count in ((1, 17), (2, 17), (3, 16)):
        ref = ReferenceTomography(n)
        for _ in range(count):
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = g @ g.conj().T
            rho /= rho.trace().real
            dev = np.abs(measurement.probability_table(rho) - ref.probabilities(rho)).max()
            worst = max(worst, dev)
    _check(3, "probability path equivalence", worst < 1e-12, f"worst dev {worst:.2e}")


def test_reference_imports_no_qtomo():
    # criteria 1-3 and 5 rely on the conftest reference sharing no code with
    # the package it checks
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            imported.append(node.value)  # importlib.import_module("qtomo...")
    assert not [name for name in imported if name.split(".")[0] == "qtomo"]


@pytest.fixture(scope="module")
def rank_study_aggregates():
    t0 = time.perf_counter()
    _records, aggregates = studies.rank_study(
        4, 100, [1, 2, 3, 4, 5], modes=("oracle", "theory"), reps=20, seed=0,
        theta=0.0, eps=1.0,
    )
    return aggregates, time.perf_counter() - t0


def _frequency(aggregates, d, mode):
    return next(a["frequency"] for a in aggregates if a["d"] == d and a["mode"] == mode)


def test_criterion_04_rank_selection_oracle(rank_study_aggregates):
    aggregates, elapsed = rank_study_aggregates
    band = 1.96 * np.sqrt(0.9 * 0.1 / 20)
    freqs = {d: _frequency(aggregates, d, "oracle") for d in (1, 2, 3, 4)}
    ok = all(f >= 0.9 - band for f in freqs.values()) and elapsed < 300.0
    _check(4, "rank selection, oracle penalty", ok, f"freqs {freqs}, {elapsed:.0f}s")


def test_criterion_04_rank_selection_theory(rank_study_aggregates):
    n, ds, target, reps = 4, (1, 2), 0.9, 20
    band = 1.96 * np.sqrt(target * (1 - target) / reps)
    # The radius bounds the operator-norm error one-sidedly with probability
    # >= 1 - eps, so two-sidedly with >= 1 - 2 eps; at theta = 0 the theory
    # penalty is that radius squared. On the event ||est - rho|| < sqrt(nu),
    # Weyl's inequality keeps exactly the top d singular values at or above
    # sqrt(nu) once lambda_d >= 2 sqrt(nu): the smallest such m is where the
    # method promises rank selection with probability >= target. m comes from
    # the radius, not from nu_theory, so an error in the penalty is not
    # absorbed into a larger m.
    eps = (1 - target) / 2
    lam_min = min(1.0 / d for d in ds)
    m = next(
        m for m in itertools.count(1)
        if 2 * inversion.hoeffding_radius(n, m, eps) <= lam_min
    )
    _records, aggregates = studies.rank_study(
        n, m, list(ds), modes=("theory",), reps=reps, seed=0, theta=0.0, eps=eps,
    )
    freqs = {d: _frequency(aggregates, d, "theory") for d in ds}
    ok = all(f >= target - band for f in freqs.values())
    at_100, _elapsed = rank_study_aggregates
    freqs_100 = {d: _frequency(at_100, d, "theory") for d in ds}
    _check(
        4,
        "rank selection, theory penalty",
        ok,
        f"m={m} eps={eps:.2f}: freqs {freqs}, threshold "
        f"{math.sqrt(calibration.nu_theory(n, m, 0.0, eps)):.3f}; at m=100 eps=1: "
        f"freqs {freqs_100}, threshold "
        f"{math.sqrt(calibration.nu_theory(n, 100)):.2f}",
    )


def test_criterion_05_oracle_penalty_magnitude():
    n, m, d, reps = 4, 50, 6, 20
    t0 = time.perf_counter()
    ref = ReferenceTomography(n)
    ref_rho = reference_diag_state(n, d)
    rho = states.diag_state(n, d)
    oracle = calibration.PenaltyChoice("oracle")
    nus, ref_nus = [], []
    for rep in range(reps):
        ds = measurement.simulate_dataset(
            rho, m, np.random.SeedSequence(0, spawn_key=(0, d, rep))
        )
        _dec, [(nu, _details)], _op_error, _frob_error = calibration.calibrate(ds, [oracle], 0, rho)
        nus.append(nu)
        ref_nus.append(reference_sq_op_norm(ref.estimate(ds.counts / m) - ref_rho))
    matches = np.allclose(nus, ref_nus, rtol=1e-9, atol=0.0)
    worst = float(np.max(np.abs(np.array(nus) / np.array(ref_nus) - 1.0)))
    # Central 99 % of the max-of-20 statistic, simulated from the reference
    # model alone at a fixed seed.
    rng = np.random.default_rng(1206_1711)
    ref_max = [
        reference_sq_op_norm(
            ref.estimate(ref.sample_counts(ref_rho, m, reps, rng) / m) - ref_rho
        ).max()
        for _ in range(400)
    ]
    lo, hi = np.quantile(ref_max, [0.005, 0.995])
    observed = max(nus)
    _check(
        5,
        "oracle penalty magnitude",
        matches and lo <= observed <= hi,
        f"max nu1 {observed:.4f}, reference band [{lo:.4f}, {hi:.4f}]; "
        f"worst relative dev from reference {worst:.1e}; "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_06_error_scaling():
    _records, aggregates = studies.error_study(4, [2, 3, 4, 5, 6], [50, 100], reps=20, seed=0)

    def mean_err(d, m):
        return next(a["mean_error"] for a in aggregates if a["d"] == d and a["m"] == m)

    ok = mean_err(4, 100) < mean_err(4, 50)
    spreads = {}
    for m in (50, 100):
        means = np.array([mean_err(d, m) for d in (2, 3, 4, 5, 6)])
        center = means.mean()
        spreads[m] = (round(float(means.min() / center), 3), round(float(means.max() / center), 3))
        ok = ok and means.max() <= 1.3 * center and means.min() >= 0.7 * center
    _check(
        6,
        "error scaling",
        ok,
        f"mean err m=50 {mean_err(4, 50):.4f} vs m=100 {mean_err(4, 100):.4f}; "
        f"relative spreads {spreads}",
    )


def test_criterion_07_concentration():
    n, m, reps, eps = 2, 50, 400, 0.1
    rho = states.diag_state(n, 2)
    radius_sq = inversion.hoeffding_radius(n, m, eps) ** 2
    exceed = 0
    for rep in range(reps):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(1, spawn_key=(rep,)))
        est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
        if states.operator_norm(est - rho) ** 2 >= radius_sq:
            exceed += 1
    frequency = exceed / reps
    limit = eps + 3 * np.sqrt(eps * (1 - eps) / reps)
    _check(7, "concentration", frequency <= limit, f"exceedance {frequency:.3f} <= {limit:.3f}")


def test_criterion_08_variance_bound():
    n, m, reps = 2, 200, 1000
    rho = maximally_mixed(n)
    samples = np.empty((reps, 4**n))
    for rep in range(reps):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(2, spawn_key=(rep,)))
        samples[rep] = inversion.invert_coefficients(measurement.empirical_frequencies(ds))
    emp_var = samples.var(axis=0, ddof=1)
    bounds = np.array([inversion.variance_bound(b, m) for b in pauli.all_labels(n)])
    ratio = float((emp_var / bounds).max())
    _check(8, "variance bound", ratio <= 1.25, f"max var/bound {ratio:.3f}")


def test_criterion_09_scan_threshold_equivalence():
    rng = np.random.default_rng(3)
    mismatches = 0
    for i in range(200):
        dim = 4 if i % 2 == 0 else 8
        h = random_hermitian(dim, rng)
        dec = rankpen.spectral(h)
        top = dec.singular_values[0]
        for _ in range(20):
            nu = float(rng.uniform(0.0, (1.05 * top) ** 2))
            if rankpen.select_rank_threshold(dec, nu) != reference_scan_rank(h, nu):
                mismatches += 1
    _check(9, "scan/threshold equivalence", mismatches == 0, f"{mismatches} mismatches in 4000")


def _random_rank_k_candidates(dim, k, count, scale, rng, around=None):
    best = np.inf
    for _ in range(count):
        g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        q, _ = np.linalg.qr(g)
        d = rng.normal(size=k) * scale
        cand = (q * d) @ q.conj().T
        if around is not None:
            cand = around + 1e-3 * scale * (cand / max(np.linalg.norm(cand), 1e-12))
            # re-truncate to rank k so perturbed candidates stay feasible
            w, v = np.linalg.eigh(cand)
            order = np.argsort(-np.abs(w))[:k]
            cand = (v[:, order] * w[order]) @ v[:, order].conj().T
        yield cand


def test_criterion_10_eckart_young_oracle():
    rng = np.random.default_rng(4)
    ok = True
    detail = []
    for dim, ks in ((4, (1, 2, 3)), (8, (2, 5))):
        h = random_hermitian(dim, rng)
        dec = rankpen.spectral(h)
        for k in range(dim + 1):
            resid = np.linalg.norm(rankpen.truncate(dec, k) - h) ** 2
            expected = float(np.sum(dec.singular_values[k:] ** 2))
            ok = ok and abs(resid - expected) < 1e-9
        scale = float(dec.singular_values[0])
        for k in ks:
            base = np.linalg.norm(rankpen.truncate(dec, k) - h) ** 2
            trunc = rankpen.truncate(dec, k)
            beaten = 0
            for cand in _random_rank_k_candidates(dim, k, 5000, scale, rng):
                if np.linalg.norm(cand - h) ** 2 < base - 1e-12:
                    beaten += 1
            for cand in _random_rank_k_candidates(dim, k, 5000, scale, rng, around=trunc):
                if np.linalg.norm(cand - h) ** 2 < base - 1e-12:
                    beaten += 1
            ok = ok and beaten == 0
            detail.append(f"dim {dim} k {k}: 0/10000 better" if beaten == 0 else f"dim {dim} k {k}: BEATEN {beaten}")
    _check(10, "best rank-k approximation", ok, "; ".join(detail[:2]) + " ...")


def test_criterion_11_oracle_inequality():
    n, d, m, theta, reps = 3, 2, 100, 1.0, 200
    rho = states.diag_state(n, d)
    oracle = calibration.PenaltyChoice("oracle")
    violations = 0
    for rep in range(reps):
        ds = measurement.simulate_dataset(rho, m, np.random.SeedSequence(5, spawn_key=(rep,)))
        dec, [(oracle_nu, _details)], _op_error, _frob_error = calibration.calibrate(
            ds, [oracle], 0, rho)
        nu = (1.0 + theta) * oracle_nu
        fit = rankpen.penalized_fit(dec, nu)
        err = np.linalg.norm(fit.estimate - rho) ** 2
        if err > rankpen.penalized_error_bound(rho, nu, theta) + 1e-12:
            violations += 1
    _check(11, "oracle inequality", violations == 0, f"{violations} violations in {reps}")


def test_criterion_12_rank_consistency():
    n, d, reps = 3, 2, 20
    freqs = []
    for m in (100, 400, 1600):
        hits = 0
        for rep in range(reps):
            ds = measurement.simulate_dataset(
                states.diag_state(n, d), m, np.random.SeedSequence(6, spawn_key=(d, m, rep))
            )
            est = inversion.linear_estimator(measurement.empirical_frequencies(ds))
            nu = calibration.nu_theory(n, m)
            if rankpen.select_rank_threshold(rankpen.spectral(est), nu) == d:
                hits += 1
        freqs.append(hits / reps)
    ok = freqs[-1] >= 0.95
    for lo, hi in zip(freqs, freqs[1:]):
        se = np.sqrt(max(lo * (1 - lo), 1e-12) / reps)
        ok = ok and hi >= lo - se
    _check(12, "rank consistency", ok, f"frequencies {freqs}")


def test_criterion_13_file_format_round_trip(tmp_path, capsys):
    data1 = tmp_path / "data1.json"
    data2 = tmp_path / "data2.json"
    args = ["simulate", "--n", "2", "--m", "80", "--state", "mixture", "--d", "3",
            "--p", "0.2", "--seed", "12", "--out"]
    assert cli_main(args + [str(data1)]) == 0
    assert cli_main(args + [str(data2)]) == 0
    byte_identical = data1.read_bytes() == data2.read_bytes()
    code = cli_main(["estimate", str(data1), "--penalty", "fixed:0.02",
                     "--out", str(tmp_path / "fit")])
    captured = capsys.readouterr()
    estimate_clean = code == 0 and captured.err == ""
    files_exist = all(
        (tmp_path / "fit" / f).exists()
        for f in ("fit.json", "estimate_state.json", "physical_state.json")
    )
    _check(
        13,
        "file-format round trip",
        byte_identical and estimate_clean and files_exist,
        f"byte-identical {byte_identical}, estimate ok {estimate_clean}",
    )
