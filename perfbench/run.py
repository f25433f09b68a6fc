#!/usr/bin/env python3
"""End-to-end benchmark of the qtomo command line, with a traced variant.

Run from the repository root:

    python3 perfbench/run.py --workload file_roundtrip_n8 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 38    # every workload, each in a fresh process

Single process, single client, closed loop: an op is one or more calls of
``qtomo.cli.main(argv)`` in this process with stdout captured, and the next
op starts when the previous one has returned and its outputs are checked.
The program sees only the generated argv and the files earlier commands
wrote; every op gets its own seed and files, so no two ops share an input.
The run starts a new op only while the median op still fits before
``--seconds`` runs out, then re-runs one op and requires byte-identical files.

On a shared cloud host a core's speed drifts, by up to ~1.9x over tens of
seconds on a 2-vCPU Xeon VM, so raw op times of one run spread too far from
the next run's to gate a change on (interquartile range ~25% of the median
over ten runs). The untraced run therefore times a fixed reference probe
(``reference.py``, no qtomo code) after every command and every set-up, and
the gated ``op_s`` and ``setup_s`` are host-speed-adjusted: seconds scaled
to a host on which the probe takes ``reference.NOMINAL_S``. Raw seconds per
op, per command and per set-up are printed beside them; traced per-layer
times are raw.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each op
twice, once with spans around qtomo's public functions (see ``spans.py``)
and once without, in alternating order, and prints the per-layer metrics.
The last line of stdout is the JSON result; the lines before it give each
metric with its unit, the provenance and, when traced, the per-span and
per-stage self times. Spans and per-op summaries go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Never used while the benchmark or a change is tuned: confirm claims on it.
HELD_OUT_SEED = 7919

M = 100
MAX_OPS = 1000
SETUP_SAMPLES = 5  # one in this process, the rest in fresh child processes

# States cycled by the file workloads. Sparse (diag, small d) and dense count
# files alternate from the start, so a short run sees both.
STATES = (
    ("ghz",), ("diag", 1), ("w",), ("diag", 8), ("mixture", 2, 0.5), ("diag", 2),
    ("diag", 7), ("diag", 3), ("diag", 6), ("diag", 4), ("diag", 5),
)

WORKLOADS = {
    "file_roundtrip_n8": (
        "I/O workload: JSON encode and decode are ~90% of both commands at n=8; it writes "
        "and reads the dataset format, so a decode gain that costs encode shows"
    ),
    "bootstrap_n7": (
        "compute workload: sampling plus the two 6^n kernels are ~70% of the op and decode "
        "~20%, at a table size (2.2 MB) different from file_roundtrip_n8's (13 MB)"
    ),
    "rank_study_n4": (
        "~1100 tiny simulate/invert calls and no file I/O: per-call overhead dominates, so "
        "added fixed per-call cost shows and I/O changes should not move it"
    ),
}

RANK_D = (1, 2, 3, 4, 5)
RANK_MODES = ("oracle", "theory", "bootstrap")

# Every workload reports every end-to-end metric. Raw seconds per op, per
# command (simulate_s, estimate_s) and per set-up are printed but not gated:
# they follow the host's speed drift, which the adjusted op_s and setup_s
# divide out.
END_TO_END = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Per-layer metrics are the same on every workload, so timed ones are kept
# only for spans every workload reaches; the rest are in the trace report.
COMMON_SPANS = (
    "measurement.simulate_dataset", "measurement.probability_table",
    "measurement.empirical_frequencies", "kernels.table_from_coeffs",
    "kernels.design_adjoint_sums", "inversion.linear_estimator", "states.pauli_expand",
    "states.pauli_assemble", "states.nearest_density", "rankpen.spectral",
)
COMMON_MODULES = ("measurement", "kernels", "inversion", "states", "rankpen", "calibration")
PER_LAYER = {
    "traced_op_s": "s",
    "trace_overhead_frac": "fraction",
    "cli.self_s": "s",
    **{f"{mod}.self_s": "s" for mod in COMMON_MODULES},
    **{f"{name}.self_s": "s" for name in COMMON_SPANS},
    **{f"{name}.calls": "count" for name in spans.LABELS},
    "kernels.cells_computed": "count",
    "kernels.bytes_computed": "bytes",
    "measurement.file_bytes": "bytes",
    "measurement.entries": "count",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One op: untimed commands that write its inputs, then the timed commands."""

    index: int
    n: int
    dir: Path
    prep: list[list[str]] = field(default_factory=list)
    commands: list[list[str]] = field(default_factory=list)

    @property
    def dataset(self) -> Path:
        return self.dir / "data.json"

    @property
    def fit_dir(self) -> Path:
        return self.dir / "fit"

    @property
    def study_csv(self) -> Path:
        return self.dir / "study.csv"

    def outputs(self) -> list[Path]:
        """Files whose bytes must repeat when the timed commands are re-run."""
        if self.commands[0][0] == "rank-study":
            return [self.study_csv]
        files = [self.fit_dir / f for f in ("fit.json", "estimate_state.json", "physical_state.json")]
        return ([self.dataset] if self.commands[0][0] == "simulate" else []) + files


def op_seeds(workload: str, seed: int) -> list[int]:
    """Distinct per-op seeds, a pure function of (workload, seed)."""
    return random.Random(f"{workload}:{seed}").sample(range(1, 2**31), 2 * MAX_OPS + 2)


def _state_flags(k: int) -> list[str]:
    name, *params = STATES[k % len(STATES)]
    flags = ["--state", name]
    if params:
        flags += ["--d", str(params[0])]
    if len(params) > 1:
        flags += ["--p", str(params[1])]
    return flags


def make_op(workload: str, seeds: list[int], k: int, work: Path, warmup: bool = False) -> Op:
    """Op ``k`` of a workload (``warmup``: the same commands on a small input)."""
    a, b = (str(s) for s in seeds[2 * k: 2 * k + 2])
    op_dir = work / ("warmup" if warmup else f"op{k}")
    if workload == "file_roundtrip_n8":
        op = Op(k, 3 if warmup else 8, op_dir)
        op.commands = [
            ["simulate", "--n", str(op.n), "--m", str(M), *_state_flags(k), "--seed", a,
             "--out", str(op.dataset)],
            ["estimate", str(op.dataset), "--penalty", "theory", "--out", str(op.fit_dir)],
        ]
    elif workload == "bootstrap_n7":
        op = Op(k, 3 if warmup else 7, op_dir)
        op.prep = [["simulate", "--n", str(op.n), "--m", str(M), *_state_flags(k), "--seed", a,
                    "--out", str(op.dataset)]]
        op.commands = [["estimate", str(op.dataset), "--penalty", "bootstrap", "--reps", "20",
                        "--seed", b, "--out", str(op.fit_dir)]]
    elif workload == "rank_study_n4":
        op = Op(k, 2 if warmup else 4, op_dir)
        d_values = "1,2" if warmup else ",".join(map(str, RANK_D))
        op.commands = [["rank-study", "--n", str(op.n), "--m", str(M), "--d", d_values,
                        "--penalty", ",".join(RANK_MODES), "--reps", "2" if warmup else "10",
                        "--seed", a, "--out", str(op.study_csv)]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return op


# ---------------------------------------------------------------------------
# running and checking ops
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    cmd_seconds: list[float]
    stdout: str
    errors: list[str]

    @property
    def seconds(self) -> float:
        return sum(self.cmd_seconds)


def call_cli(cli, argv: list[str]) -> tuple[float, str, int]:
    """One in-process CLI call: (seconds, captured stdout, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error is a failed op, not a crashed run
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return seconds, buf.getvalue(), code


def run_commands(cli, op: Op, commands: list[list[str]], after=None) -> OpResult:
    """Run the commands in turn, calling ``after()`` untimed after each."""
    op.dir.mkdir(parents=True, exist_ok=True)
    result = OpResult([], "", [])
    for argv in commands:
        seconds, out, code = call_cli(cli, argv)
        if after:
            after()
        result.cmd_seconds.append(seconds)
        result.stdout += out
        if code != 0:
            result.errors.append(f"{' '.join(argv)}: exit code {code}")
    return result


def check_op(op: Op) -> tuple[list[str], int, int]:
    """Output checks of one op: (errors, dataset file bytes, dataset entries)."""
    import checks

    try:
        if op.commands[0][0] == "rank-study":
            argv = op.commands[0]
            d_values = [int(d) for d in argv[argv.index("--d") + 1].split(",")]
            return checks.check_rank_study(op.study_csv, op.n, M, d_values, RANK_MODES), 0, 0
        errors, entries = checks.check_dataset(op.dataset, op.n, M)
        errors += checks.check_fit(op.fit_dir / "fit.json", op.n)
        errors += checks.check_density(op.fit_dir / "physical_state.json", op.n)
        return errors, op.dataset.stat().st_size, entries
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"op {op.index}: output check raised {exc!r}"], 0, 0


def digest(op: Op, stdout: str) -> dict[str, str]:
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in op.outputs():
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def same_bytes(first: dict, second: dict, what: str) -> list[str]:
    return [f"{what}: {name} differs on re-run" for name in first if first[name] != second[name]]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_program():
    """Import qtomo from this checkout's src/ (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "qtomo" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qtomo sources under {src}")
    sys.path.insert(0, str(src))
    import qtomo.cli

    if Path(qtomo.cli.__file__).resolve().parent != (src / "qtomo").resolve():
        raise SystemExit(f"perfbench: imported qtomo from {qtomo.cli.__file__}, not {src}")
    return qtomo.cli


@dataclass
class Setup:
    cli: object
    seeds: list[int]
    seconds: float
    warmup: Op
    warmup_digest: dict
    errors: list[str]


def set_up(workload: str, seed: int, work: Path) -> Setup:
    """Import qtomo, generate the inputs and run one warm-up op, timed together."""
    start = time.perf_counter()
    cli = import_program()
    seeds = op_seeds(workload, seed)
    warm = make_op(workload, seeds, MAX_OPS, work, warmup=True)
    prep = run_commands(cli, warm, warm.prep)
    result = run_commands(cli, warm, warm.commands)
    seconds = time.perf_counter() - start
    errors = prep.errors + result.errors + check_op(warm)[0]
    return Setup(cli, seeds, seconds, warm, digest(warm, result.stdout), errors)


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds and the probe seconds after it, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["probe_s"]


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # the driver's checkout is not a git repository


def provenance(workload: str, seed: int, seconds: int) -> dict:
    import numpy as np
    import qtomo

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(qtomo, "backend", None)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "held_out_seed": HELD_OUT_SEED,
        "nproc": NPROC, "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "qtomo_backend": backend() if backend else "numpy (no backend())",
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    def __init__(self, setup: Setup, workload: str, work: Path, seconds: int):
        self.setup, self.cli, self.seeds = setup, setup.cli, setup.seeds
        self.workload, self.work, self.seconds = workload, work, seconds
        self.errors: list[str] = list(setup.errors)
        self.attempted = self.failed = 0

    def op(self, k: int) -> Op:
        return make_op(self.workload, self.seeds, k, self.work)

    def record(self, op: Op, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"op {op.index}: {e}" for e in errors]

    def loop(self, body) -> None:
        """Run ``body(k)`` for k = 0, 1, ... while the median op fits in the time left."""
        start = time.perf_counter()
        deadline = start + self.seconds
        walls: list[float] = []
        k = 0
        while k < MAX_OPS:
            if walls and time.perf_counter() + statistics.median(walls) > deadline:
                break
            t0 = time.perf_counter()
            body(k)
            walls.append(time.perf_counter() - t0)
            k += 1

    def prepare(self, op: Op) -> list[str]:
        """Write the op's input files (untimed); returns the errors."""
        return run_commands(self.cli, op, op.prep).errors

    def finish_op(self, op: Op, errors: list[str]) -> tuple[int, int]:
        more, file_bytes, entries = check_op(op)
        self.record(op, errors + more)
        if op.index:
            shutil.rmtree(op.dir, ignore_errors=True)
        return file_bytes, entries

    # -- untraced: end-to-end metrics -------------------------------------

    def untraced(self) -> dict[str, list[float]]:
        """Time the ops and a probe after each command, then re-run the
        warm-up op and require the same bytes.

        Returns lists of seconds keyed ``op_raw_s``, ``<command>_s`` and
        ``probe_s``, and ``op_adjusted_s``: each command's seconds scaled by
        the mean of the probes just before and after it, summed per op.
        Full-size ops are re-run by the traced run.
        """
        import reference  # not at the top: set-up must time the import of numpy

        times: dict[str, list[float]] = {"op_raw_s": [], "op_adjusted_s": []}
        probe = reference.Reference()
        probes = [probe.seconds()]

        def body(k):
            op = self.op(k)
            errors = self.prepare(op)
            res = run_commands(self.cli, op, op.commands,
                               after=lambda: probes.append(probe.seconds()))
            self.finish_op(op, errors + res.errors)
            recent = probes[-len(op.commands) - 1:]  # before and after each command
            around = [(a + b) / 2 for a, b in zip(recent, recent[1:])]
            times["op_raw_s"].append(res.seconds)
            times["op_adjusted_s"].append(
                sum(map(reference.adjusted, res.cmd_seconds, around)))
            for argv, seconds in zip(op.commands, res.cmd_seconds):
                times.setdefault(f"{argv[0].replace('-', '_')}_s", []).append(seconds)

        self.loop(body)
        times["probe_s"] = probes
        warm = self.setup.warmup
        again = run_commands(self.cli, warm, warm.commands)
        self.errors += again.errors + same_bytes(
            self.setup.warmup_digest, digest(warm, again.stdout), "warm-up op")
        return times

    # -- traced: per-layer metrics ----------------------------------------

    def traced(self, tracer: spans.Tracer) -> tuple[list[dict], list[float]]:
        """Run every op traced and untraced, alternating which goes first.

        Returns the traced ops' summaries and the traced/untraced time ratios.
        """
        summaries: list[dict] = []
        ratios: list[float] = []

        def traced_run(op: Op, tag: int) -> tuple[OpResult, dict]:
            tracer.op = tag
            tracer.install()
            try:
                res = run_commands(self.cli, op, op.commands)
            finally:
                tracer.uninstall()
            mine = [s for s in tracer.spans if s.op == tag]
            return res, spans.op_summary(mine, res.seconds)

        def body(k):
            op = self.op(k)
            errors = self.prepare(op)
            order = (True, False) if k % 2 == 0 else (False, True)
            runs = {}
            digests = []
            for traced in order:
                if traced:
                    runs[True], summary = traced_run(op, k)
                else:
                    runs[False] = run_commands(self.cli, op, op.commands)
                digests.append(digest(op, runs[traced].stdout))
            errors += runs[True].errors + runs[False].errors
            errors += same_bytes(digests[0], digests[1], "traced vs untraced run")
            file_bytes, entries = self.finish_op(op, errors)
            summary.update(op_s=runs[True].seconds, file_bytes=file_bytes, entries=entries)
            summaries.append(summary)
            ratios.append(runs[True].seconds / runs[False].seconds)

        self.loop(body)
        # the same op traced a second time must repeat every count exactly
        again = traced_run(self.op(0), -1)[1]
        for key in ("calls", "kernel_cells", "kernel_bytes"):
            if again[key] != summaries[0][key]:
                self.errors.append(f"op 0: traced {key} differ on re-run")
        return summaries, ratios


def per_layer_metrics(summaries: list[dict], ratios: list[float]) -> tuple[dict, dict]:
    """Per-op means over the traced ops, so self times add up to the traced op time."""
    count = len(summaries)
    self_s = {name: sum(s["self_s"][name] for s in summaries) / count
              for name in (*spans.LABELS, "cli")}
    values = {
        "traced_op_s": sum(s["op_s"] for s in summaries) / count,
        "trace_overhead_frac": statistics.median(ratios) - 1.0,
        "cli.self_s": self_s["cli"],
    }
    for mod in COMMON_MODULES:
        values[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
    for name in COMMON_SPANS:
        values[f"{name}.self_s"] = self_s[name]
    for name in spans.LABELS:
        values[f"{name}.calls"] = sum(s["calls"][name] for s in summaries) / count
    values["kernels.cells_computed"] = sum(s["kernel_cells"] for s in summaries) / count
    values["kernels.bytes_computed"] = sum(s["kernel_bytes"] for s in summaries) / count
    values["measurement.file_bytes"] = statistics.median(s["file_bytes"] for s in summaries)
    values["measurement.entries"] = statistics.median(s["entries"] for s in summaries)
    return values, self_s


def trace_errors(summaries: list[dict]) -> list[str]:
    errors = []
    for k, s in enumerate(summaries):
        total = sum(s["self_s"].values())
        if abs(total - s["op_s"]) > 1e-6 * max(1.0, s["op_s"]):
            errors.append(f"op {k}: self times add up to {total}, traced op took {s['op_s']}")
        if s["min_self_s"] < -1e-9 or s["self_s"]["cli"] < -1e-9:
            errors.append(f"op {k}: negative self time")
    return errors


def report_trace(self_s: dict, summaries: list[dict]) -> None:
    count = len(summaries)
    print(f"traced ops: {count}; per op: self seconds, calls")
    for name in (*spans.LABELS, "cli"):
        calls = sum(s["calls"].get(name, 0) for s in summaries) / count
        print(f"  span {name:36s} {self_s[name]:10.4f} s  {calls:10.1f} calls")
    print("per op, self seconds by ROADMAP stage:")
    for stage, names in spans.STAGES.items():
        print(f"  stage {stage:20s} {sum(self_s[n] for n in names):10.4f} s  ({', '.join(names)})")


def end_to_end(run: Run, args) -> dict:
    import reference

    times = run.untraced()
    # the first probe ran right after this process's set-up
    setups = [(run.setup.seconds, times["probe_s"][0])] + [
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    times["setup_raw_s"] = [s for s, _ in setups]
    times["setup_adjusted_s"] = [reference.adjusted(s, p) for s, p in setups]
    for name, values in times.items():
        q1, q2, q3 = _quartiles(values)
        print(f"{name} = {q2:.4f} s  (median of {len(values)}; quartiles {q1:.4f} .. {q3:.4f};"
              f" mean {statistics.fmean(values):.4f})")
    values = {
        "op_s": statistics.fmean(times["op_adjusted_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(times["setup_adjusted_s"]),
    }
    print(f"op_s = {values['op_s']:.4f} s  (mean op_adjusted_s; host-speed-adjusted)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"setup_s = {values['setup_s']:.4f} s  (median setup_adjusted_s; host-speed-adjusted)")
    return values


def per_layer(run: Run, args, prov: dict) -> dict:
    modules = {}
    for mod, _ in spans.TRACED:
        with contextlib.suppress(ImportError):
            modules[mod] = importlib.import_module(f"qtomo.{mod}")
    tracer = spans.Tracer(modules)
    summaries, ratios = run.traced(tracer)
    run.errors += trace_errors(summaries)
    values, self_s = per_layer_metrics(summaries, ratios)
    report_trace(self_s, summaries)
    if tracer.missing:
        print("not traced, absent from qtomo: " + ", ".join(tracer.missing))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "provenance": prov, "stages": spans.STAGES, "op_summaries": summaries,
        "spans": [[s.id, s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
    }))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return values


def run_workload(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = set_up(args.workload, args.seed, work)
        if args.setup_only:
            if setup.errors:
                raise RuntimeError(f"warm-up op failed: {setup.errors}")
            import reference

            print(json.dumps({"setup_s": setup.seconds, "probe_s": reference.Reference().seconds()}))
            return 0
        run = Run(setup, args.workload, work, args.seconds)
        prov = provenance(args.workload, args.seed, args.seconds)
        if args.trace:
            values, units = per_layer(run, args, prov), PER_LAYER
        else:
            values, units = end_to_end(run, args), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"ops attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / max(run.attempted, 1):.4f}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh interpreter."""
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=int, default=38, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used to sample "
                             "set-up time in fresh processes)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
