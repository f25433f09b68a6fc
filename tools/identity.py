#!/usr/bin/env python3
"""Byte-identity harness: one fixed list of qtomo command lines, run against a source tree.

Run from the repository root:

    python tools/identity.py src                 # one line per invocation
    python tools/identity.py --compare A B       # the lines that differ between trees A and B

Each invocation is ``python -m qtomo ARGS`` in a fresh process with one BLAS
thread, run from one work directory per tree with relative paths, one after
another: later invocations read the files earlier ones wrote. Its line is the
command, its exit code and the SHA-256 of its stdout, of its stderr and of
each file it wrote or changed. ``--compare`` prints only the lines that
differ, each as a ``-`` line for A and a ``+`` line for B, and the count of
equal lines to stderr; it exits 1 when any line differs.

The list covers all six commands, the built-in states at n = 3..5, every
penalty token, the bootstrap at n = 5 (two batches, drawn on worker threads),
both studies, and the exit-2, exit-3 and exit-4 paths of every command (the
studies read no file, so they have no exit-4 path). The input files, valid
and defective, are built here, deterministically, before the first
invocation.

No digests are committed: an eigensolve may differ in its last bits across
CPUs and BLAS builds, so two trees are compared on one host.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A valid n = 1 dataset: m = 4, two counts in each cell.
_DATASET = {"counts": [{"count": 2, "outcome": r, "setting": a} for a in "xyz" for r in "-+"],
            "m": 4, "n": 1}


def _dataset(**changes) -> dict:
    return {**copy.deepcopy(_DATASET), **changes}


def _entry(index: int, **changes) -> dict:
    obj = _dataset()
    obj["counts"][index] = {**obj["counts"][index], **changes}
    return obj


def _state(n: int, weights: list[float]) -> dict:
    dim = 2**n
    re = [[0.0] * dim for _ in range(dim)]
    for i, w in enumerate(weights):
        re[i][i] = w
    return {"im": [[0.0] * dim for _ in range(dim)], "n": n, "re": re}


def _defective_datasets() -> dict[str, object]:
    """File name -> decoded object of every defective dataset file."""
    files = {f"data-m-{name}.json": _dataset(m=m) for name, m in (
        ("0", 0), ("2.0", 2.0), ("true", True), ("string", "2"), ("2^63", 2**63))}
    files.update({f"data-n-{name}.json": _dataset(n=n) for name, n in (
        ("0", 0), ("1.0", 1.0), ("true", True), ("string", "1"), ("13", 13))})
    files.update({
        "data-not-object.json": [_DATASET],
        "data-missing-m.json": {k: v for k, v in _DATASET.items() if k != "m"},
        "data-counts-object.json": _dataset(counts={}),
        "data-entry-not-object.json": _dataset(counts=[1]),
        "data-entry-missing-count.json": _dataset(counts=[{"setting": "x", "outcome": "+"}]),
        "data-setting-char.json": _entry(0, setting="q"),
        "data-setting-number.json": _entry(0, setting=1),
        "data-outcome-length.json": _entry(1, outcome="+-"),
        "data-count-negative.json": _entry(2, count=-1),
        "data-count-float.json": _entry(2, count=2.0),
        "data-count-2^63.json": _entry(2, count=2**63),
        "data-duplicate.json": _entry(3, outcome="-"),
        "data-row-sum.json": _entry(4, count=3),
        "data-short.json": _dataset(counts=[]),
        "data-no-z.json": _dataset(counts=_DATASET["counts"][:4]),
    })
    return files


def _defective_states() -> dict[str, object]:
    """File name -> decoded object of every defective state file."""
    not_hermitian = _state(1, [0.5, 0.5])
    not_hermitian["re"][0][1] = 0.2
    nan = _state(1, [0.5, 0.5])
    nan["im"][1][0] = float("nan")
    return {
        "state-not-object.json": [1],
        "state-n-true.json": {**_state(1, [1.0]), "n": True},
        "state-n-1.0.json": {**_state(1, [1.0]), "n": 1.0},
        "state-rows.json": {**_state(1, [1.0]), "re": [[1.0, 0.0]]},
        "state-entry.json": {**_state(1, [1.0]), "im": [[0.0, "0"], [0.0, 0.0]]},
        "state-nan.json": nan,
        "state-not-hermitian.json": not_hermitian,
        "state-trace.json": _state(1, [1.0, 1.0]),
        "state-negative.json": _state(1, [1.5, -0.5]),
    }


def _write_json(path: Path, obj, **layout) -> None:
    path.write_text(json.dumps(obj, **layout) + "\n", encoding="utf-8")


def build_inputs(work: Path) -> None:
    """Write every input file the invocations read into ``work``.

    Each defective dataset is written in the writer's layout, which the byte
    reader reads, and a wrong row sum also re-indented, which is read through
    json; ``data-compact.json`` is a valid dataset in no layout of the writer.
    """
    for name, obj in _defective_datasets().items():
        _write_json(work / name, obj, indent=2, sort_keys=True)
    _write_json(work / "data-row-sum-indented.json", _entry(4, count=3), indent=1)
    _write_json(work / "data-compact.json", _dataset(counts=_DATASET["counts"][::-1]),
                separators=(",", ":"))
    (work / "data-invalid.json").write_text('{"n": 1,', encoding="utf-8")
    (work / "data-binary.json").write_bytes(b"\xff\xfe{}")
    for name, obj in _defective_states().items():
        _write_json(work / name, obj, indent=2, sort_keys=True)
    _write_json(work / "state-diag3.json", _state(3, [0.5, 0.5]), indent=2, sort_keys=True)


_SUCCESS = [
    *(f"simulate --n {n} --m 100 --state {state} --seed {n} --out {name}{n}.json"
      for n in (3, 4, 5)
      for name, state in (("diag", "diag --d 2"), ("ghz", "ghz"), ("w", "w"),
                          ("mixture", "mixture --d 2 --p 0.3"))),
    "simulate --n 3 --m 200 --state state-diag3.json --seed 7 --out file3.json",
    *(f"estimate {name}{n}.json --out fit-{name}{n}/"
      for n in (3, 4, 5) for name in ("diag", "ghz", "w", "mixture")),
    "estimate mixture4.json --penalty oracle --state fit-mixture4/physical_state.json"
    " --out oracle4/",
    "estimate file3.json --penalty oracle --state state-diag3.json --out oracle3/",
    "estimate ghz5.json --penalty bootstrap --reps 8 --seed 3 --out boot5/",
    "estimate mixture3.json --penalty bootstrap --seed 1 --out boot3/",
    "estimate mixture3.json --penalty theory --theta 0.5 --eps 0.1 --out theory3/",
    "estimate mixture3.json --penalty fixed:0.01 --out fixed3/",
    "estimate mixture3.json --penalty ' 0.02 ' --out bare3/",
    "estimate data-compact.json --penalty fixed:0.1 --out compact/",
    "simulate --n 4 --m 50 --state fit-mixture4/physical_state.json --seed 2 --out again4.json",
    "spectrum mixture4.json --out spectrum-theory4.csv",
    "spectrum ghz5.json --penalty bootstrap --reps 8 --seed 3 --out spectrum-boot5.csv",
    "spectrum file3.json --penalty oracle --state state-diag3.json --out spectrum-oracle3.csv",
    "spectrum w4.json --penalty 0.05 --out spectrum-bare4.csv",
    "calibrate mixture4.json",
    "calibrate ghz5.json --penalty bootstrap --reps 8 --seed 3 --out calibrate-boot5.json",
    "calibrate file3.json --penalty oracle --state state-diag3.json",
    "calibrate w3.json --penalty fixed:0.3",
    "calibrate w3.json --penalty theory --theta 1 --eps 0.5 --out calibrate-theory3.json",
    "rank-study --n 3 --m 60 --d 1,2,4 --reps 3 --seed 1 --out rank3.csv",
    "rank-study --n 3 --m 60 --d 1,3 --reps 2 --seed 2 --penalty oracle,theory,bootstrap,"
    "fixed:0.02,0.05 --bootstrap-reps 4 --theta 0.5 --eps 0.2 --out rank3-tokens.csv",
    "error-study --n 3 --m 30,100 --d 1,2 --reps 3 --seed 4 --out error3.csv",
    "error-study --n 2 --m 10 --d 4 --reps 2 --out error2.csv",
]

_EXIT_2 = [
    "",
    "simulate --n 2 --m 10 --out x.json",
    "simulate --n 2 --m 10 --state mixture --d 2 --out x.json",
    "simulate --n 2 --m 10 --state diag --d 9 --out x.json",
    "simulate --n 13 --m 10 --state ghz --out x.json",
    "simulate --n 1 --m 10 --state ghz --out x.json",
    "simulate --n 2 --m 0 --state ghz --out x.json",
    "simulate --n 2 --m 9223372036854775808 --state ghz --out x.json",
    "simulate --n 2 --m 10 --state ghz --seed -1 --out x.json",
    "simulate --n 2 --m 1.5 --state ghz --out x.json",
    "simulate --n 2 --m 10 --state mixture --d 1 --p 2 --out x.json",
    "simulate --n 2 --m 10 --state state-diag3.json --out x.json",
    "estimate ghz3.json --penalty nope --out x/",
    "estimate ghz3.json --penalty fixed:-1 --out x/",
    "estimate ghz3.json --penalty oracle --out x/",
    "estimate ghz3.json --penalty bootstrap --reps 1 --out x/",
    "estimate ghz3.json --eps 0 --out x/",
    "estimate ghz3.json --theta -1 --out x/",
    "estimate ghz3.json --penalty fixed:1e308 --out x/",
    "estimate ghz3.json --theta 1e308 --out x/",
    "spectrum ghz3.json --penalty fixed:nan --out x.csv",
    "spectrum ghz3.json --theta 1e308 --out x.csv",
    "calibrate ghz3.json --penalty theory --theta 1e308",
    "calibrate ghz3.json --penalty theory --theta 1e308 --out x.json",
    "calibrate ghz3.json --penalty bootstrap --reps 0",
    "rank-study --n 2 --m 10 --d 1,x --out x.csv",
    "rank-study --n 2 --m 10 --d , --out x.csv",
    "rank-study --n 2 --m 10 --d 1 --penalty , --out x.csv",
    "rank-study --n 2 --m 10 --d 1,9 --out x.csv",
    "rank-study --n 2 --m 10 --d 1 --penalty bootstrap --bootstrap-reps 1 --out x.csv",
    "rank-study --n 2 --m 10 --d 1 --reps 0 --out x.csv",
    "rank-study --n 2 --m 0 --d 1 --out x.csv",
    "error-study --n 2 --m 10,0 --d 1 --out x.csv",
    "error-study --n 2 --m 10 --d 0 --out x.csv",
    "error-study --n 2 --m 10 --d 1 --reps 0 --out x.csv",
    "error-study --n 0 --m 10 --d 1 --out x.csv",
]

_EXIT_3 = [
    "simulate --n 2 --m 10 --state ghz --out missing/x.json",
    "simulate --n 2 --m 10 --state missing-state.json --out x.json",
    "estimate missing.json --out x/",
    "estimate ghz3.json --penalty oracle --state missing-state.json --out x/",
    "estimate ghz3.json --out ghz3.json",
    "spectrum missing.json --out x.csv",
    "spectrum ghz3.json --out missing/x.csv",
    "calibrate missing.json",
    "calibrate ghz3.json --out missing/x.json",
    "rank-study --n 2 --m 10 --d 1 --reps 2 --out missing/x.csv",
    "error-study --n 2 --m 10 --d 1 --reps 2 --out missing/x.csv",
]

_EXIT_4 = [
    *(f"estimate {name} --out x/" for name in [
        *_defective_datasets(), "data-row-sum-indented.json", "data-invalid.json",
        "data-binary.json"]),
    *(f"spectrum {name} --out x.csv" for name in ("data-m-0.json", "data-row-sum.json")),
    *(f"calibrate {name}" for name in ("data-n-true.json", "data-row-sum-indented.json")),
    *(f"simulate --n 1 --m 10 --state {name} --out x.json" for name in _defective_states()),
    "estimate ghz3.json --penalty oracle --state state-trace.json --out x/",
    "calibrate ghz3.json --penalty oracle --state state-n-true.json",
]

INVOCATIONS = [*_SUCCESS, *_EXIT_2, *_EXIT_3, *_EXIT_4]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(work: Path) -> dict[str, str]:
    return {path.relative_to(work).as_posix(): _sha256(path.read_bytes())
            for path in sorted(work.rglob("*")) if path.is_file()}


def run(src_dir, invocations: list[str]) -> list[str]:
    """One line per invocation, run in order against the qtomo package under ``src_dir``."""
    env = {**os.environ, "PYTHONPATH": str(Path(src_dir).resolve()),
           "PYTHONDONTWRITEBYTECODE": "1", **dict.fromkeys(_BLAS_THREADS, "1")}
    lines = []
    with tempfile.TemporaryDirectory(prefix="qtomo-identity-") as tmp:
        work = Path(tmp)
        build_inputs(work)
        before = _snapshot(work)
        for command in invocations:
            result = subprocess.run([sys.executable, "-m", "qtomo", *shlex.split(command)],
                                    cwd=work, env=env, stdin=subprocess.DEVNULL,
                                    capture_output=True, timeout=600)
            after = _snapshot(work)
            written = [f"{path}={digest}" for path, digest in after.items()
                       if before.get(path) != digest]
            before = after
            lines.append(" ".join([f"{command} | exit={result.returncode}",
                                   f"stdout={_sha256(result.stdout)}",
                                   f"stderr={_sha256(result.stderr)}", *written]))
    return lines


def compare(a, b) -> int:
    """Print the lines of trees ``a`` and ``b`` that differ; 1 if any does, else 0."""
    left, right = run(a, INVOCATIONS), run(b, INVOCATIONS)
    differ = [(x, y) for x, y in zip(left, right) if x != y]
    for x, y in differ:
        print(f"- {x}\n+ {y}")
    print(f"identity: {len(left) - len(differ)} of {len(left)} equal", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", help="source tree holding the qtomo package")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two source trees")
    args = parser.parse_args(argv)
    if (args.src is None) == (args.compare is None):
        parser.error("give either SRC_DIR or --compare A B")
    if args.compare:
        return compare(*args.compare)
    for line in run(args.src, INVOCATIONS):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
