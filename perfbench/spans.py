"""In-memory spans around qtomo's public functions, and self-time arithmetic.

The tracer replaces each listed module attribute with a wrapper that records
a span (name, start, end, parent id, op id). qtomo calls every traced
function as a module attribute (``measurement.simulate_dataset``,
``states.pauli_expand``, ...) or as a module global, so replacing the
attribute also catches nested calls. Spans stay in memory until the run
writes them out. Nothing here imports qtomo; the caller passes the modules.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import NamedTuple

# (module, functions) of src/qtomo/ wrapped by the traced run. ``pauli`` is a
# per-entry leaf helper (~10^5 calls per op); wrapping it would distort the
# trace, so its cost lands in the self time of its callers.
TRACED = (
    ("measurement", ("save_dataset", "dataset_to_dict", "load_dataset",
                     "dataset_from_dict", "simulate_dataset", "probability_table",
                     "empirical_frequencies")),
    ("_kernels", ("table_from_coeffs", "design_adjoint_sums")),
    ("inversion", ("linear_estimator",)),
    ("states", ("pauli_expand", "pauli_assemble", "nearest_density",
                "operator_norm", "save_state")),
    ("rankpen", ("spectral", "penalized_fit")),
    ("calibration", ("resolve_penalty", "bootstrap_norms")),
    ("studies", ("rank_study",)),
)


# Metric names must start with a letter, so ``_kernels`` is reported as ``kernels``.
def label(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


LABELS = tuple(label(mod, fn) for mod, fns in TRACED for fn in fns)

# ROADMAP stage names -> the spans whose self time is that stage.
STAGES = {
    "json_decode": ("measurement.load_dataset", "measurement.dataset_from_dict"),
    "frequencies": ("measurement.empirical_frequencies",),
    "sampling": ("measurement.simulate_dataset",),
    "forward_transform": ("measurement.probability_table", "states.pauli_expand",
                          "kernels.table_from_coeffs"),
    "adjoint_transform": ("kernels.design_adjoint_sums",),
    "pauli_assembly": ("inversion.linear_estimator", "states.pauli_assemble"),
    "eigensolve": ("rankpen.spectral", "states.operator_norm"),
    "penalty": ("calibration.resolve_penalty", "calibration.bootstrap_norms",
                "rankpen.penalized_fit"),
    "projection": ("states.nearest_density",),
    "json_encode": ("measurement.save_dataset", "measurement.dataset_to_dict",
                    "states.save_state"),
    "study_loop": ("studies.rank_study",),
}

_KERNELS = frozenset({"kernels.table_from_coeffs", "kernels.design_adjoint_sums"})


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    n: int | None = None  # qubit count, recorded for kernel calls only


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the attributes."""

    def __init__(self, modules: dict):
        self.modules = modules  # module short name ("measurement", "_kernels", ...) -> module
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the program no longer has

    def _wrap(self, name: str, fn):
        kernel = name in _KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                n = (args[1] if len(args) > 1 else kwargs.get("n")) if kernel else None
                self.spans.append(Span(span_id, name, start, end, parent, self.op, n))

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.missing.clear()
        for mod_name, functions in TRACED:
            module = self.modules.get(mod_name)
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(label(mod_name, fn_name))
                    continue
                self._originals.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(label(mod_name, fn_name), original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def op_summary(spans: list[Span], op_seconds: float) -> dict:
    """Per-label self time and call count of one op, plus the computed counts.

    ``cli`` is the op time minus its top-level spans, so the self times of
    one op add up to ``op_seconds``.
    """
    selfs = self_times(spans)
    self_s = dict.fromkeys(LABELS, 0.0)
    calls = dict.fromkeys(LABELS, 0)
    cells = moved = 0
    top = 0.0
    for span in spans:
        self_s[span.name] += selfs[span.id]
        calls[span.name] += 1
        if span.parent is None:
            top += span.end - span.start
        if span.n is not None:
            cells += 6**span.n
            moved += 8 * (4**span.n + 6**span.n)
    self_s["cli"] = op_seconds - top
    return {
        "self_s": self_s,
        "calls": calls,
        "kernel_cells": cells,
        "kernel_bytes": moved,
        "min_self_s": min(selfs.values(), default=0.0),
    }
