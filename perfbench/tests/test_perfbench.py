"""Tests of the benchmark's own code. Run: python3 -m pytest perfbench/tests"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(id, start, end, parent=None, name="states.pauli_expand"):
    return spans.Span(id, name, start, end, parent, op=0)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_op_summary_adds_up_to_the_op_time():
    tree = [
        _span(0, 1.0, 4.0, name="measurement.simulate_dataset"),
        _span(1, 2.0, 3.0, parent=0, name="kernels.table_from_coeffs"),
        _span(2, 5.0, 6.5, name="measurement.save_dataset"),
    ]
    summary = spans.op_summary(tree, op_seconds=7.0)
    assert summary["self_s"]["cli"] == pytest.approx(2.5)
    assert sum(summary["self_s"].values()) == pytest.approx(7.0)
    assert summary["calls"]["measurement.simulate_dataset"] == 1
    assert summary["calls"]["studies.rank_study"] == 0


def test_tracer_catches_calls_through_module_globals():
    mod = types.ModuleType("measurement")
    mod.probability_table = lambda rho: rho + 1
    mod.simulate_dataset = lambda rho: mod.probability_table(rho) * 2
    tracer = spans.Tracer({"measurement": mod})
    original = mod.simulate_dataset
    tracer.install()
    try:
        assert mod.simulate_dataset(1) == 4
    finally:
        tracer.uninstall()
    assert mod.simulate_dataset is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer.name, inner.name) == ("measurement.simulate_dataset",
                                        "measurement.probability_table")
    assert inner.parent == outer.id and outer.parent is None
    assert "kernels.table_from_coeffs" in tracer.missing


def test_probe_runs_after_each_command_outside_its_timing(tmp_path):
    events = []
    cli = types.SimpleNamespace(main=lambda argv: events.append(argv[0]) or 0)
    op = run.Op(0, 1, tmp_path / "op")
    op.commands = [["simulate"], ["estimate"]]
    result = run.run_commands(cli, op, op.commands, after=lambda: events.append("probe"))
    assert events == ["simulate", "probe", "estimate", "probe"]
    assert len(result.cmd_seconds) == 2 and result.errors == []


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


def _fit(values, nu, k_hat):
    return {"nu": nu, "k_hat": k_hat, "singular_values": values,
            "objective": [0.0] * (len(values) + 1)}


def test_check_fit_rejects_a_corrupted_fit(tmp_path):
    values = [0.6, 0.3, 0.05, 0.01]  # n = 2; sqrt(nu) = 0.2 keeps two
    assert checks.check_fit(_write(tmp_path / "ok.json", _fit(values, 0.04, 2)), 2) == []
    assert checks.check_fit(_write(tmp_path / "k.json", _fit(values, 0.04, 3)), 2)
    short = _fit(values, 0.04, 2)
    short["objective"].pop()
    assert checks.check_fit(_write(tmp_path / "obj.json", short), 2)


def _state(matrix):
    return {"n": 1, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def test_check_density_rejects_a_non_psd_state(tmp_path):
    good = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    assert checks.check_density(_write(tmp_path / "ok.json", _state(good)), 1) == []
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]])  # Hermitian, trace 1
    errors = checks.check_density(_write(tmp_path / "bad.json", _state(not_psd)), 1)
    assert any("PSD" in e for e in errors)
    skew = np.array([[0.5, 0.2], [0.0, 0.5]])
    assert checks.check_density(_write(tmp_path / "skew.json", _state(skew)), 1)


def test_check_dataset_rejects_a_row_that_does_not_sum_to_m(tmp_path):
    entries = [{"setting": a, "outcome": "+", "count": 3} for a in "xyz"]
    ok = {"n": 1, "m": 3, "counts": entries}
    assert checks.check_dataset(_write(tmp_path / "ok.json", ok), 1, 3) == ([], 3)
    entries[1] = dict(entries[1], count=2)
    assert checks.check_dataset(_write(tmp_path / "bad.json", ok), 1, 3)[0]


def test_theory_nu_matches_the_closed_form_at_n4_m100():
    assert checks.theory_nu(4, 100) == pytest.approx(32 * (4 / 3) ** 4 * 4 * np.log(2) / 100)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    def argvs(seed):
        seeds = run.op_seeds(workload, seed)
        ops = [run.make_op(workload, seeds, k, tmp_path) for k in range(12)]
        ops.append(run.make_op(workload, seeds, run.MAX_OPS, tmp_path, warmup=True))
        return [op.prep + op.commands for op in ops]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)
    seeds = run.op_seeds(workload, 5)
    assert len(set(seeds)) == len(seeds)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
