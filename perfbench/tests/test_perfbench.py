"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, check_outputs, chain_hamiltonian, dense_ground_energy, make_inputs  # noqa: E402


def _one_run(workload, tmp_path, traced=False):
    inputs = make_inputs(workload, seed=1, small=True)
    work = tmp_path / workload
    config_paths = inputs.write(work / "inputs")
    result = run.run_child(inputs, config_paths, work, traced, 120, None, None)
    return inputs, config_paths, [work / "out" / e.name for e in inputs.experiments], result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_and_traced_runs_complete(workload, tmp_path):
    runs = run.measure(workload, seed=1, seconds=0, trace=True, small=True, work_root=tmp_path)
    assert [r.traced for r in runs] == [False, True]
    assert [r.failures for r in runs] == [[], []]
    assert set(run.end_to_end_metrics(runs)) == {name for name, _ in run.END_TO_END}
    layers = run.per_layer_metrics(runs)
    assert set(layers) == {name for name, _ in run.PER_LAYER}
    assert layers["simulator.kernel.calls"] > 0 and layers["simulator.kernel.self_s"] > 0


def test_output_check_hashes_data_rows_only(tmp_path):
    inputs, _, out_dirs, result = _one_run("stateprep-q5", tmp_path)
    assert result.failures == []
    reference = dict(result.hashes)
    trace_file = out_dirs[0] / f"trace_seed{inputs.experiments[0].seeds[0]}.csv"
    lines = trace_file.read_text().splitlines()

    # a changed header (say, a new comment line) leaves the check passing
    trace_file.write_text("\n".join(["# stop: max_iterations at 3"] + lines) + "\n")
    assert check_outputs(inputs, out_dirs, reference).failures == []

    # one digit changed in one data row's loss column fails it
    row = len(lines) - 1
    fields = lines[row].split(",")
    digit = fields[2][-1]
    fields[2] = fields[2][:-1] + ("1" if digit != "1" else "2")
    lines[row] = ",".join(fields)
    trace_file.write_text("\n".join(lines) + "\n")
    failures = check_outputs(inputs, out_dirs, reference).failures
    assert any("reference hashes" in f and trace_file.name in f for f in failures)


def test_output_check_enforces_cost_model(tmp_path):
    inputs, _, out_dirs, result = _one_run("stateprep-q5", tmp_path)
    assert result.failures == []
    trace_file = out_dirs[0] / f"trace_seed{inputs.experiments[0].seeds[0]}.csv"
    text = trace_file.read_text()
    trace_file.write_text(text.replace("\n1,16,", "\n1,17,", 1))
    failures = check_outputs(inputs, out_dirs, None).failures
    assert any("cost model" in f for f in failures)


def test_call_count_mismatch_fails_traced_run(tmp_path):
    from qnes import gradients, simulator

    inputs, config_paths, out_dirs, _ = _one_run("scan-q12", tmp_path)
    jobs = list(zip(config_paths, out_dirs))
    original = simulator.run_circuit_batch

    spans = tracer.Tracer()
    spans.install()
    try:
        record = child.execute(jobs, spans)
    finally:
        spans.restore()
    expected = check_outputs(inputs, out_dirs, None).calls
    assert run.trace_failures(record, expected) == []

    spans = tracer.Tracer()
    spans.install()
    try:
        gradients.run_circuit_batch = original  # a binding the wrappers missed
        record = child.execute(jobs, spans)
    finally:
        spans.restore()
    assert simulator.run_circuit_batch is original and gradients.run_circuit_batch is original
    failures = run.trace_failures(record, expected)
    assert any("simulator.kernel" in f for f in failures)


def test_dense_ground_energy_matches_qnes_oracle():
    import random

    from qnes.hamiltonian import exact_ground_energy, parse_pauli_file
    from workloads import hamiltonian_text

    terms = chain_hamiltonian(random.Random(5), 4)
    ours = dense_ground_energy(4, terms)
    theirs = exact_ground_energy(parse_pauli_file(hamiltonian_text(4, terms)))
    assert ours == pytest.approx(theirs, abs=1e-10)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _) in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stateprep-q5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
