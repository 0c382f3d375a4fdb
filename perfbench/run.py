"""qnes benchmark: run one workload (or all) for a fixed time and print its metrics.

    python3 perfbench/run.py --workload stateprep-q5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Every run is a fresh, single-threaded process that goes through
`harness.load_config` and `harness.run_experiment`, like `qnes run`. Runs repeat
until `--seconds` is used up; each run's outputs are checked. End-to-end times
are the fastest run's, memory the median run's, and per-layer figures medians
over the traced runs. `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced and traced runs and prints the per-layer split. The last
stdout line is one JSON object: correct, attempted, failed, metrics. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from tracer import clock
from workloads import DEFAULT_SEED, WORKLOADS, Inputs, check_outputs, dense_ground_energy, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFERENCE_FILE = HERE / "reference_hashes.json"
# single-threaded BLAS: steadier timings on a shared machine and the same bits every run
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0  # one invocation must exit within 180 s

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("evals_per_s", "1/s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("simulator.kernel.calls", "count"),
    ("simulator.kernel.rows_per_call", "ratio"),
    ("simulator.kernel.self_s", "s"),
    ("simulator.kernel.call_ms_p50", "ms"),
    ("simulator.kernel.call_ms_p99", "ms"),
    ("simulator.kernel.gate_amps", "count"),
    ("simulator.kernel.ns_per_gate_amp", "ns"),
    ("simulator.kernel.rows_per_eval", "ratio"),
    ("simulator.observable.self_s", "s"),
    ("simulator.observable.ns_per_term_amp", "ns"),
    ("nes.sample.self_s", "s"),
    ("nes.step_snes.self_s", "s"),
    ("nes.step_xnes.self_s", "s"),
    ("nes.loop.self_s", "s"),
    ("gradients.shift.calls", "count"),
    ("gradients.shift.total_s", "s"),
    ("gradients.scan.self_s", "s"),
    ("batching.loop.self_s", "s"),
    ("hamiltonian.load.s", "s"),
    ("hamiltonian.exact.s", "s"),
    ("ansatz.build.s", "s"),
    ("harness.load_config.s", "s"),
    ("harness.write.s", "s"),
    ("harness.write.bytes", "bytes"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.untimed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# spans whose call counts the traced run asserts (0 where a workload must not call them)
COUNTED_SPANS = ("simulator.kernel", "nes.sample", "nes.step_snes", "nes.step_xnes",
                 "gradients.shift", "hamiltonian.exact", "harness.load_config")
CLOCK_TOL_S = 1e-6


@dataclass
class Run:
    """One child process: its timings, its output check, and whether it was traced."""

    traced: bool
    spawned_at: float
    record: dict = field(default_factory=dict)
    evaluations: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.record["end"] - self.record["first_kernel"]

    @property
    def setup_s(self) -> float:
        return self.record["first_kernel"] - self.spawned_at


def trace_failures(record: dict, expected_calls) -> list[str]:
    """Call counts against the cost model, and self times against the traced wall time."""
    trace = record["trace"]
    spans = trace["spans"]
    failures = []
    for name in COUNTED_SPANS:
        got = spans.get(name, {}).get("calls", 0)
        if got != expected_calls[name]:
            failures.append(f"traced {got} calls to {name}, expected {expected_calls[name]}")
    self_total = sum(span["self_s"] for span in spans.values())
    remainder = trace["wall_s"] - trace["top_level_s"]
    if abs(self_total - trace["top_level_s"]) > CLOCK_TOL_S or remainder < -CLOCK_TOL_S:
        failures.append(f"self times {self_total!r} s plus untimed {remainder!r} s do not "
                        f"sum to the traced wall time {trace['wall_s']!r} s")
    return failures


def run_child(inputs: Inputs, config_paths: list[Path], work: Path, traced: bool,
              timeout: float, reference: dict | None, ground: float | None) -> Run:
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    out_dirs = [out_root / exp.name for exp in inputs.experiments]
    cmd = [sys.executable, str(HERE / "child.py"), "1" if traced else "0"]
    for config, out_dir in zip(config_paths, out_dirs):
        cmd += [str(config), str(out_dir)]
    run = Run(traced=traced, spawned_at=clock())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        run.failures.append(f"run exceeded {timeout:.0f} s")
        return run
    if proc.returncode != 0:
        run.failures.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return run
    try:
        run.record = json.loads(proc.stdout.strip().splitlines()[-1])
        outputs = check_outputs(inputs, out_dirs, reference, ground)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        run.failures.append(f"unreadable run record or outputs: {exc!r}")
        return run
    run.evaluations = outputs.evaluations
    run.hashes = outputs.hashes
    run.failures.extend(outputs.failures)
    if traced:
        run.failures.extend(trace_failures(run.record, outputs.calls))
    return run


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
            work_root: Path = WORK) -> list[Run]:
    """Run the workload repeatedly for about `seconds`; with `trace`, alternate traced runs."""
    started = clock()
    inputs = make_inputs(workload, seed, small)
    work = work_root / workload
    shutil.rmtree(work, ignore_errors=True)
    config_paths = inputs.write(work / "inputs")
    reference = None
    if seed == DEFAULT_SEED and not small:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    ground = (dense_ground_energy(inputs.hamiltonian_qubits, inputs.hamiltonian)
              if inputs.hamiltonian else None)
    runs: list[Run] = []
    walls: list[float] = []
    loop_start = clock()
    while True:
        timeout = TIME_LIMIT_S - (clock() - started)
        traced = trace and len(runs) % 2 == 1
        begin = clock()
        runs.append(run_child(inputs, config_paths, work, traced, timeout, reference, ground))
        walls.append(clock() - begin)
        elapsed = clock() - loop_start
        enough = len(runs) >= (2 if trace else 1)
        if enough and elapsed + statistics.fmean(walls) > seconds:
            break
        if clock() - started + max(walls) > TIME_LIMIT_S:
            break
    return runs


def end_to_end_metrics(runs: list[Run]) -> dict[str, float]:
    """Times from the fastest untraced run (best of N), memory from the median run.

    The runs are deterministic and CPU-bound, so other tenants of a shared machine
    can only add time, and they do so in bursts of seconds. On a 2-vCPU VM, single
    runs inside one 30 s window spread 1.8x. Their median follows how busy the
    neighbours were during the window; the fastest run follows the code's cost.
    """
    ok = [r for r in runs if not r.failures and not r.traced]
    return {
        "run_s": min(r.run_s for r in ok),
        "setup_s": min(r.setup_s for r in ok),
        "evals_per_s": max(r.evaluations / r.run_s for r in ok),
        "peak_rss_mib": statistics.median([r.record["maxrss_kib"] / 1024.0 for r in ok]),
    }


def _layer_split(run: Run) -> dict[str, float]:
    trace = run.record["trace"]
    spans, work = trace["spans"], trace["work"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    kernel_calls = span("simulator.kernel", "calls")
    kernel_self = span("simulator.kernel", "self_s")
    observable_self = span("simulator.observable", "self_s")
    term_amps = work.get("term_amps", 0)
    return {
        "simulator.kernel.calls": kernel_calls,
        "simulator.kernel.rows_per_call": work["kernel_rows"] / kernel_calls,
        "simulator.kernel.self_s": kernel_self,
        "simulator.kernel.call_ms_p50": span("simulator.kernel", "p50_ms"),
        "simulator.kernel.call_ms_p99": span("simulator.kernel", "p99_ms"),
        "simulator.kernel.gate_amps": work["gate_amps"],
        "simulator.kernel.ns_per_gate_amp": 1e9 * kernel_self / work["gate_amps"],
        "simulator.kernel.rows_per_eval": work["kernel_rows"] / run.evaluations,
        "simulator.observable.self_s": observable_self,
        "simulator.observable.ns_per_term_amp":
            1e9 * observable_self / term_amps if term_amps else 0.0,
        "nes.sample.self_s": span("nes.sample", "self_s"),
        "nes.step_snes.self_s": span("nes.step_snes", "self_s"),
        "nes.step_xnes.self_s": span("nes.step_xnes", "self_s"),
        "nes.loop.self_s": span("nes.loop", "self_s"),
        "gradients.shift.calls": span("gradients.shift", "calls"),
        "gradients.shift.total_s": span("gradients.shift", "total_s"),
        "gradients.scan.self_s": span("gradients.scan", "self_s"),
        "batching.loop.self_s": span("batching.loop", "self_s"),
        "hamiltonian.load.s": span("hamiltonian.load", "total_s"),
        "hamiltonian.exact.s": span("hamiltonian.exact", "total_s"),
        "ansatz.build.s": span("ansatz.build", "total_s"),
        "harness.load_config.s": span("harness.load_config", "total_s"),
        "harness.write.s": span("harness.write", "self_s"),
        "harness.write.bytes": work.get("write_bytes", 0),
        "trace.untimed_s": trace["wall_s"] - trace["top_level_s"],
    }


def per_layer_metrics(runs: list[Run]) -> dict[str, float]:
    ok = [r for r in runs if not r.failures]
    traced = [r for r in ok if r.traced]
    plain = [r for r in ok if not r.traced]
    splits = [_layer_split(r) for r in traced]
    metrics = {name: statistics.median([s[name] for s in splits]) for name in splits[0]}
    metrics["process.cpu_s"] = statistics.median([r.record["cpu_s"] for r in plain])
    metrics["process.cpu_util"] = statistics.median(
        [r.record["cpu_s"] / (r.record["end"] - r.spawned_at) for r in plain])
    # fastest against fastest, like run_s
    plain_run_s = min(r.run_s for r in plain)
    metrics["trace.overhead_frac"] = (min(r.run_s for r in traced) - plain_run_s) / plain_run_s
    return metrics


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(workloads: list[str]) -> dict:
    """Hardware and library versions, and each workload's computed kernel buffer size."""
    import numpy as np

    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    buffers = {}
    for name in workloads:
        size = max(e.largest_kernel_buffer_bytes() for e in make_inputs(name, DEFAULT_SEED).experiments)
        buffers[name] = {"largest_kernel_buffer_bytes": size, "l2_bytes": caches.get("L2"),
                         "fits_l2": size <= caches.get("L2", 0),
                         "fits_l3": size <= caches.get("L3", 0)}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernel_buffers": buffers,
        "note": "kernel bytes are computed (rows x 2^Q x 16 B), never measured bandwidth",
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[Run], dict]:
    """Measure one workload and print its metrics; metrics are empty if no run succeeded."""
    runs = measure(workload, seed, seconds, trace)
    for i, run in enumerate(runs):
        for failure in run.failures:
            print(f"{workload} run {i}: {failure}", file=sys.stderr)
    ok = [r for r in runs if not r.failures]
    if not (any(not r.traced for r in ok) and (not trace or any(r.traced for r in ok))):
        return runs, {}
    metrics = per_layer_metrics(runs) if trace else end_to_end_metrics(runs)
    units = dict(PER_LAYER if trace else END_TO_END)
    measured = sum(1 for r in ok if r.traced == trace)
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value!r} {units[name]} (from {measured} runs)")
    failed = len(runs) - len(ok)
    print(f"{workload}: error_rate = {failed / len(runs)!r} ratio ({failed} of {len(runs)} runs)")
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qnes" / "__init__.py").is_file():
        print(f"no qnes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    # the build step: byte-compile once so no timed run pays for it
    if not compileall.compile_dir(str(ROOT / "src" / "qnes"), quiet=1):
        print("byte-compiling src/qnes failed", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine: " + json.dumps(machine_block(names), sort_keys=True))
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    failed = {name: sum(1 for r in runs if r.failures) for name, (runs, _) in results.items()}
    if args.workload == "all":
        return 1 if any(failed.values()) else 0

    runs, metrics = results[args.workload]
    if not metrics:
        print("no run completed without a failure", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed[args.workload] == 0,
        "attempted": len(runs),
        "failed": failed[args.workload],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
