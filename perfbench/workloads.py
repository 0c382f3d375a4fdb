"""Benchmark workloads: inputs made from a seed, the paper's cost model, and output checks.

Each workload is one or more `qnes run` configs. The seed picks the optimizer
seeds (and, for VQE, the Hamiltonian coefficients); circuit structure and sizes
are fixed, so every seed asks for the same amount of work. Output checks read
only what a run writes: data rows are hashed (never headers), and invariants
that hold for any seed are checked on the parsed numbers.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
# variance-scan grid of the variance_scan_q8 preset
SCAN_SIGMAS = ("pi/8", "pi/16", "pi/32")
SCAN_WALKERS = (1, 2, 4, 8)
# gradients.CHUNK_BYTES: the scan's 2P shifted rows stay one kernel call below this
KERNEL_CHUNK_BYTES = 1 << 26
AMPLITUDE_BYTES = 16
HAMILTONIAN_FILE = "hamiltonian.txt"
ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class Experiment:
    """One generated `qnes run` config."""

    name: str
    kind: str  # stateprep | batch | variance_scan | vqe
    seeds: tuple[int, ...]
    qubits: int
    layers: int
    optimizer: str = "snes"
    walkers: int = 16
    max_iterations: int = 0
    batch_size: int = 0
    num_inits: int = 0

    @property
    def num_params(self) -> int:
        # rpqc: one parameterized rotation per qubit per layer
        return self.qubits * self.layers

    @property
    def scan_cells(self) -> int:
        return len(SCAN_SIGMAS) * len(SCAN_WALKERS)

    def largest_kernel_rows(self) -> int:
        if self.kind == "variance_scan":
            return min(2 * self.num_params,
                       max(16, KERNEL_CHUNK_BYTES // (AMPLITUDE_BYTES << self.qubits)))
        return self.walkers

    def largest_kernel_buffer_bytes(self) -> int:
        """Computed size of one kernel state buffer: rows x 2^Q x 16 B."""
        return self.largest_kernel_rows() * (AMPLITUDE_BYTES << self.qubits)

    def config_text(self) -> str:
        sections = {
            "experiment": {"kind": self.kind, "seeds": " ".join(map(str, self.seeds)),
                           "out": f"runs/{self.name}"},
            "ansatz": {"family": "rpqc", "qubits": self.qubits, "layers": self.layers,
                       "structure_seed": 11},
        }
        if self.kind == "variance_scan":
            sections["variance_scan"] = {
                "num_inits": self.num_inits,
                "sigma_values": " ".join(SCAN_SIGMAS),
                "walker_counts": " ".join(map(str, SCAN_WALKERS)),
            }
        else:
            sections["experiment"]["max_iterations"] = self.max_iterations
            sections["optimizer"] = {"kind": self.optimizer, "walkers": self.walkers,
                                     "sigma_init": 0.1, "stop_threshold": 1e-8}
        if self.kind == "batch":
            sections["batch"] = {"strategy": "random", "size": self.batch_size}
        if self.kind == "vqe":
            sections["vqe"] = {"hamiltonian": HAMILTONIAN_FILE}
        lines = []
        for section, items in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in items.items())
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run needs: its configs and the VQE Hamiltonian."""

    experiments: tuple[Experiment, ...]
    hamiltonian: tuple[tuple[float, tuple[tuple[int, str], ...]], ...] = ()
    hamiltonian_qubits: int = 0

    def write(self, dest: Path) -> list[Path]:
        """Write the configs (and the Hamiltonian file) into dest; return config paths."""
        dest.mkdir(parents=True, exist_ok=True)
        if self.hamiltonian:
            (dest / HAMILTONIAN_FILE).write_text(
                hamiltonian_text(self.hamiltonian_qubits, self.hamiltonian), encoding="utf-8")
        paths = []
        for exp in self.experiments:
            path = dest / f"{exp.name}.ini"
            path.write_text(exp.config_text(), encoding="utf-8")
            paths.append(path)
        return paths


def _seeds(rnd: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rnd.sample(range(1 << 20), count))


def chain_hamiltonian(rnd: random.Random, sites: int):
    """Open chain: XX, YY and ZZ bonds plus X and Z fields (5 * sites - 3 terms)."""
    terms = []
    for i in range(sites - 1):
        for letter in "XYZ":
            terms.append((rnd.uniform(0.5, 1.5), ((i, letter), (i + 1, letter))))
    for i in range(sites):
        terms.append((rnd.choice((-1, 1)) * rnd.uniform(0.2, 1.0), ((i, "X"),)))
        terms.append((rnd.choice((-1, 1)) * rnd.uniform(0.2, 1.0), ((i, "Z"),)))
    return tuple(terms)


def hamiltonian_text(qubits: int, terms) -> str:
    lines = [f"qubits {qubits}"]
    for coeff, paulis in terms:
        lines.append(f"{coeff!r} " + " ".join(f"{p}{q}" for q, p in paulis))
    return "\n".join(lines) + "\n"


def _stateprep(rnd: random.Random, small: bool) -> dict:
    seeds = _seeds(rnd, 2 if small else 3)
    return {"experiments": tuple(
        Experiment(f"stateprep_{opt}", "stateprep", seeds, 5, 10, optimizer=opt,
                   max_iterations=3 if small else 100)
        for opt in ("snes", "xnes"))}


def _batch(rnd: random.Random, small: bool) -> dict:
    exp = (Experiment("batch", "batch", _seeds(rnd, 1), 4, 5, max_iterations=3, batch_size=5)
           if small else
           Experiment("batch", "batch", _seeds(rnd, 1), 10, 50, max_iterations=20, batch_size=50))
    return {"experiments": (exp,)}


def _scan(rnd: random.Random, small: bool) -> dict:
    qubits, layers = (4, 2) if small else (12, 10)
    return {"experiments": (
        Experiment("scan", "variance_scan", _seeds(rnd, 1), qubits, layers, num_inits=2),)}


def _vqe(rnd: random.Random, small: bool) -> dict:
    qubits = 4 if small else 10
    seeds = _seeds(rnd, 2)
    return {
        "experiments": (Experiment("vqe", "vqe", seeds, qubits, 4,
                                   max_iterations=3 if small else 60),),
        "hamiltonian": chain_hamiltonian(rnd, qubits),
        "hamiltonian_qubits": qubits,
    }


# name -> (why, input builder); the README gives the full reasoning per workload
WORKLOADS = {
    "stateprep-q5": ("paper's convergence run; 8 KiB batches, so per-call dispatch and the "
                     "nes layer dominate", _stateprep),
    "batch-q10-l50": ("960-gate circuit on 256 KiB states inside L2; per-gate kernel "
                      "arithmetic dominates", _batch),
    "scan-q12": ("paper's barren-plateau scan; parameter-shift gradient on 240-row, 15 MiB "
                 "batches past L2", _scan),
    "vqe-q10": ("only workload with the Pauli observable and the dense ground-energy oracle "
                "in set-up", _vqe),
}


def make_inputs(workload: str, seed: int, small: bool = False) -> Inputs:
    """Inputs for one workload; `small` shrinks every size for the benchmark's own tests."""
    _, build = WORKLOADS[workload]
    rnd = random.Random(f"{workload}/{seed}")
    return Inputs(**build(rnd, small))


def dense_ground_energy(qubits: int, terms) -> float:
    """Lowest eigenvalue of the Pauli sum, built column by column from bit flips.

    Independent of qnes's Kronecker-product oracle; the output check compares both.
    """
    import numpy as np

    dim = 1 << qubits
    index = np.arange(dim)
    matrix = np.zeros((dim, dim), dtype=complex)
    for coeff, paulis in terms:
        flip = 0
        phase = np.ones(dim, dtype=complex)
        for q, letter in paulis:
            bit = (index >> q) & 1
            if letter == "Z":
                phase *= 1 - 2 * bit
            else:
                flip |= 1 << q
                if letter == "Y":  # Y|b> = i (-1)^b |1-b>
                    phase *= 1j * (1 - 2 * bit)
        matrix[index ^ flip, index] += coeff * phase
    return float(np.linalg.eigvalsh(matrix)[0])


# ---------------------------------------------------------------- output checks


def split_csv(text: str) -> tuple[list[str], list[str]]:
    """(header lines, data rows): data rows are the lines after the schema line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            return lines[:i], lines[i + 1:]
    return lines, []


def data_hash(text: str) -> str:
    return hashlib.sha256("\n".join(split_csv(text)[1]).encode("utf-8")).hexdigest()


def _floats(rows: list[str]) -> list[list[float]]:
    return [[float(tok) for tok in row.split(",")] for row in rows]


@dataclass
class RunOutputs:
    """What the output check learned from one run's files."""

    failures: list[str]
    hashes: dict[str, str]
    evaluations: int = 0  # paper cost model
    # calls each traced span must see, derived from the outputs and the configs
    calls: Counter = field(default_factory=Counter)


def _check_trace(exp: Experiment, rows, ground: float | None, where: str, fail) -> None:
    n = len(rows)
    if n != exp.max_iterations + 1:
        fail(f"{where}: {n} rows, expected max_iterations + 1 = {exp.max_iterations + 1}")
    for i, (it, evals, loss, spread, _cursor) in enumerate(rows):
        if it != i or evals != exp.walkers * i:
            fail(f"{where}: row {i} has iteration {it:g}, evaluations {evals:g}; "
                 f"the cost model gives {i}, {exp.walkers * i}")
            return
        if not (math.isfinite(loss) and math.isfinite(spread) and spread > 0):
            fail(f"{where}: row {i} is not finite")
            return
        if exp.kind in ("stateprep", "batch") and not 0.0 <= loss <= 1.0:
            fail(f"{where}: row {i} loss {loss!r} outside [0, 1]")
            return
        if ground is not None and loss < ground - ENERGY_TOL:
            fail(f"{where}: row {i} energy {loss!r} below the ground energy {ground!r}")
            return


def _check_summary(traces: list, summary, where: str, fail) -> None:
    if len(summary) != len(traces[0]):
        fail(f"{where}: {len(summary)} rows, expected {len(traces[0])}")
        return
    for i, (it, mean, lo, hi) in enumerate(summary):
        losses = [t[i][2] for t in traces]
        exact_mean = sum(losses) / len(losses)
        if (it != i or lo != min(losses) or hi != max(losses)
                or abs(mean - exact_mean) > 1e-12 * max(1.0, abs(exact_mean))):
            fail(f"{where}: row {i} does not summarize the traces")
            return


def _check_scan(exp: Experiment, rows, where: str, fail) -> None:
    grid = [(s, k) for s in SCAN_SIGMAS for k in SCAN_WALKERS]
    if len(rows) != len(grid):
        fail(f"{where}: {len(rows)} rows, expected {len(grid)}")
        return
    for (sigma_text, k), (sigma, walkers, v_sur, v_exact) in zip(grid, rows):
        expected_sigma = math.pi / float(sigma_text[3:])
        if sigma != expected_sigma or walkers != k:
            fail(f"{where}: grid cell ({sigma!r}, {walkers:g}) != ({sigma_text}, {k})")
            return
        if not all(math.isfinite(v) and v >= 0.0 for v in (v_sur, v_exact)):
            fail(f"{where}: variance not finite and >= 0 in cell ({sigma_text}, {k})")
            return
    if len({row[3] for row in rows}) != 1:
        fail(f"{where}: variance_exact differs across cells")


def check_outputs(inputs: Inputs, out_dirs: list[Path], reference: dict | None,
                  ground: float | None = None) -> RunOutputs:
    """Check every CSV one run wrote; `reference` maps file keys to data-row hashes.

    `ground` is the benchmark's own ground energy for VQE inputs. Any seed gets
    the invariant checks; the hashes are compared only when a reference is given.
    """
    result = RunOutputs(failures=[], hashes={})
    fail = result.failures.append
    for exp, out_dir in zip(inputs.experiments, out_dirs):
        result.calls["harness.load_config"] += 1
        texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.glob("*.csv"))}
        for name, text in texts.items():
            result.hashes[f"{exp.name}/{name}"] = data_hash(text)
        if exp.kind == "variance_scan":
            expected = {"variance_scan.csv"}
        else:
            expected = {f"trace_seed{s}.csv" for s in exp.seeds} | {"summary.csv"}
        if set(texts) != expected:
            fail(f"{exp.name}: wrote {sorted(texts)}, expected {sorted(expected)}")
            continue
        if exp.kind == "variance_scan":
            _check_scan(exp, _floats(split_csv(texts["variance_scan.csv"])[1]),
                        f"{exp.name}/variance_scan.csv", fail)
            result.evaluations += exp.num_inits * (
                2 * exp.num_params + len(SCAN_SIGMAS) * sum(SCAN_WALKERS))
            result.calls["simulator.kernel"] += exp.num_inits * (1 + exp.scan_cells)
            result.calls["gradients.shift"] += exp.num_inits
            continue
        if exp.kind == "vqe":
            result.calls["hamiltonian.exact"] += 1
            header = dict(line[2:].split(": ", 1) for line in split_csv(texts["summary.csv"])[0]
                          if ": " in line)
            reported = float(header.get("exact_ground_energy", "nan"))
            if not abs(reported - ground) <= 1e-8 * max(1.0, abs(ground)):
                fail(f"{exp.name}: reported ground energy {reported!r}, benchmark oracle "
                     f"gives {ground!r}")
        traces = []
        for s in exp.seeds:
            rows = _floats(split_csv(texts[f"trace_seed{s}.csv"])[1])
            _check_trace(exp, rows, ground if exp.kind == "vqe" else None,
                         f"{exp.name}/trace_seed{s}.csv", fail)
            if rows:
                traces.append(rows)
                iterations = len(rows) - 1
                result.evaluations += int(rows[-1][1])
                # one kernel call for the walkers and one for the reported center per
                # iteration, plus the initial center
                result.calls["simulator.kernel"] += 2 * iterations + 1
                result.calls["nes.sample"] += iterations
                result.calls[f"nes.step_{exp.optimizer}"] += iterations
        if len(traces) == len(exp.seeds):
            _check_summary(traces, _floats(split_csv(texts["summary.csv"])[1]),
                           f"{exp.name}/summary.csv", fail)
    if reference is not None and result.hashes != reference:
        changed = sorted(k for k in set(reference) | set(result.hashes)
                         if reference.get(k) != result.hashes.get(k))
        fail(f"data rows differ from the reference hashes: {', '.join(changed)}")
    return result
