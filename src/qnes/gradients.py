"""Analytical parameter-shift gradients, the gradient-descent baseline, the
surrogate-gradient variance scan, and the warm-up-then-descend hybrid strategy.

Every trainable gate is a Pauli rotation, so shifting one parameter by +/- pi/2
gives the exact derivative of any expectation value from two circuit runs:
dE/dtheta_j = (E(theta_j + pi/2) - E(theta_j - pi/2)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import vqe_fitness, vqe_fitness_batch
from .nes import NesConfig, SeparableDistribution, optimize
from .numerics import SeededRng
from .simulator import (
    PauliSum,
    pauli_expectation_batch,
    run_circuit_batch,
    stateprep_fitness,
    stateprep_fitness_batch,
    vacuum_projector_expectation,
)
from .trace import GradientSnapshot, RunTrace

SHIFT = np.pi / 2
CHUNK_BYTES = 1 << 26  # cap per-chunk statevector memory for batched runs


def _chunk_rows(num_qubits: int) -> int:
    return max(16, CHUNK_BYTES // (16 << num_qubits))


def expectation_values(template, param_rows: np.ndarray, observable: PauliSum | None) -> np.ndarray:
    """Expectation per parameter row: Pauli-sum energy, or the vacuum projector if None."""
    param_rows = np.asarray(param_rows, dtype=float)
    rows_per_chunk = _chunk_rows(template.num_qubits)
    out = np.empty(param_rows.shape[0])
    for start in range(0, param_rows.shape[0], rows_per_chunk):
        chunk = param_rows[start:start + rows_per_chunk]
        states = run_circuit_batch(template, chunk)
        if observable is None:
            out[start:start + chunk.shape[0]] = vacuum_projector_expectation(states)
        else:
            out[start:start + chunk.shape[0]] = pauli_expectation_batch(states, observable)
    return out


def parameter_shift_expectation_gradient(
    template, params: np.ndarray, observable: PauliSum | None = None
) -> np.ndarray:
    """Exact expectation gradient from 2 * num_params shifted circuit evaluations."""
    params = np.asarray(params, dtype=float)
    p = template.num_params
    shifted = np.repeat(params[None, :], 2 * p, axis=0)
    shifted[np.arange(p), np.arange(p)] += SHIFT
    shifted[p + np.arange(p), np.arange(p)] -= SHIFT
    values = expectation_values(template, shifted, observable)
    return (values[:p] - values[p:]) / 2.0


def stateprep_loss_gradient(template, params: np.ndarray) -> np.ndarray:
    """Chain rule for the squared state-preparation loss (1 - E)**2."""
    e = expectation_values(template, np.asarray(params, dtype=float)[None, :], None)[0]
    return -2.0 * (1.0 - e) * parameter_shift_expectation_gradient(template, params, None)


def energy_loss_gradient(template, params: np.ndarray, observable: PauliSum) -> np.ndarray:
    return parameter_shift_expectation_gradient(template, params, observable)


def loss_functions(template, observable: PauliSum | None = None):
    """(loss, batched loss, loss gradient): the energy of observable, or state prep if None."""
    if observable is None:
        return (lambda z: stateprep_fitness(template, z),
                lambda rows: stateprep_fitness_batch(template, rows),
                lambda z: stateprep_loss_gradient(template, z))
    return (lambda z: vqe_fitness(template, z, observable),
            lambda rows: vqe_fitness_batch(template, rows, observable),
            lambda z: energy_loss_gradient(template, z, observable))


@dataclass
class GdConfig:
    """Vanilla gradient-descent controls."""

    learning_rate: float
    max_iterations: int = 1000
    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def gradient_descent(
    loss_fn,
    grad_fn,
    initial_params: np.ndarray,
    config: GdConfig,
    trace: RunTrace | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """theta <- theta - eta * grad until the gradient norm drops below tolerance.

    The trace charges 2 * num_params + 1 evaluations per iteration (the
    parameter-shift gradient plus the recorded loss). A trace that already has
    rows is continued: iterations and evaluations count on from its last row,
    and no new row 0 is recorded.
    """
    x = np.array(initial_params, dtype=float)
    evals_per_iteration = 2 * x.size + 1
    if trace is None:
        trace = RunTrace()
    loss = float(loss_fn(x))
    if not np.isfinite(loss):
        raise RuntimeError("loss diverged at the initial point")
    if not len(trace):
        trace.record(0, 0, loss, 0.0)
    start, start_evals = trace.iterations[-1], trace.evaluations[-1]
    for iteration in range(1, config.max_iterations + 1):
        grad = np.asarray(grad_fn(x), dtype=float)
        if float(np.linalg.norm(grad)) < config.tolerance:
            break
        x = x - config.learning_rate * grad
        loss = float(loss_fn(x))
        if not np.isfinite(loss):
            raise RuntimeError(f"loss diverged at iteration {iteration}")
        trace.record(start + iteration, start_evals + iteration * evals_per_iteration, loss, 0.0)
    return x, trace


@dataclass
class VarianceScanConfig:
    """Grid for the surrogate-vs-analytical gradient variance experiment."""

    num_qubits: int
    num_layers: int
    structure_seed: int
    num_inits: int
    sigma_values: tuple[float, ...]
    walker_counts: tuple[int, ...]
    observable: PauliSum
    estimator: str = "single"  # or "symmetric" (antithetic +/- perturbation pairs)

    def __post_init__(self):
        if self.num_inits < 2:
            raise ValueError("num_inits must be >= 2 for a variance")
        if self.estimator not in ("single", "symmetric"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class VarianceScanRow:
    sigma_init: float
    walkers: int
    variance_surrogate: float
    variance_exact: float


def local_cost_observable(num_qubits: int) -> PauliSum:
    """Default two-qubit local cost Z0 Z1."""
    return PauliSum.build(num_qubits, [(1.0, {0: "Z", 1: "Z"})])


def surrogate_gradient_variance_scan(config: VarianceScanConfig, rng: SeededRng) -> list[VarianceScanRow]:
    """Variance across random initializations of the first gradient component.

    For every (sigma_init, walkers) cell the surrogate is the search-gradient
    estimate; the exact column is the variance of the analytical gradient over
    the same initializations. Parameters are drawn uniformly in [0, 2*pi).
    """
    from .ansatz import build_rpqc

    template = build_rpqc(config.num_qubits, config.num_layers, config.structure_seed)
    p = template.num_params
    combos = [(s, k) for s in config.sigma_values for k in config.walker_counts]
    surrogate = {combo: np.empty(config.num_inits) for combo in combos}
    exact = np.empty(config.num_inits)
    for i in range(config.num_inits):
        stream = rng.stream(i)
        theta = stream.uniform(p, 0.0, 2.0 * np.pi)
        exact[i] = parameter_shift_expectation_gradient(template, theta, config.observable)[0]
        for sigma, k in combos:
            samples = np.stack([stream.normal(p) for _ in range(k)])
            forward = expectation_values(template, theta + sigma * samples, config.observable)
            if config.estimator == "single":
                estimate = (forward @ samples[:, 0]) / (k * sigma)
            else:
                backward = expectation_values(template, theta - sigma * samples, config.observable)
                estimate = ((forward - backward) @ samples[:, 0]) / (2.0 * k * sigma)
            surrogate[(sigma, k)][i] = estimate
    variance_exact = float(np.var(exact, ddof=1))
    return [
        VarianceScanRow(
            sigma_init=float(sigma),
            walkers=int(k),
            variance_surrogate=float(np.var(surrogate[(sigma, k)], ddof=1)),
            variance_exact=variance_exact,
        )
        for sigma, k in combos
    ]


def analytical_gradient_variance(
    template, observable: PauliSum, num_inits: int, rng: SeededRng, component: int = 0
) -> float:
    """Variance of one analytical gradient component over uniform random initializations."""
    if num_inits < 2:
        raise ValueError("num_inits must be >= 2 for a variance")
    values = np.empty(num_inits)
    for i in range(num_inits):
        theta = rng.stream(i).uniform(template.num_params, 0.0, 2.0 * np.pi)
        values[i] = parameter_shift_expectation_gradient(template, theta, observable)[component]
    return float(np.var(values, ddof=1))


def hybrid_optimize(
    template,
    warmup_iterations: int,
    nes_config: NesConfig,
    gd_config: GdConfig,
    rng: SeededRng,
    observable: PauliSum | None = None,
    sigma_init: float = 0.1,
    initial_mu: np.ndarray | None = None,
    snapshot_interval: int | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Separable-strategy warm-up, then plain gradient descent from the reached center.

    Analytical-gradient snapshots are recorded at iteration 0 and after the
    warm-up (plus every snapshot_interval warm-up iterations when set); they are
    the data behind violin-style gradient-spread plots.
    """
    if warmup_iterations < 0:
        raise ValueError("warmup_iterations must be >= 0")
    d = template.num_params
    mu = rng.uniform(d, 0.0, 2.0 * np.pi) if initial_mu is None else np.array(initial_mu, float)

    loss_fn, loss_batch, grad_fn = loss_functions(template, observable)
    trace = RunTrace()
    trace.gradient_snapshots.append(GradientSnapshot(0, grad_fn(mu)))

    if warmup_iterations > 0:
        def maybe_snapshot(iteration, dist):
            if snapshot_interval and iteration % snapshot_interval == 0:
                trace.gradient_snapshots.append(GradientSnapshot(iteration, grad_fn(dist.mu)))

        warm_cfg = replace(nes_config, max_iterations=warmup_iterations)
        dist = SeparableDistribution(mu=mu, sigma=np.full(d, float(sigma_init)))
        mu, trace = optimize(
            loss_fn, dist, warm_cfg, rng,
            trace=trace, fitness_batch=loss_batch, callback=maybe_snapshot,
        )
        last = trace.gradient_snapshots[-1]
        if last.iteration != trace.iterations[-1]:
            trace.gradient_snapshots.append(
                GradientSnapshot(trace.iterations[-1], grad_fn(mu))
            )

    return gradient_descent(loss_fn, grad_fn, mu, gd_config, trace)
