"""Analytical parameter-shift gradients, the gradient-descent baseline, the
surrogate-gradient variance scan, and the warm-up-then-descend hybrid strategy.

Every trainable gate is a Pauli rotation, so shifting one parameter by +/- pi/2
gives the exact derivative of any expectation value from two circuit runs:
dE/dtheta_j = (E(theta_j + pi/2) - E(theta_j - pi/2)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nes import NesConfig, initial_distribution, optimize
from .numerics import SeededRng
from .simulator import (
    PauliSum,
    pauli_expectation_batch,
    run_circuit_batch,
    vacuum_projector_expectation,
)
from .trace import GradientSnapshot, RunTrace

SHIFT = np.pi / 2
# Rows per chunk: CHUNK_BYTES of one statevector per row. A chunk holds more: the kernel's
# (2, R, 2**Q) block of states and temporaries (32 B per row-amplitude, plus about 100 B
# per row and varying column while its factors are built), then the observable's three
# temporaries (48 B) beside it, about 5x CHUNK_BYTES: 320 MiB for 1024 rows at 12 qubits.
CHUNK_BYTES = 1 << 26


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
    template, params: np.ndarray, observable: PauliSum | None = None, components=None
) -> np.ndarray:
    """Exact expectation derivatives by parameter shift, two circuit rows per component.

    components=None gives the full gradient from 2 * num_params rows; a sequence
    of parameter indices gives those derivatives, in the order given, from
    2 * len(components) rows. Rows are evaluated independently, so a component
    is bit-identical to the same entry of the full gradient.
    """
    params = np.asarray(params, dtype=float)
    p = template.num_params
    index = np.arange(p) if components is None else np.asarray(components, dtype=int).ravel()
    if np.any((index < 0) | (index >= p)):
        raise ValueError(f"components must be parameter indices in [0, {p})")
    n = index.size
    shifted = np.repeat(params[None, :], 2 * n, axis=0)
    shifted[np.arange(n), index] += SHIFT
    shifted[n + np.arange(n), index] -= SHIFT
    values = expectation_values(template, shifted, observable)
    return (values[:n] - values[n:]) / 2.0


def stateprep_loss_gradient(template, params: np.ndarray) -> np.ndarray:
    """Chain rule for the squared state-preparation loss (1 - E)**2."""
    e = expectation_values(template, np.asarray(params, dtype=float)[None, :], None)[0]
    return -2.0 * (1.0 - e) * parameter_shift_expectation_gradient(template, params, None)


def loss_functions(template, observable: PauliSum | None = None):
    """(loss, loss gradient): the energy of observable, or state prep (1 - E)**2 if None.

    The loss maps a (B, P) matrix of parameter rows to B values; the gradient takes one
    parameter vector.
    """
    if observable is None:
        return (lambda rows: (1.0 - expectation_values(template, rows, None)) ** 2,
                lambda z: stateprep_loss_gradient(template, z))
    return (lambda rows: expectation_values(template, rows, observable),
            lambda z: parameter_shift_expectation_gradient(template, z, observable))


@dataclass
class GdConfig:
    """Vanilla gradient-descent controls."""

    learning_rate: float
    max_iterations: int = 1000
    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


def gradient_descent(
    loss,
    grad_fn,
    initial_params: np.ndarray,
    config: GdConfig,
    trace: RunTrace | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """theta <- theta - eta * grad until the gradient norm drops below tolerance.

    `loss` maps a matrix of parameter rows to their losses. The trace charges
    2 * num_params + 1 evaluations per iteration (the parameter-shift gradient
    plus the recorded loss). A trace that already has rows is continued:
    iterations and evaluations count on from its last row, and no new row 0 is
    recorded.
    """
    x = np.array(initial_params, dtype=float)
    evals_per_iteration = 2 * x.size + 1
    if trace is None:
        trace = RunTrace()
    value = float(loss(x[None, :])[0])
    if not np.isfinite(value):
        raise RuntimeError("loss diverged at the initial point")
    if not len(trace):
        trace.record(0, 0, value, 0.0)
    start, start_evals = trace.iterations[-1], trace.evaluations[-1]
    for iteration in range(1, config.max_iterations + 1):
        grad = np.asarray(grad_fn(x), dtype=float)
        if float(np.linalg.norm(grad)) < config.tolerance:
            break
        x = x - config.learning_rate * grad
        value = float(loss(x[None, :])[0])
        if not np.isfinite(value):
            raise RuntimeError(f"loss diverged at iteration {iteration}")
        trace.record(start + iteration, start_evals + iteration * evals_per_iteration, value, 0.0)
    return x, trace


@dataclass
class VarianceScanConfig:
    """Grid for the surrogate-vs-analytical gradient variance experiment."""

    num_inits: int
    sigma_values: tuple[float, ...]
    walker_counts: tuple[int, ...]
    observable: PauliSum

    def __post_init__(self):
        if self.num_inits < 2:
            raise ValueError("num_inits must be >= 2 for a variance")
        if not self.sigma_values or not all(np.isfinite(s) and s > 0 for s in self.sigma_values):
            raise ValueError(f"sigma_values must be one or more finite values > 0, "
                             f"got {self.sigma_values}")
        if not self.walker_counts or min(self.walker_counts) < 1:
            raise ValueError(f"walker_counts must be one or more counts >= 1, "
                             f"got {self.walker_counts}")
        # the scan keys its estimates by (sigma, k): a repeated entry would overwrite a cell
        for name in ("sigma_values", "walker_counts"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")


@dataclass(frozen=True)
class VarianceScanRow:
    sigma_init: float
    walkers: int
    variance_surrogate: float
    variance_exact: float


def local_cost_observable(num_qubits: int) -> PauliSum:
    """Default two-qubit local cost Z0 Z1."""
    return PauliSum.build(num_qubits, [(1.0, {0: "Z", 1: "Z"})])


def surrogate_gradient_variance_scan(template, config: VarianceScanConfig,
                                     rng: SeededRng) -> list[VarianceScanRow]:
    """Variance across random initializations of the template's first gradient component.

    For every (sigma_init, walkers) cell the surrogate is the search-gradient
    estimate. The exact column is `analytical_gradient_variance` over the same
    initializations: 2 shifted rows each (not 2P: only component 0 is reported).
    Parameters are drawn uniformly in [0, 2*pi), one uncached child stream per
    initialization, which replays the same point for both columns. Each cell
    runs k rows per initialization.
    """
    p = template.num_params
    combos = [(s, k) for s in config.sigma_values for k in config.walker_counts]
    surrogate = {combo: np.empty(config.num_inits) for combo in combos}
    variance_exact = analytical_gradient_variance(template, config.observable,
                                                  config.num_inits, rng)
    block = np.empty((max(config.walker_counts), p))
    for i in range(config.num_inits):
        stream = rng.spawn(i)
        theta = stream.uniform(p, 0.0, 2.0 * np.pi)
        for sigma, k in combos:
            samples = block[:k]
            for row in samples:
                stream.normal(p, out=row)
            forward = expectation_values(template, theta + sigma * samples, config.observable)
            surrogate[(sigma, k)][i] = (forward @ samples[:, 0]) / (k * sigma)
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
    """Variance of one analytical gradient component over uniform random initializations.

    Initialization i draws from uncached child stream i and runs 2 shifted rows.
    """
    if num_inits < 2:
        raise ValueError("num_inits must be >= 2 for a variance")
    values = np.empty(num_inits)
    for i in range(num_inits):
        theta = rng.spawn(i).uniform(template.num_params, 0.0, 2.0 * np.pi)
        values[i] = parameter_shift_expectation_gradient(
            template, theta, observable, components=(component,))[0]
    return float(np.var(values, ddof=1))


def hybrid_optimize(
    loss,
    grad_fn,
    mu: np.ndarray,
    warmup_iterations: int,
    nes_config: NesConfig,
    gd_config: GdConfig,
    rng: SeededRng,
    sigma_init: float = 0.1,
) -> tuple[np.ndarray, RunTrace]:
    """Separable-strategy warm-up from mu, then plain gradient descent from the reached center.

    `loss` and `grad_fn` are as returned by `loss_functions`. Analytical-gradient
    snapshots are recorded at iteration 0 and, when the warm-up ran at least one
    iteration, at its end; they are the data behind violin-style gradient-spread plots.
    """
    if warmup_iterations < 0:
        raise ValueError("warmup_iterations must be >= 0")
    mu = np.array(mu, dtype=float)
    trace = RunTrace()
    trace.gradient_snapshots.append(GradientSnapshot(0, grad_fn(mu)))

    if warmup_iterations > 0:
        warm_cfg = replace(nes_config, max_iterations=warmup_iterations)
        dist = initial_distribution("snes", mu, sigma_init)
        mu, trace = optimize(loss, dist, warm_cfg, rng, trace=trace)
        if trace.iterations[-1] > 0:
            trace.gradient_snapshots.append(GradientSnapshot(trace.iterations[-1], grad_fn(mu)))

    return gradient_descent(loss, grad_fn, mu, gd_config, trace)
