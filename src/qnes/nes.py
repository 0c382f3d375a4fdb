"""Evolution-strategy optimizers over Gaussian search distributions.

The paper's two variants (Wierstra et al., arXiv:1106.4487), both minimizing a
black-box fitness with rank-based utilities and the dimension-dependent
learning rates of `default_learning_rates`:

- separable (sNES): per-coordinate standard deviations, multiplicative
  exponential sigma updates;
- full (xNES): global scale sigma plus a unit-determinant shape matrix B updated
  in exponential coordinates; the covariance factor is sigma * B.

A step is a function of what it reads: `dist.step(samples, fitnesses)` maps one
generation's (k, d) local samples and their k fitnesses to the next distribution.
The fitness maps a (k, d) matrix of walker rows to k values and is called once
per generation; how it evaluates them is its own choice (`gradients.expectation_values`
splits a large batch over the CPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import SeededRng, matrix_exponential_symmetric
from .trace import RunTrace

__all__ = [
    "SeparableDistribution",
    "FullDistribution",
    "NesConfig",
    "initial_distribution",
    "compute_utilities",
    "default_learning_rates",
    "sample_walkers",
    "snes_step",
    "xnes_step",
    "optimize",
]


@dataclass
class SeparableDistribution:
    """Mean plus independent per-coordinate standard deviations."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must have the same shape")
        if not np.isfinite(self.mu).all():
            raise ValueError("mu must be finite")
        if not (self.sigma > 0).all():
            raise ValueError("all sigma components must be positive")

    def to_task(self, samples: np.ndarray) -> np.ndarray:
        """Map local-coordinate samples (k, d) to task coordinates."""
        return self.mu + self.sigma * samples

    def spread(self) -> float:
        """Stopping statistic: the largest sigma component."""
        return float(self.sigma.max())

    def step(self, samples: np.ndarray, fitnesses: np.ndarray) -> "SeparableDistribution":
        return snes_step(self, samples, fitnesses)


@dataclass
class FullDistribution:
    """Mean, global scale sigma, and unit-determinant shape matrix B."""

    mu: np.ndarray
    sigma: float
    shape: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.shape = np.asarray(self.shape, dtype=float)
        d = self.mu.size
        if self.shape.shape != (d, d):
            raise ValueError("shape matrix must be d x d")
        if not np.isfinite(self.mu).all() or not np.isfinite(self.shape).all():
            raise ValueError("distribution parameters must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @classmethod
    def isotropic(cls, mu: np.ndarray, sigma: float) -> "FullDistribution":
        mu = np.asarray(mu, dtype=float)
        return cls(mu=mu, sigma=float(sigma), shape=np.eye(mu.size))

    def to_task(self, samples: np.ndarray) -> np.ndarray:
        """Map local-coordinate samples (k, d) to task coordinates."""
        # z_n = mu + sigma * B s_n: the factor side must match the exponential
        # B update (B <- B exp(.)), otherwise the shape feedback is applied in a
        # rotated frame and the coupled dynamics diverge on converged quadratics
        return self.mu + self.sigma * (samples @ self.shape.T)

    def spread(self) -> float:
        """Stopping statistic: the largest |entry| of the covariance sigma^2 B B^T."""
        cov = self.sigma**2 * (self.shape @ self.shape.T)
        return float(np.abs(cov).max())

    def step(self, samples: np.ndarray, fitnesses: np.ndarray) -> "FullDistribution":
        return xnes_step(self, samples, fitnesses)


def initial_distribution(kind: str, mu: np.ndarray, sigma_init: float):
    """The starting distribution of a strategy kind, snes or xnes, of width sigma_init."""
    if kind == "snes":
        return SeparableDistribution(mu=mu, sigma=np.full(np.size(mu), float(sigma_init)))
    if kind == "xnes":
        return FullDistribution.isotropic(mu, sigma_init)
    raise ValueError(f"strategy kind must be snes or xnes, got {kind!r}")


@dataclass
class NesConfig:
    """Walker count and stopping controls.

    The learning rates are not options: every step takes `default_learning_rates`
    of its distribution's dimension (for batch optimization, the batch size).
    """

    population: int
    max_iterations: int = 1000
    stop_threshold: float = 1e-8

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2 for fitness shaping")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@lru_cache(maxsize=64)
def compute_utilities(k: int) -> np.ndarray:
    """Rank-based utility weights, best rank first; they sum to zero.

    u_n = max(0, ln(k/2 + 1) - ln n) / sum_j max(0, ln(k/2 + 1) - ln j) - 1/k
    for ranks n = 1..k. The bottom floor(k/2) entries are all -1/k. Cached per k, read-only.
    """
    if k < 2:
        raise ValueError("population must be >= 2 for fitness shaping")
    ranks = np.arange(1, k + 1, dtype=float)
    raw = np.maximum(0.0, np.log(k / 2 + 1.0) - np.log(ranks))
    utilities = raw / raw.sum() - 1.0 / k
    utilities.flags.writeable = False
    return utilities


def default_learning_rates(d: int) -> tuple[float, float, float]:
    """(eta_mu, eta_scale_or_shape, eta_sigma) defaults for problem dimension d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    denom = 5.0 * d * math.sqrt(d)
    return 1.0, (9.0 + 3.0 * math.log(d)) / denom, (3.0 + math.log(d)) / denom


def sample_walkers(dist, k: int, rng: SeededRng) -> np.ndarray:
    """k local samples (k, d), one independent child stream per walker index."""
    if k < 1:
        raise ValueError("population must be >= 1")
    samples = np.empty((k, dist.mu.size))
    for n, row in enumerate(samples):
        rng.stream(n).normal(row.size, out=row)
    return samples


def _ranked(samples, fitnesses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(utilities, samples best first, utilities @ samples)."""
    fits = np.asarray(fitnesses, dtype=float)
    if not np.isfinite(fits).all():
        raise ValueError("walker fitness values must be finite")
    # ascending fitness = best first (minimization); stable sort breaks ties by walker index
    utilities = compute_utilities(fits.size)
    s_sorted = samples[np.argsort(fits, kind="stable")]
    return utilities, s_sorted, utilities @ s_sorted


def snes_step(dist: SeparableDistribution, samples: np.ndarray,
              fitnesses: np.ndarray) -> SeparableDistribution:
    """One separable update: utility-weighted mean step, exponential sigma step."""
    utilities, s_sorted, grad_mu = _ranked(samples, fitnesses)
    grad_sigma = utilities @ (s_sorted**2 - 1.0)
    eta_mu, _, eta_sigma = default_learning_rates(dist.mu.size)
    mu = dist.mu + eta_mu * dist.sigma * grad_mu
    sigma = dist.sigma * np.exp(0.5 * eta_sigma * grad_sigma)
    return SeparableDistribution(mu=mu, sigma=sigma)


def xnes_step(dist: FullDistribution, samples: np.ndarray,
              fitnesses: np.ndarray) -> FullDistribution:
    """One full-covariance update in exponential coordinates; |det B| stays 1."""
    utilities, s_sorted, grad_mu = _ranked(samples, fitnesses)
    d = dist.mu.size
    eye = np.eye(d)
    grad_m = np.einsum("n,ni,nj->ij", utilities, s_sorted, s_sorted) - utilities.sum() * eye
    grad_scale = np.trace(grad_m) / d
    grad_shape = grad_m - grad_scale * eye
    eta_mu, eta_scale_or_shape, _ = default_learning_rates(d)
    mu = dist.mu + eta_mu * dist.sigma * (dist.shape @ grad_mu)
    sigma = dist.sigma * math.exp(0.5 * eta_scale_or_shape * grad_scale)
    shape = dist.shape @ matrix_exponential_symmetric(0.5 * eta_scale_or_shape * grad_shape)
    # grad_shape is traceless so |det shape| = 1 in exact arithmetic; refactor the
    # float drift into sigma to keep the covariance factor sigma*shape unchanged
    drift = abs(np.linalg.det(shape)) ** (1.0 / d)
    return FullDistribution(mu=mu, sigma=sigma * drift, shape=shape / drift)


def optimize(
    fitness,
    dist,
    config: NesConfig,
    rng: SeededRng,
    trace: RunTrace | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Sample -> evaluate -> step until the spread threshold or max_iterations.

    `fitness` maps a matrix of parameter rows to their fitnesses. Returns the
    final distribution center and the trace. The trace records the loss at the
    center each iteration (one reporting evaluation, not counted); counted
    evaluations grow by exactly k per iteration.
    """
    blocks = [(np.arange(dist.mu.size), dist)]
    return _optimize_blocks(fitness, blocks, np.array(dist.mu), config, rng, trace)


def _optimize_blocks(fitness, blocks, mu: np.ndarray, config: NesConfig, rng: SeededRng,
                     trace: RunTrace | None = None) -> tuple[np.ndarray, RunTrace]:
    """The one strategy loop, over (indices, distribution) blocks of the vector mu.

    Blocks are disjoint and visited round-robin. Each iteration samples the
    active block, evaluates walkers that equal mu outside the block's columns,
    steps the block's distribution and writes its new mean back into mu (in
    place). The spread statistic is the largest spread over all blocks.
    """
    dists = [dist for _, dist in blocks]
    spreads = [dist.spread() for dist in dists]
    trace, k = RunTrace() if trace is None else trace, config.population
    trace.record(0, 0, fitness(mu[None, :])[0], max(spreads))
    for iteration in range(1, config.max_iterations + 1):
        if max(spreads) <= config.stop_threshold:
            break
        active = (iteration - 1) % len(blocks)
        idx = blocks[active][0]
        samples = sample_walkers(dists[active], k, rng)
        points = dists[active].to_task(samples)
        if len(blocks) > 1:  # walkers equal mu outside the block's columns
            points, block = np.repeat(mu[None, :], k, axis=0), points
            points[:, idx] = block
        dist = dists[active] = dists[active].step(samples, fitness(points))
        spreads[active] = dist.spread()
        mu[idx] = dist.mu
        trace.record(iteration, k * iteration, fitness(mu[None, :])[0], max(spreads), active)
    return mu, trace
