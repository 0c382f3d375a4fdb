"""Batch optimization: partition circuit parameters and update one batch per iteration.

The partition is fixed for the whole run; batches are visited round-robin. Each
iteration performs one evolution-strategy step on the active batch's coordinates
while every other parameter stays frozen at its current mean value. Per-batch
spreads (sigma, and the shape matrix in full-covariance mode) persist across
visits, and learning rates are derived from the batch dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nes import FullDistribution, NesConfig, SeparableDistribution, _optimize_blocks
from .numerics import SeededRng
from .trace import RunTrace

STRATEGY_KINDS = ("random", "layer_wise", "qubit_wise", "layer_block", "qubit_block")
SIZED_KINDS = ("random", "layer_block", "qubit_block")  # the kinds that need batch_size


@dataclass(frozen=True)
class PartitionStrategy:
    """How to split parameter indices into batches.

    batch_size is required for random/layer_block/qubit_block and ignored for
    layer_wise/qubit_wise, where the circuit structure fixes the batch sizes.
    """

    kind: str
    batch_size: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown partition strategy {self.kind!r}")


@dataclass
class BatchSchedule:
    """Ordered, disjoint, exhaustive index batches, visited round-robin from the first."""

    num_params: int
    batches: tuple[np.ndarray, ...]

    def __post_init__(self):
        flat = np.concatenate([np.asarray(b, dtype=int) for b in self.batches]) \
            if self.batches else np.array([], dtype=int)
        if not np.array_equal(np.sort(flat), np.arange(self.num_params)):
            raise ValueError("batches must cover every parameter index exactly once")


def _chunk(indices: np.ndarray, size: int) -> list[np.ndarray]:
    return [np.sort(indices[i:i + size]) for i in range(0, indices.size, size)]


def _grouped(labels) -> list[np.ndarray]:
    labels = np.asarray(labels)
    return [np.flatnonzero(labels == value) for value in np.unique(labels)]


def _blocks(labels, batch_size: int) -> list[np.ndarray]:
    # contiguous label groups whose combined slot count approximately fills batch_size
    batches: list[np.ndarray] = []
    current: list[np.ndarray] = []
    count = 0
    for group in _grouped(labels):
        if current and count + group.size > batch_size:
            batches.append(np.sort(np.concatenate(current)))
            current, count = [], 0
        current.append(group)
        count += group.size
    if current:
        batches.append(np.sort(np.concatenate(current)))
    return batches


def make_partition(template, strategy: PartitionStrategy, rng: SeededRng) -> BatchSchedule:
    """Build the fixed batch schedule for a template under the given strategy."""
    num_params = template.num_params
    if strategy.kind in SIZED_KINDS:
        if strategy.batch_size is None or not 1 <= strategy.batch_size <= num_params:
            raise ValueError(
                f"batch_size must be in [1, {num_params}] for strategy {strategy.kind!r}"
            )
    if strategy.kind == "random":
        batches = _chunk(rng.permutation(num_params), strategy.batch_size)
    elif strategy.kind == "layer_wise":
        batches = _grouped(template.slot_layers)
    elif strategy.kind == "qubit_wise":
        batches = _grouped(template.slot_qubits)
    elif strategy.kind == "layer_block":
        batches = _blocks(template.slot_layers, strategy.batch_size)
    else:
        batches = _blocks(template.slot_qubits, strategy.batch_size)
    return BatchSchedule(num_params=num_params, batches=tuple(batches))


def batch_optimize(
    fitness,
    schedule: BatchSchedule,
    initial_mu: np.ndarray,
    sigma_init: float,
    config: NesConfig,
    rng: SeededRng,
    variant: str = "snes",
    trace: RunTrace | None = None,
    n_workers: int = 0,
) -> tuple[np.ndarray, RunTrace]:
    """Round-robin per-batch optimization with all other parameters frozen.

    With a single batch covering every parameter this reduces exactly to the
    plain optimizer (same draws, same arithmetic, same trace).
    """
    if variant not in ("snes", "xnes"):
        raise ValueError(f"batch optimization supports snes or xnes, got {variant!r}")
    mu = np.array(initial_mu, dtype=float)
    if mu.ndim != 1 or mu.size != schedule.num_params:
        raise ValueError("initial_mu length must match the schedule's parameter count")
    if not sigma_init > 0:
        raise ValueError("sigma_init must be positive")

    def block(idx):
        if variant == "snes":
            return SeparableDistribution(mu=mu[idx], sigma=np.full(len(idx), float(sigma_init)))
        return FullDistribution.isotropic(mu[idx], sigma_init)

    blocks = [(idx, block(idx)) for idx in schedule.batches]
    return _optimize_blocks(fitness, blocks, mu, config, rng, trace, n_workers)
