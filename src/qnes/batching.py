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

from .nes import NesConfig, _optimize_blocks, initial_distribution
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
            raise ValueError(f"strategy must be one of {', '.join(STRATEGY_KINDS)}, "
                             f"got {self.kind!r}")

    def check(self, num_params: int) -> None:
        """Raise ValueError unless a sized kind's batch_size is in [1, num_params]."""
        if self.kind in SIZED_KINDS and not 1 <= (self.batch_size or 0) <= num_params:
            raise ValueError(f"batch_size must be in [1, {num_params}] (the circuit's parameter "
                             f"count) for {self.kind}, got {self.batch_size}")


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


def _blocks(labels, batch_size: int) -> list[np.ndarray]:
    # contiguous label groups whose combined slot count approximately fills batch_size;
    # batch_size 1 gives one batch per label
    labels = np.asarray(labels)
    batches: list[np.ndarray] = []
    current: list[np.ndarray] = []
    count = 0
    for value in np.unique(labels):
        group = np.flatnonzero(labels == value)
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
    strategy.check(num_params)
    if strategy.kind == "random":
        batches = _chunk(rng.permutation(num_params), strategy.batch_size)
    else:
        layers = strategy.kind.startswith("layer")
        size = strategy.batch_size if strategy.kind in SIZED_KINDS else 1  # *_wise: one label
        batches = _blocks(template.slot_layers if layers else template.slot_qubits, size)
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
    mu = np.array(initial_mu, dtype=float)
    if mu.ndim != 1 or mu.size != schedule.num_params:
        raise ValueError("initial_mu length must match the schedule's parameter count")
    blocks = [(idx, initial_distribution(variant, mu[idx], sigma_init))
              for idx in schedule.batches]
    return _optimize_blocks(fitness, blocks, mu, config, rng, trace, n_workers)
