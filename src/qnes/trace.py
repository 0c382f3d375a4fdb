"""Per-iteration run records shared by the optimizers and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradientSnapshot:
    """Analytical loss gradient over every parameter at one optimizer iteration."""

    iteration: int
    components: np.ndarray


@dataclass
class RunTrace:
    """Loss/evaluation/spread history of one optimization run.

    Row 0 is the initial state (0 evaluations); each later row is the state after
    one optimizer iteration. Iterations are consecutive from 0 and cumulative
    evaluation counts are strictly increasing.
    """

    iterations: list[int] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    spreads: list[float] = field(default_factory=list)
    batch_cursors: list[int] = field(default_factory=list)
    gradient_snapshots: list[GradientSnapshot] = field(default_factory=list)

    def record(self, iteration: int, evaluations: int, loss: float, spread: float,
               batch_cursor: int = 0) -> None:
        expected = self.iterations[-1] + 1 if self.iterations else 0
        if iteration != expected:
            raise ValueError(f"iterations must be consecutive: expected {expected}, got {iteration}")
        if self.evaluations and evaluations <= self.evaluations[-1]:
            raise ValueError("cumulative evaluations must be strictly increasing")
        self.iterations.append(int(iteration))
        self.evaluations.append(int(evaluations))
        self.losses.append(float(loss))
        self.spreads.append(float(spread))
        self.batch_cursors.append(int(batch_cursor))

    def rows(self):
        return list(zip(self.iterations, self.evaluations, self.losses, self.spreads,
                        self.batch_cursors))

    def __len__(self) -> int:
        return len(self.iterations)
