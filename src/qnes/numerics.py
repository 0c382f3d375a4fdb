"""Deterministic random streams and the matrix exponential of the full-covariance strategy."""

from __future__ import annotations

import numpy as np

__all__ = [
    "SeededRng",
    "matrix_exponential_symmetric",
]

SYMMETRY_TOL = 1e-10


class SeededRng:
    """Counter-based random stream, reproducible across platforms and schedules.

    A stream is identified by (seed, spawn path); the same identity always replays
    the same draw sequence, and distinct identities are statistically independent.
    ``stream(i)`` derives child stream ``i``; children are cached on the parent so
    repeated lookups keep advancing the same child state. ``spawn(i)`` returns the
    same child from its first draw without caching it, for one-shot streams such
    as one per scan initialization. Per-walker child streams make results
    independent of evaluation order.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if stream_id < 0:
            raise ValueError("stream_id must be a non-negative integer")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = _path
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=_path + (self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))
        self._children: dict[int, SeededRng] = {}

    def spawn(self, child_id: int) -> "SeededRng":
        """Child stream ``child_id`` at its first draw; the parent keeps no reference."""
        return SeededRng(self.seed, child_id, self._path + (self.stream_id,))

    def stream(self, child_id: int) -> "SeededRng":
        """Independent child stream; cached so its state persists across calls."""
        child = self._children.get(child_id)
        if child is None:
            child = self._children[child_id] = self.spawn(child_id)
        return child

    def normal(self, d: int, out: np.ndarray | None = None) -> np.ndarray:
        if d < 1:
            raise ValueError("dimension must be >= 1")
        return self._gen.standard_normal(d, out=out)

    def uniform(self, d: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if d < 1:
            raise ValueError("dimension must be >= 1")
        return self._gen.uniform(low, high, size=d)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def matrix_exponential_symmetric(g: np.ndarray) -> np.ndarray:
    """exp(G) for symmetric G via eigendecomposition.

    Satisfies det(exp(G)) = exp(trace(G)); in particular traceless G maps to a
    unit-determinant result, which is what keeps the shape matrix normalized
    across full-covariance updates.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError(f"matrix must be a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix must have finite entries")
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
        raise ValueError(f"matrix must be symmetric within {SYMMETRY_TOL:g}")
    w, v = np.linalg.eigh(g)
    return (v * np.exp(w)) @ v.T
