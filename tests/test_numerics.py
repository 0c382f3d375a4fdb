import numpy as np
import pytest

from qnes.numerics import (
    SeededRng,
    matrix_exponential_symmetric,
)


class TestSeededRng:
    def test_same_seed_same_draws(self):
        a = SeededRng(7).normal(3)
        b = SeededRng(7).normal(3)
        assert np.array_equal(a, b)

    def test_draw_sequence_is_reproducible(self):
        rng = SeededRng(7)
        first = [rng.normal(4) for _ in range(5)]
        rng2 = SeededRng(7)
        second = [rng2.normal(4) for _ in range(5)]
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_draws_into_a_given_row(self):
        block = np.zeros((2, 3))
        SeededRng(7).normal(3, out=block[1])
        assert np.array_equal(block[1], SeededRng(7).normal(3))
        assert not block[0].any()

    def test_distinct_streams_differ(self):
        a = SeededRng(7, stream_id=0).normal(8)
        b = SeededRng(7, stream_id=1).normal(8)
        assert not np.array_equal(a, b)

    def test_child_streams_persist_state(self):
        rng = SeededRng(3)
        first = rng.stream(2).normal(4)
        second = rng.stream(2).normal(4)
        assert not np.array_equal(first, second)
        replay = SeededRng(3)
        assert np.array_equal(replay.stream(2).normal(4), first)
        assert np.array_equal(replay.stream(2).normal(4), second)

    def test_spawned_child_replays_stream_without_caching(self):
        rng = SeededRng(3)
        spawned = rng.spawn(2).normal(4)
        assert np.array_equal(rng.spawn(2).normal(4), spawned)  # restarts every time
        assert np.array_equal(rng.stream(2).normal(4), spawned)  # cached child untouched

    def test_child_streams_independent_of_sibling_order(self):
        rng = SeededRng(3)
        a_first = rng.stream(0).normal(4)
        rng2 = SeededRng(3)
        rng2.stream(1).normal(4)  # touch a sibling first
        assert np.array_equal(rng2.stream(0).normal(4), a_first)

    def test_mean_near_zero(self):
        rng = SeededRng(123)
        draws = rng.normal(100_000)
        assert abs(draws.mean()) < 0.02

    def test_variance_near_one(self):
        rng = SeededRng(123)
        draws = rng.normal(100_000)
        assert abs(draws.var() - 1.0) < 0.05

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SeededRng(1).normal(0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SeededRng(-1)


class TestMatrixExponentialSymmetric:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(matrix_exponential_symmetric(np.zeros((2, 2))), np.eye(2))

    def test_diagonal_case(self):
        g = np.diag([np.log(2.0), np.log(3.0)])
        assert np.allclose(matrix_exponential_symmetric(g), np.diag([2.0, 3.0]), atol=1e-12)

    def test_offdiagonal_hand_eigendecomposition(self):
        # eigenvalues +/-1 with eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]])
        assert np.allclose(matrix_exponential_symmetric(g), expected, atol=1e-12)

    def test_inverse_property(self, rng):
        for d in range(2, 9):
            m = rng.normal(d * d).reshape(d, d)
            g = (m + m.T) / 2
            prod = matrix_exponential_symmetric(g) @ matrix_exponential_symmetric(-g)
            assert np.max(np.abs(prod - np.eye(d))) < 1e-8

    def test_determinant_equals_exp_trace(self, rng):
        for d in range(2, 9):
            m = rng.normal(d * d).reshape(d, d)
            g = (m + m.T) / 2
            det = np.linalg.det(matrix_exponential_symmetric(g))
            assert abs(det - np.exp(np.trace(g))) <= 1e-8 * abs(np.exp(np.trace(g)))

    def test_traceless_input_has_unit_determinant(self, rng):
        for d in range(2, 9):
            m = rng.normal(d * d).reshape(d, d)
            g = (m + m.T) / 2
            g -= np.trace(g) / d * np.eye(d)
            assert abs(np.linalg.det(matrix_exponential_symmetric(g)) - 1.0) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exponential_symmetric(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            matrix_exponential_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
