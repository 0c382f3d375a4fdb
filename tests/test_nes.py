import math

import numpy as np
import pytest

from qnes.nes import (
    FullDistribution,
    NesConfig,
    SeparableDistribution,
    compute_utilities,
    default_learning_rates,
    initial_distribution,
    optimize,
    sample_walkers,
    snes_step,
    xnes_step,
)
from qnes.numerics import SeededRng
from qnes.trace import RunTrace


def sphere(rows):
    return np.sum(rows * rows, axis=1)


class TestUtilities:
    def test_k2(self):
        assert np.allclose(compute_utilities(2), [0.5, -0.5], atol=1e-15)

    def test_k4_values(self):
        assert np.allclose(compute_utilities(4), [0.4804, 0.0196, -0.25, -0.25], atol=1e-4)

    def test_invariants_k2_to_64(self):
        for k in range(2, 65):
            u = compute_utilities(k)
            assert abs(u.sum()) < 1e-12
            assert np.all(np.diff(u) <= 1e-15)
            bottom = k // 2
            assert np.allclose(u[-bottom:], -1.0 / k, atol=1e-15)

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="population"):
            compute_utilities(1)

    def test_one_shared_read_only_array_per_k(self):
        u = compute_utilities(6)
        assert compute_utilities(6) is u
        with pytest.raises(ValueError, match="read-only"):
            u[0] = 0.0


class TestLearningRates:
    def test_d1(self):
        assert default_learning_rates(1) == (1.0, 1.8, 0.6)

    def test_d16(self):
        _, eta_scale, eta_sigma = default_learning_rates(16)
        denom = 5 * 16 * math.sqrt(16)
        assert abs(eta_scale - (9 + 3 * math.log(16)) / denom) < 1e-15
        assert abs(eta_sigma - (3 + math.log(16)) / denom) < 1e-15

    def test_d50(self):
        _, _, eta_sigma = default_learning_rates(50)
        assert abs(eta_sigma - (3 + math.log(50)) / (5 * 50 * math.sqrt(50))) < 1e-15


class TestSampling:
    def test_zero_perturbation_maps_to_mu(self):
        mu = np.array([1.0, -2.0])
        for dist in (
            SeparableDistribution(mu, np.array([0.5, 0.5])),
            SeparableDistribution(mu, np.array([2.0, 3.0])),
            FullDistribution.isotropic(mu, 0.5),
        ):
            assert np.allclose(dist.to_task(np.zeros((3, 2))), mu)

    def test_separable_componentwise(self):
        dist = SeparableDistribution(np.zeros(2), np.array([2.0, 3.0]))
        assert np.allclose(dist.to_task(np.array([[1.0, -1.0]])), [[2.0, -3.0]])

    def test_full_with_identity_shape_matches_isotropic(self, rng):
        mu = np.array([0.3, -0.7, 1.1])
        samples = rng.normal(12).reshape(4, 3)
        iso = SeparableDistribution(mu, np.full(3, 0.4)).to_task(samples)
        full = FullDistribution.isotropic(mu, 0.4).to_task(samples)
        assert np.allclose(iso, full)

    def test_full_applies_shape_on_the_sample(self):
        shape = np.array([[1.0, 0.5], [0.0, 1.0]])
        dist = FullDistribution(np.zeros(2), 2.0, shape)
        s = np.array([[1.0, 1.0]])
        # z = mu + sigma * B s, the same side the exponential B update acts on
        assert np.allclose(dist.to_task(s), (2.0 * shape @ s[0])[None, :])

    def test_deterministic_per_walker_streams(self):
        dist = SeparableDistribution(np.zeros(3), np.ones(3))
        a = sample_walkers(dist, 4, SeededRng(5))
        b = sample_walkers(dist, 4, SeededRng(5))
        assert np.array_equal(a, b)
        assert np.array_equal(dist.to_task(a), dist.to_task(b))
        replay = SeededRng(5)
        assert np.array_equal(a, [replay.stream(n).normal(3) for n in range(4)])

    def test_walker_streams_advance_between_iterations(self):
        dist = SeparableDistribution(np.zeros(3), np.ones(3))
        rng = SeededRng(5)
        first = sample_walkers(dist, 4, rng)
        second = sample_walkers(dist, 4, rng)
        assert not np.array_equal(first, second)

    def test_invalid_population(self):
        dist = SeparableDistribution(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="population"):
            sample_walkers(dist, 0, SeededRng(0))


class TestSnesStep:
    def test_hand_example(self):
        # 1-D, mu=1, sigma=0.5, s=(+1,-1), f(z)=z^2: best walker is s=-1
        dist = SeparableDistribution(np.array([1.0]), np.array([0.5]))
        samples = np.array([[1.0], [-1.0]])
        points = dist.to_task(samples)
        new = snes_step(dist, samples, points[:, 0] ** 2)
        assert np.allclose(new.mu, [0.5])
        assert np.allclose(new.sigma, [0.5])  # grad_sigma = 0 since s**2 = 1

    def test_equal_fitness_tie_break_keeps_updates_bounded(self):
        dist = SeparableDistribution(np.zeros(2), np.ones(2))
        rng = SeededRng(1)
        samples = sample_walkers(dist, 6, rng)
        new = snes_step(dist, samples, np.full(6, 3.14))
        assert np.all(np.isfinite(new.mu)) and np.all(new.sigma > 0)

    def test_unit_squared_samples_leave_sigma(self):
        dist = SeparableDistribution(np.zeros(2), np.array([0.3, 0.9]))
        samples = np.array([[1.0, -1.0], [-1.0, 1.0]])
        new = snes_step(dist, samples, np.array([1.0, 2.0]))
        assert np.allclose(new.sigma, dist.sigma)

    def test_non_finite_fitness_rejected(self):
        dist = SeparableDistribution(np.zeros(2), np.ones(2))
        samples = sample_walkers(dist, 4, SeededRng(0))
        with pytest.raises(ValueError, match="finite"):
            snes_step(dist, samples, np.array([1.0, np.nan, 0.0, 2.0]))

    def test_sigma_positivity_over_many_steps(self):
        dist = SeparableDistribution(np.zeros(4), np.full(4, 0.3))
        rng = SeededRng(9)
        for _ in range(500):
            samples = sample_walkers(dist, 8, rng)
            dist = snes_step(dist, samples, sphere(dist.to_task(samples)))
            assert np.all(dist.sigma > 0)


class TestXnesStep:
    def test_zero_utility_gradient_keeps_sigma_and_shape(self):
        # identical samples make grad_M = sum(u) * (ss^T - I) vanish with the utilities' sum
        dist = FullDistribution.isotropic(np.zeros(2), 0.5)
        samples = np.array([[1.0, 0.0], [1.0, 0.0]])
        new = xnes_step(dist, samples, np.array([1.0, 2.0]))
        assert np.isclose(new.sigma, dist.sigma, rtol=1e-12)
        assert np.allclose(new.shape, dist.shape, atol=1e-12)
        assert np.isclose(abs(np.linalg.det(new.shape)), 1.0, atol=1e-10)

    def test_d1_matches_snes(self):
        # at d = 1 both steps take eta_mu = 1; the sigma rates are 1.8 (xnes) and 0.6 (snes)
        rng = SeededRng(4)
        mu = np.array([0.8])
        assert default_learning_rates(1) == (1.0, 1.8, 0.6)
        sep = SeparableDistribution(mu, np.array([0.4]))
        full = FullDistribution(mu, 0.4, np.eye(1))
        samples = sample_walkers(sep, 6, rng)
        fitnesses = sphere(sep.to_task(samples))
        new_sep = snes_step(sep, samples, fitnesses)
        new_full = xnes_step(full, samples, fitnesses)
        assert np.allclose(new_full.mu, new_sep.mu, atol=1e-14)
        assert np.isclose(np.log(new_full.sigma / 0.4), 3 * np.log(new_sep.sigma[0] / 0.4),
                          atol=1e-14)
        assert np.allclose(new_full.shape, np.eye(1))

    def test_shape_gradient_is_traceless(self, rng):
        # det(exp(eta/2 * grad_B)) = 1, so |det B| survives every update
        dist = FullDistribution.isotropic(np.zeros(3), 0.7)
        for _ in range(50):
            samples = sample_walkers(dist, 8, rng)
            dist = xnes_step(dist, samples, sphere(dist.to_task(samples)))
            assert abs(abs(np.linalg.det(dist.shape)) - 1.0) < 1e-8


class TestRankInvariance:
    def test_monotone_transform_bit_identical(self):
        rng = SeededRng(12)
        transforms = [
            lambda f: 2.0 * f + 3.0,
            lambda f: f**3,
            lambda f: np.exp(f),
            lambda f: np.arctan(f),
        ]
        for trial in range(100):
            d = 3
            sep = SeparableDistribution(rng.normal(d), np.full(d, 0.5))
            full = FullDistribution.isotropic(rng.normal(d), 0.5)
            samples = sample_walkers(sep, 8, rng)
            fits = rng.normal(8)
            transform = transforms[trial % len(transforms)]
            base_sep = snes_step(sep, samples, fits)
            base_full = xnes_step(full, samples, fits)
            same_sep = snes_step(sep, samples, transform(fits))
            same_full = xnes_step(full, samples, transform(fits))
            assert np.array_equal(base_sep.mu, same_sep.mu)
            assert np.array_equal(base_sep.sigma, same_sep.sigma)
            assert np.array_equal(base_full.mu, same_full.mu)
            assert base_full.sigma == same_full.sigma
            assert np.array_equal(base_full.shape, same_full.shape)


def same_distribution(a, b):
    """Same type and bit-identical fields."""
    return type(a) is type(b) and vars(a).keys() == vars(b).keys() and all(
        np.array_equal(vars(a)[name], vars(b)[name]) for name in vars(a))


class TestInitialDistribution:
    """initial_distribution builds the objects the harness, batch and hybrid runners built."""

    @pytest.mark.parametrize("sigma_init", [0.1, 0.25, 1])
    def test_snes(self, sigma_init):
        mu = SeededRng(3).uniform(7, 0, 2 * np.pi)
        built = initial_distribution("snes", mu, sigma_init)
        assert same_distribution(built, SeparableDistribution(mu=mu, sigma=np.full(7, sigma_init)))
        idx = np.array([1, 4, 5])
        assert same_distribution(
            initial_distribution("snes", mu[idx], sigma_init),
            SeparableDistribution(mu=mu[idx], sigma=np.full(len(idx), float(sigma_init))))
        assert built.sigma.dtype == np.float64

    @pytest.mark.parametrize("sigma_init", [0.1, 0.25, 1])
    def test_xnes(self, sigma_init):
        mu = SeededRng(4).uniform(5, 0, 2 * np.pi)
        built = initial_distribution("xnes", mu, sigma_init)
        assert same_distribution(built, FullDistribution.isotropic(mu, sigma_init))
        assert np.array_equal(built.shape, np.eye(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="gd"):
            initial_distribution("gd", np.zeros(2), 0.1)

    def test_non_positive_width_rejected(self):
        for kind in ("snes", "xnes"):
            with pytest.raises(ValueError, match="sigma"):
                initial_distribution(kind, np.zeros(2), 0.0)


class TestOptimize:
    def test_converged_distribution_returns_immediately(self):
        dist = SeparableDistribution(np.array([1.0, 2.0]), np.full(2, 1e-9))
        mu, trace = optimize(sphere, dist, NesConfig(population=4), SeededRng(0))
        assert np.allclose(mu, [1.0, 2.0])
        assert len(trace) == 1 and trace.iterations == [0]

    def test_sphere_converges(self):
        rng = SeededRng(0)
        dist = SeparableDistribution(rng.uniform(4, -2, 2), np.ones(4))
        mu, trace = optimize(sphere, dist, NesConfig(population=16, max_iterations=300), rng)
        assert sphere(mu[None, :])[0] < 1e-6

    def test_evaluation_accounting_is_k_per_iteration(self):
        rng = SeededRng(1)
        dist = SeparableDistribution(np.ones(3), np.full(3, 0.5))
        _, trace = optimize(sphere, dist, NesConfig(population=7, max_iterations=9), rng)
        assert trace.evaluations == [7 * t for t in range(10)]

    def test_partial_trace_preserved_on_evaluation_error(self):
        calls = {"n": 0}

        def flaky(rows):
            calls["n"] += len(rows)
            if calls["n"] > 10:
                raise RuntimeError("backend down")
            return sphere(rows)

        rng = SeededRng(3)
        dist = SeparableDistribution(np.ones(2), np.full(2, 0.5))
        sink = RunTrace()
        with pytest.raises(RuntimeError, match="backend down"):
            optimize(flaky, dist, NesConfig(population=4, max_iterations=50), rng, trace=sink)
        assert len(sink) >= 2  # initial row plus at least one completed iteration

    def test_population_floor_for_shaped_variants(self):
        dist = SeparableDistribution(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="population"):
            optimize(sphere, dist, NesConfig(population=1), SeededRng(0))

    def test_xnes_stopping_uses_covariance_entries(self):
        dist = FullDistribution.isotropic(np.zeros(2), 1e-5)
        assert np.isclose(dist.spread(), 1e-10)
        mu, trace = optimize(sphere, dist, NesConfig(population=4, stop_threshold=1e-8),
                             SeededRng(0))
        assert len(trace) == 1
