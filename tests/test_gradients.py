import numpy as np
import pytest

import qnes.gradients
from qnes.ansatz import build_rpqc, template_from_gates
from qnes.gradients import (
    GdConfig,
    VarianceScanConfig,
    analytical_gradient_variance,
    energy_loss_gradient,
    expectation_values,
    gradient_descent,
    hybrid_optimize,
    local_cost_observable,
    parameter_shift_expectation_gradient,
    stateprep_loss_gradient,
    surrogate_gradient_variance_scan,
)
from qnes.nes import NesConfig
from qnes.numerics import SeededRng
from qnes.simulator import Gate, PauliSum, stateprep_fitness
from qnes.trace import RunTrace


def single_ry():
    return template_from_gates(1, [Gate("RY", (0,), slot=0)])


def finite_difference(fn, params, h=1e-5):
    grad = np.empty(params.size)
    for j in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


class TestParameterShift:
    def test_ry_half_pi(self):
        grad = parameter_shift_expectation_gradient(single_ry(), np.array([np.pi / 2]))
        assert np.isclose(grad[0], -0.5, atol=1e-12)

    def test_extremum_is_zero(self):
        grad = parameter_shift_expectation_gradient(single_ry(), np.array([0.0]))
        assert abs(grad[0]) < 1e-12

    def test_matches_finite_difference_on_random_circuit(self, rng):
        template = build_rpqc(4, 3, structure_seed=21)
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        grad = parameter_shift_expectation_gradient(template, params)
        fd = finite_difference(
            lambda p: expectation_values(template, p[None, :], None)[0], params
        )
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_energy_gradient_matches_finite_difference(self, rng):
        template = build_rpqc(4, 3, structure_seed=22)
        h = PauliSum.build(4, [(0.8, {0: "Z", 1: "Z"}), (-0.5, {2: "X", 3: "Y"})])
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        grad = energy_loss_gradient(template, params, h)
        fd = finite_difference(
            lambda p: expectation_values(template, p[None, :], h)[0], params
        )
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_exact_evaluation_count(self, monkeypatch):
        template = build_rpqc(3, 2, structure_seed=4)
        rows_seen = {"n": 0}
        original = qnes.gradients.run_circuit_batch

        def counting(tmpl, rows):
            rows_seen["n"] += rows.shape[0]
            return original(tmpl, rows)

        monkeypatch.setattr(qnes.gradients, "run_circuit_batch", counting)
        parameter_shift_expectation_gradient(template, np.zeros(template.num_params))
        assert rows_seen["n"] == 2 * template.num_params


class TestStateprepLossGradient:
    def test_chain_rule_hand_value(self):
        grad = stateprep_loss_gradient(single_ry(), np.array([np.pi / 2]))
        # -2 * (1 - 0.5) * (-0.5) = +0.5
        assert np.isclose(grad[0], 0.5, atol=1e-12)

    def test_zero_at_perfect_preparation(self):
        grad = stateprep_loss_gradient(single_ry(), np.array([0.0]))
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_difference(self, rng):
        template = build_rpqc(4, 2, structure_seed=8)
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        grad = stateprep_loss_gradient(template, params)
        fd = finite_difference(lambda p: stateprep_fitness(template, p), params)
        assert np.max(np.abs(grad - fd)) < 1e-6


class TestGradientDescent:
    def test_quadratic_single_step(self):
        x, trace = gradient_descent(
            lambda x: float(x[0] ** 2),
            lambda x: 2 * x,
            np.array([1.0]),
            GdConfig(learning_rate=0.4, max_iterations=1),
        )
        assert np.isclose(x[0], 0.2)
        assert trace.losses == [1.0, pytest.approx(0.04)]

    def test_zero_gradient_terminates_immediately(self):
        x, trace = gradient_descent(
            lambda x: 1.0, lambda x: np.zeros(2), np.zeros(2),
            GdConfig(learning_rate=0.1, max_iterations=50),
        )
        assert len(trace) == 1

    def test_evaluation_accounting(self):
        _, trace = gradient_descent(
            lambda x: float(x @ x), lambda x: 2 * x, np.full(3, 2.0),
            GdConfig(learning_rate=0.1, max_iterations=4),
        )
        assert trace.evaluations == [0, 7, 14, 21, 28]

    def test_continues_a_trace_with_rows(self):
        trace = RunTrace()
        for it in range(3):
            trace.record(it, 4 * it, 1.0, 0.1)
        gradient_descent(lambda x: float(x @ x), lambda x: 2 * x, np.full(3, 2.0),
                         GdConfig(learning_rate=0.1, max_iterations=2), trace)
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert trace.evaluations == [0, 4, 8, 15, 22]
        assert trace.losses[:3] == [1.0, 1.0, 1.0]

    def test_divergence_raises(self):
        # anti-gradient blows the iterate up until the loss leaves the float range
        def loss(x):
            return float(x[0] * x[0]) if abs(x[0]) < 1e100 else float("inf")

        with pytest.raises(RuntimeError, match="diverged"):
            gradient_descent(
                loss, lambda x: np.array([-x[0] * 1e60]),
                np.array([1.0]), GdConfig(learning_rate=1.0, max_iterations=5),
            )

    def test_learning_rate_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            GdConfig(learning_rate=0.0)


class TestVarianceScan:
    def test_constant_fitness_zero_variance(self):
        # f identically 0 makes the single-sided estimate exactly 0 per init
        h = PauliSum.build(2, [(0.0, {0: "Z"})])
        config = VarianceScanConfig(
            num_qubits=2, num_layers=1, structure_seed=0, num_inits=5,
            sigma_values=(0.5,), walker_counts=(2,), observable=h,
        )
        rows = surrogate_gradient_variance_scan(config, SeededRng(0))
        assert rows[0].variance_surrogate == 0.0
        assert rows[0].variance_exact == 0.0

    def test_trends_small_scale(self):
        config = VarianceScanConfig(
            num_qubits=4, num_layers=3, structure_seed=11, num_inits=200,
            sigma_values=(np.pi / 8, np.pi / 32), walker_counts=(1, 8),
            observable=local_cost_observable(4),
        )
        rows = surrogate_gradient_variance_scan(config, SeededRng(1))
        by_cell = {(r.sigma_init, r.walkers): r.variance_surrogate for r in rows}
        assert by_cell[(np.pi / 32, 1)] > by_cell[(np.pi / 8, 1)]
        assert by_cell[(np.pi / 32, 1)] > by_cell[(np.pi / 32, 8)]

    def test_symmetric_estimator_available(self):
        config = VarianceScanConfig(
            num_qubits=3, num_layers=2, structure_seed=3, num_inits=10,
            sigma_values=(0.3,), walker_counts=(2,),
            observable=local_cost_observable(3), estimator="symmetric",
        )
        rows = surrogate_gradient_variance_scan(config, SeededRng(2))
        assert np.isfinite(rows[0].variance_surrogate)

    def test_num_inits_floor(self):
        with pytest.raises(ValueError, match="num_inits"):
            VarianceScanConfig(
                num_qubits=3, num_layers=2, structure_seed=0, num_inits=1,
                sigma_values=(0.3,), walker_counts=(1,),
                observable=local_cost_observable(3),
            )

    def test_analytical_variance_helper(self):
        template = build_rpqc(4, 2, structure_seed=5)
        v = analytical_gradient_variance(template, local_cost_observable(4), 50, SeededRng(7))
        assert v > 0.0


class TestHybridOptimize:
    def test_zero_warmup_is_pure_gradient_descent(self):
        template = build_rpqc(3, 2, structure_seed=9)
        rng = SeededRng(4)
        mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
        params, trace = hybrid_optimize(
            template, 0, NesConfig(population=8), GdConfig(learning_rate=0.1, max_iterations=10),
            SeededRng(4), initial_mu=mu0,
        )
        reference, ref_trace = gradient_descent(
            lambda z: stateprep_fitness(template, z),
            lambda z: stateprep_loss_gradient(template, z),
            mu0, GdConfig(learning_rate=0.1, max_iterations=10),
        )
        assert np.allclose(params, reference)
        assert trace.losses == ref_trace.losses
        assert len(trace.gradient_snapshots) == 1

    def test_snapshots_at_init_and_after_warmup(self):
        template = build_rpqc(3, 3, structure_seed=2)
        _, trace = hybrid_optimize(
            template, 4, NesConfig(population=8),
            GdConfig(learning_rate=0.1, max_iterations=5), SeededRng(1),
        )
        iterations = [snap.iteration for snap in trace.gradient_snapshots]
        assert iterations == [0, 4]
        assert all(s.components.size == template.num_params for s in trace.gradient_snapshots)

    def test_snapshot_interval(self):
        template = build_rpqc(3, 2, structure_seed=2)
        _, trace = hybrid_optimize(
            template, 6, NesConfig(population=8),
            GdConfig(learning_rate=0.1, max_iterations=2), SeededRng(1), snapshot_interval=2,
        )
        assert [s.iteration for s in trace.gradient_snapshots] == [0, 2, 4, 6]

    def test_trace_is_continuous_across_phases(self):
        template = build_rpqc(3, 2, structure_seed=2)
        _, trace = hybrid_optimize(
            template, 3, NesConfig(population=4),
            GdConfig(learning_rate=0.1, max_iterations=4), SeededRng(6),
        )
        assert trace.iterations == list(range(len(trace)))
        assert all(b > a for a, b in zip(trace.evaluations, trace.evaluations[1:]))
        # warm-up burns 4 evaluations per iteration, descent 2 * num_params + 1
        assert trace.evaluations[1] - trace.evaluations[0] == 4
        assert trace.evaluations[-1] - trace.evaluations[-2] == 2 * template.num_params + 1
