import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qnes.gradients
from conftest import force_split, set_cpus
from qnes.ansatz import CircuitTemplate, build_alpqc, build_rpqc
from qnes.gradients import (
    GdConfig,
    VarianceScanConfig,
    analytical_gradient_variance,
    expectation_values,
    gradient_descent,
    hybrid_optimize,
    local_cost_observable,
    loss_functions,
    parameter_shift_expectation_gradient,
    surrogate_gradient_variance_scan,
)
from qnes.nes import NesConfig
from qnes.numerics import SeededRng
from qnes.simulator import Gate, PauliSum
from qnes.trace import RunTrace


def single_ry():
    return CircuitTemplate(1, [Gate("RY", (0,), slot=0)])


def finite_difference(fn, params, h=1e-5):
    grad = np.empty(params.size)
    for j in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def sphere(rows):
    return np.sum(rows * rows, axis=1)


def with_value(loss, grad):
    """The value_and_grad of a toy loss over rows and its gradient function."""
    return lambda x: (float(loss(x[None, :])[0]), grad(x))


def count_kernel_rows(monkeypatch):
    """Patch the gradients module's kernel binding; the returned dict counts rows run."""
    rows_seen = {"n": 0}
    original = qnes.gradients.run_circuit_batch

    def counting(tmpl, rows):
        rows_seen["n"] += rows.shape[0]
        return original(tmpl, rows)

    monkeypatch.setattr(qnes.gradients, "run_circuit_batch", counting)
    return rows_seen


def full_gradient_components(monkeypatch):
    """Make every components= request take its entries from the full 2P-row gradient."""
    original = qnes.gradients.parameter_shift_expectation_gradient

    def from_full(template, params, observable=None, components=None):
        full = original(template, params, observable)
        return full if components is None else full[list(components)]

    monkeypatch.setattr(qnes.gradients, "parameter_shift_expectation_gradient", from_full)


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
        grad = parameter_shift_expectation_gradient(template, params, h)
        fd = finite_difference(
            lambda p: expectation_values(template, p[None, :], h)[0], params
        )
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_exact_evaluation_count(self, monkeypatch):
        template = build_rpqc(3, 2, structure_seed=4)
        rows_seen = count_kernel_rows(monkeypatch)
        parameter_shift_expectation_gradient(template, np.zeros(template.num_params))
        assert rows_seen["n"] == 2 * template.num_params

    def test_two_rows_per_component(self, monkeypatch):
        template = build_rpqc(3, 2, structure_seed=4)
        rows_seen = count_kernel_rows(monkeypatch)
        parameter_shift_expectation_gradient(template, np.zeros(template.num_params),
                                             components=(5, 1, 3))
        assert rows_seen["n"] == 6


COMPONENT_TEMPLATES = {
    "rpqc-3": lambda: build_rpqc(3, 2, structure_seed=4),
    "rpqc-5": lambda: build_rpqc(5, 3, structure_seed=9),
    "alpqc-4": lambda: build_alpqc(4, 2),
    "alpqc-5": lambda: build_alpqc(5, 1),
}


class TestComponents:
    @pytest.mark.parametrize("name", COMPONENT_TEMPLATES)
    @pytest.mark.parametrize("observable", [None, "pauli_sum"])
    def test_component_is_bit_identical_to_full_gradient(self, rng, name, observable):
        template = COMPONENT_TEMPLATES[name]()
        q, p = template.num_qubits, template.num_params
        if observable == "pauli_sum":
            observable = PauliSum.build(q, [(0.7, {0: "Z", 1: "Z"}), (-0.4, {1: "X", q - 1: "Y"}),
                                            (0.25, {0: "Y"}), (0.1, {})])
        params = rng.uniform(p, 0, 2 * np.pi)
        full = parameter_shift_expectation_gradient(template, params, observable)
        for j in (0, p // 2, p - 1):
            one = parameter_shift_expectation_gradient(template, params, observable,
                                                       components=(j,))
            assert one.shape == (1,)
            assert one[0] == full[j]
        order = [p - 1, 0, p // 2]
        several = parameter_shift_expectation_gradient(template, params, observable,
                                                       components=order)
        assert several.tolist() == full[order].tolist()

    def test_out_of_range_component_rejected(self):
        template = build_rpqc(3, 1, structure_seed=0)
        for bad in ((3,), (-1,)):
            with pytest.raises(ValueError, match="components"):
                parameter_shift_expectation_gradient(template, np.zeros(3), components=bad)


class TestStateprepLossGradient:
    def test_chain_rule_hand_value(self):
        grad = loss_functions(single_ry())[1](np.array([np.pi / 2]))[1]
        # -2 * (1 - 0.5) * (-0.5) = +0.5
        assert np.isclose(grad[0], 0.5, atol=1e-12)

    def test_zero_at_perfect_preparation(self):
        grad = loss_functions(single_ry())[1](np.array([0.0]))[1]
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_difference(self, rng):
        template = build_rpqc(4, 2, structure_seed=8)
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        loss, value_and_grad = loss_functions(template)
        grad = value_and_grad(params)[1]
        fd = finite_difference(lambda p: loss(p[None, :])[0], params)
        assert np.max(np.abs(grad - fd)) < 1e-6


@st.composite
def loss_cases(draw):
    """(template, observable or None, point): rpqc on 2-6 qubits or alpqc on 3-6, and a
    Pauli sum whose terms include odd-Y strings and the identity."""
    q = draw(st.integers(2, 6))
    layers = draw(st.integers(1, 3))
    if q >= 3 and draw(st.booleans()):
        template = build_alpqc(q, layers)
    else:
        template = build_rpqc(q, layers, structure_seed=draw(st.integers(0, 999)))
    seed = draw(st.integers(0, 2**16))
    gen = np.random.default_rng(seed)
    observable = None
    if draw(st.booleans()):
        terms = [(float(gen.normal()), {}),
                 (float(gen.normal()), {int(gen.integers(q)): "Y"})]  # odd Y count
        for _ in range(draw(st.integers(0, 4))):
            letters = gen.choice(list("IXYZ"), q)
            terms.append((float(gen.normal()),
                          {i: str(c) for i, c in enumerate(letters) if c != "I"}))
        observable = PauliSum.build(q, terms)
    return template, observable, gen.uniform(0, 2 * np.pi, template.num_params)


class TestValueAndGrad:
    """value_and_grad against its referees: the row loss and the parameter-shift gradient."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(loss_cases())
    @example((build_rpqc(6, 2, 5), PauliSum.build(6, [(0.3, {}), (-0.8, {0: "Y", 5: "X"}),
                                                      (0.6, {1: "Y", 2: "Y", 3: "Y"})]),
              np.linspace(0.1, 6.2, build_rpqc(6, 2, 5).num_params)))
    @example((build_alpqc(6, 2), PauliSum.build(6, [(1.1, {}), (0.4, {2: "Y", 4: "Z"})]),
              np.linspace(6.0, 0.3, build_alpqc(6, 2).num_params)))
    def test_bit_identical_to_loss_and_parameter_shift(self, case):
        template, observable, z = case
        loss, value_and_grad = loss_functions(template, observable)
        value, grad = value_and_grad(z)
        assert isinstance(value, float)
        assert np.array_equal(value, loss(z[None, :])[0])
        shift = parameter_shift_expectation_gradient(template, z, observable)
        if observable is None:  # chain rule for (1 - E)**2
            e = expectation_values(template, z[None, :], None)[0]
            shift = -2.0 * (1.0 - e) * shift
        assert np.array_equal(grad, shift)


class TestGradientDescent:
    def test_quadratic_single_step(self):
        x, trace = gradient_descent(
            lambda rows: rows[:, 0] ** 2,
            lambda x: (x[0] ** 2, 2 * x),
            np.array([1.0]),
            GdConfig(learning_rate=0.4, max_iterations=1),
        )
        assert np.isclose(x[0], 0.2)
        assert trace.losses == [1.0, pytest.approx(0.04)]

    def test_zero_gradient_terminates_immediately(self):
        x, trace = gradient_descent(
            lambda rows: np.ones(len(rows)), lambda x: (1.0, np.zeros(2)), np.zeros(2),
            GdConfig(learning_rate=0.1, max_iterations=50),
        )
        assert len(trace) == 1

    def test_evaluation_accounting(self):
        _, trace = gradient_descent(
            sphere, with_value(sphere, lambda x: 2 * x), np.full(3, 2.0),
            GdConfig(learning_rate=0.1, max_iterations=4),
        )
        assert trace.evaluations == [0, 7, 14, 21, 28]

    def test_continues_a_trace_with_rows(self):
        trace = RunTrace()
        for it in range(3):
            trace.record(it, 4 * it, 1.0, 0.1)
        gradient_descent(sphere, with_value(sphere, lambda x: 2 * x), np.full(3, 2.0),
                         GdConfig(learning_rate=0.1, max_iterations=2), trace)
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert trace.evaluations == [0, 4, 8, 15, 22]
        assert trace.losses[:3] == [1.0, 1.0, 1.0]

    def test_divergence_raises(self):
        # anti-gradient blows the iterate up until the loss leaves the float range
        def loss(rows):
            x = rows[0, 0]
            return np.array([float(x * x) if abs(x) < 1e100 else float("inf")])

        with pytest.raises(RuntimeError, match="diverged"):
            gradient_descent(
                loss, with_value(loss, lambda x: np.array([-x[0] * 1e60])),
                np.array([1.0]), GdConfig(learning_rate=1.0, max_iterations=5),
            )

    def test_learning_rate_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            GdConfig(learning_rate=0.0)

    def test_max_iterations_validation(self):
        assert GdConfig(learning_rate=0.1, max_iterations=0).max_iterations == 0
        with pytest.raises(ValueError, match="max_iterations"):
            GdConfig(learning_rate=0.1, max_iterations=-1)


class TestVarianceScan:
    def test_constant_fitness_zero_variance(self):
        # f identically 0 makes the single-sided estimate exactly 0 per init
        h = PauliSum.build(2, [(0.0, {0: "Z"})])
        template = build_rpqc(2, 1, structure_seed=0)
        config = VarianceScanConfig(
            num_inits=5,
            sigma_values=(0.5,), walker_counts=(2,), observable=h,
        )
        rows = surrogate_gradient_variance_scan(template, config, SeededRng(0))
        assert rows[0].variance_surrogate == 0.0
        assert rows[0].variance_exact == 0.0

    def test_trends_small_scale(self):
        template = build_rpqc(4, 3, structure_seed=11)
        config = VarianceScanConfig(
            num_inits=200,
            sigma_values=(np.pi / 8, np.pi / 32), walker_counts=(1, 8),
            observable=local_cost_observable(4),
        )
        rows = surrogate_gradient_variance_scan(template, config, SeededRng(1))
        by_cell = {(r.sigma_init, r.walkers): r.variance_surrogate for r in rows}
        assert by_cell[(np.pi / 32, 1)] > by_cell[(np.pi / 8, 1)]
        assert by_cell[(np.pi / 32, 1)] > by_cell[(np.pi / 32, 8)]

    def test_num_inits_floor(self):
        with pytest.raises(ValueError, match="num_inits"):
            VarianceScanConfig(
                num_inits=1,
                sigma_values=(0.3,), walker_counts=(1,),
                observable=local_cost_observable(3),
            )

    @pytest.mark.parametrize("grid, key", [
        (((), (1,)), "sigma_values"),
        (((0.0,), (1,)), "sigma_values"),
        (((0.3, -0.1), (1,)), "sigma_values"),
        (((np.inf,), (1,)), "sigma_values"),
        (((np.nan,), (1,)), "sigma_values"),
        (((0.3,), ()), "walker_counts"),
        (((0.3,), (0,)), "walker_counts"),
        (((0.3,), (2, -1)), "walker_counts"),
    ])
    def test_grid_validation(self, grid, key):
        sigma_values, walker_counts = grid
        with pytest.raises(ValueError, match=key):
            VarianceScanConfig(num_inits=2, sigma_values=sigma_values,
                               walker_counts=walker_counts, observable=local_cost_observable(3))

    def test_analytical_variance_helper(self):
        template = build_rpqc(4, 2, structure_seed=5)
        v = analytical_gradient_variance(template, local_cost_observable(4), 50, SeededRng(7))
        assert v > 0.0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_exact_column_is_the_analytical_variance(self, seed):
        template = build_rpqc(4, 3, structure_seed=5)
        config = VarianceScanConfig(
            num_inits=12,
            sigma_values=(0.4, 0.1), walker_counts=(1, 3),
            observable=local_cost_observable(4),
        )
        rows = surrogate_gradient_variance_scan(template, config, SeededRng(seed))
        exact = analytical_gradient_variance(template, config.observable, config.num_inits,
                                             SeededRng(seed))
        assert {row.variance_exact for row in rows} == {exact}

    def test_scan_matches_full_gradient_recomputation(self, monkeypatch):
        template = build_rpqc(4, 3, structure_seed=5)
        config = VarianceScanConfig(
            num_inits=12,
            sigma_values=(0.4, 0.1), walker_counts=(1, 3),
            observable=local_cost_observable(4),
        )
        rows = surrogate_gradient_variance_scan(template, config, SeededRng(3))
        full_gradient_components(monkeypatch)
        assert surrogate_gradient_variance_scan(template, config, SeededRng(3)) == rows

    @pytest.mark.parametrize("observable", [None, "local"])
    def test_analytical_variance_matches_full_gradient_recomputation(self, monkeypatch,
                                                                       observable):
        template = build_rpqc(4, 3, structure_seed=5)
        observable = local_cost_observable(4) if observable else None
        for component in (0, 7):
            value = analytical_gradient_variance(template, observable, 20, SeededRng(8),
                                                 component=component)
            with monkeypatch.context() as patch:
                full_gradient_components(patch)
                assert analytical_gradient_variance(template, observable, 20, SeededRng(8),
                                                    component=component) == value

    def test_exact_column_costs_two_rows_per_init(self, monkeypatch):
        template = build_rpqc(4, 5, structure_seed=1)
        config = VarianceScanConfig(
            num_inits=6,
            sigma_values=(0.3, 0.2), walker_counts=(1, 4),
            observable=local_cost_observable(4),
        )
        rows_seen = count_kernel_rows(monkeypatch)
        surrogate_gradient_variance_scan(template, config, SeededRng(0))
        surrogate_rows = len(config.sigma_values) * sum(config.walker_counts)
        assert rows_seen["n"] == config.num_inits * (2 + surrogate_rows)
        rows_seen["n"] = 0
        analytical_gradient_variance(template, None, 9, SeededRng(0))
        assert rows_seen["n"] == 2 * 9

    def test_scan_leaves_the_cached_streams_unused(self, monkeypatch):
        # each initialization draws from a child the parent does not keep, so a later
        # stream(i) lookup starts child i from its first draw and replays init i's theta
        thetas = []
        original = qnes.gradients.parameter_shift_expectation_gradient

        def recording(template, params, *args, **kwargs):
            thetas.append(np.array(params))
            return original(template, params, *args, **kwargs)

        monkeypatch.setattr(qnes.gradients, "parameter_shift_expectation_gradient", recording)
        template = build_rpqc(3, 2, structure_seed=3)
        config = VarianceScanConfig(
            num_inits=4,
            sigma_values=(0.3,), walker_counts=(2,), observable=local_cost_observable(3),
        )
        rng = SeededRng(5)
        surrogate_gradient_variance_scan(template, config, rng)
        p = thetas[0].size
        assert np.array_equal(rng.stream(0).uniform(p, 0, 2 * np.pi), thetas[0])
        assert np.array_equal(rng.stream(3).uniform(p, 0, 2 * np.pi), thetas[3])
        thetas.clear()
        rng = SeededRng(6)
        analytical_gradient_variance(build_rpqc(3, 2, 3), None, 3, rng)
        assert np.array_equal(rng.stream(1).uniform(p, 0, 2 * np.pi), thetas[1])


def hybrid(template, warmup, nes_config, gd_config, rng, **kwargs):
    """hybrid_optimize on the state-prep loss, from a start point drawn first from rng."""
    mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
    return hybrid_optimize(*loss_functions(template), mu0, warmup, nes_config, gd_config, rng,
                           **kwargs)


class TestHybridOptimize:
    def test_zero_warmup_is_pure_gradient_descent(self):
        template = build_rpqc(3, 2, structure_seed=9)
        rng = SeededRng(4)
        mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
        loss, value_and_grad = loss_functions(template)
        params, trace = hybrid_optimize(
            loss, value_and_grad, mu0, 0, NesConfig(population=8),
            GdConfig(learning_rate=0.1, max_iterations=10), SeededRng(4),
        )
        reference, ref_trace = gradient_descent(
            loss,
            value_and_grad,
            mu0, GdConfig(learning_rate=0.1, max_iterations=10),
        )
        assert np.allclose(params, reference)
        assert trace.losses == ref_trace.losses
        assert len(trace.gradient_snapshots) == 1

    def test_snapshots_at_init_and_after_warmup(self):
        template = build_rpqc(3, 3, structure_seed=2)
        _, trace = hybrid(
            template, 4, NesConfig(population=8),
            GdConfig(learning_rate=0.1, max_iterations=5), SeededRng(1),
        )
        iterations = [snap.iteration for snap in trace.gradient_snapshots]
        assert iterations == [0, 4]
        assert all(s.components.size == template.num_params for s in trace.gradient_snapshots)

    def test_warmup_stopped_at_iteration_0_records_one_snapshot(self):
        # sigma_init <= stop_threshold: the warm-up records its start row and stops
        template = build_rpqc(3, 2, structure_seed=2)
        _, trace = hybrid(
            template, 6, NesConfig(population=8, stop_threshold=0.1),
            GdConfig(learning_rate=0.1, max_iterations=2), SeededRng(1), sigma_init=0.1,
        )
        assert [s.iteration for s in trace.gradient_snapshots] == [0]
        assert trace.evaluations[:2] == [0, 2 * template.num_params + 1]

    def test_trace_is_continuous_across_phases(self):
        template = build_rpqc(3, 2, structure_seed=2)
        _, trace = hybrid(
            template, 3, NesConfig(population=4),
            GdConfig(learning_rate=0.1, max_iterations=4), SeededRng(6),
        )
        assert trace.iterations == list(range(len(trace)))
        assert all(b > a for a, b in zip(trace.evaluations, trace.evaluations[1:]))
        # warm-up burns 4 evaluations per iteration, descent 2 * num_params + 1
        assert trace.evaluations[1] - trace.evaluations[0] == 4
        assert trace.evaluations[-1] - trace.evaluations[-2] == 2 * template.num_params + 1


def record_kernel_calls(monkeypatch):
    """Patch the gradients module's kernel binding; the returned list gets each call's rows."""
    calls = []
    original = qnes.gradients.run_circuit_batch

    def recording(tmpl, rows):
        calls.append(np.array(rows))
        return original(tmpl, rows)

    monkeypatch.setattr(qnes.gradients, "run_circuit_batch", recording)
    return calls


class TestOneCallPerPoint:
    """A descent point costs one kernel call: 2P+1 rows, or 1 row at the last iterate."""

    @pytest.mark.parametrize("observable", [None, "pauli_sum"])
    def test_descent_runs_one_call_per_iteration(self, monkeypatch, observable):
        template = build_rpqc(3, 2, structure_seed=4)
        h = PauliSum.build(3, [(0.7, {0: "X", 1: "Y"}), (-0.3, {2: "Z"}), (0.5, {})])
        loss, value_and_grad = loss_functions(template, h if observable else None)
        x0 = SeededRng(3).uniform(template.num_params, 0, 2 * np.pi)
        calls = record_kernel_calls(monkeypatch)
        _, trace = gradient_descent(loss, value_and_grad, x0,
                                    GdConfig(learning_rate=0.1, max_iterations=4, tolerance=0))
        rows = 2 * template.num_params + 1
        assert [len(c) for c in calls] == [rows] * 4 + [1]
        assert len(trace) == 5 and trace.evaluations[-1] == 4 * rows
        assert [s.iteration for s in trace.gradient_snapshots] == [0]

    def test_zero_iterations_run_one_gradient_call(self, monkeypatch):
        template = build_rpqc(3, 2, structure_seed=4)
        calls = record_kernel_calls(monkeypatch)
        _, trace = gradient_descent(*loss_functions(template), np.zeros(template.num_params),
                                    GdConfig(learning_rate=0.1, max_iterations=0))
        assert [len(c) for c in calls] == [2 * template.num_params + 1]
        assert len(trace) == 1 and len(trace.gradient_snapshots) == 1

    @pytest.mark.parametrize("observable", [None, "pauli_sum"])
    def test_hybrid_hand_over_evaluates_its_gradient_once(self, monkeypatch, observable):
        template = build_rpqc(3, 2, structure_seed=2)
        h = PauliSum.build(3, [(0.7, {0: "Z", 1: "Z"}), (-0.4, {2: "X"})])
        loss, value_and_grad = loss_functions(template, h if observable else None)
        mu0 = SeededRng(1).uniform(template.num_params, 0, 2 * np.pi)
        calls = record_kernel_calls(monkeypatch)
        _, trace = hybrid_optimize(loss, value_and_grad, mu0, 3, NesConfig(population=4),
                                   GdConfig(learning_rate=0.1, max_iterations=2), SeededRng(1))
        gradient_calls = [c for c in calls if len(c) == 2 * template.num_params + 1]
        # iteration 0, the hand-over at the warm-up's end, and descent's second iterate
        centres = {c[0].tobytes() for c in gradient_calls}
        assert len(gradient_calls) == len(centres) == 3
        assert np.array_equal(gradient_calls[0][0], mu0)
        assert [s.iteration for s in trace.gradient_snapshots] == [0, 3]

    def test_warmup_stopped_at_iteration_0_snapshots_once(self, monkeypatch):
        template = build_rpqc(3, 2, structure_seed=2)
        loss, value_and_grad = loss_functions(template)
        mu0 = SeededRng(1).uniform(template.num_params, 0, 2 * np.pi)
        calls = record_kernel_calls(monkeypatch)
        _, trace = hybrid_optimize(loss, value_and_grad, mu0, 6,
                                   NesConfig(population=8, stop_threshold=0.1),
                                   GdConfig(learning_rate=0.1, max_iterations=1), SeededRng(1),
                                   sigma_init=0.1)
        assert [s.iteration for s in trace.gradient_snapshots] == [0]
        # the snapshot, the warm-up's centre, descent's start (recomputed) and its last loss
        rows = 2 * template.num_params + 1
        assert [len(c) for c in calls] == [rows, 1, rows, 1]


CHUNK_TEMPLATES = {q: build_rpqc(q, 2, structure_seed=q) for q in (3, 6, 9)}
CHUNK_OBSERVABLES = {
    q: PauliSum.build(q, [(0.7, {0: "X", 1: "Y"}), (-0.3, {q - 1: "Z"}),
                          (0.2, {1: "Y", 2: "X"}), (0.5, {})])
    for q in CHUNK_TEMPLATES
}


@st.composite
def chunked_rows(draw):
    """(qubits, parameter rows, rows per chunk in 1..B, whether to use the Pauli sum)."""
    qubits = draw(st.sampled_from(sorted(CHUNK_TEMPLATES)))
    num_rows = draw(st.integers(1, 24))
    chunk = draw(st.integers(1, num_rows))
    seed = draw(st.integers(0, 2**16))
    rows = np.random.default_rng(seed).uniform(
        0, 2 * np.pi, (num_rows, CHUNK_TEMPLATES[qubits].num_params))
    return qubits, rows, chunk, draw(st.booleans())


class TestChunkInvariance:
    """expectation_values gives every row the same bits, whatever the rows per kernel call."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(chunked_rows())
    @example((3, np.zeros((1, 6)), 1, False))
    @example((9, np.linspace(0, 6, 17 * 18).reshape(17, 18), 16, True))
    @example((6, np.linspace(0, 6, 24 * 12).reshape(24, 12), 5, False))
    def test_any_chunk_size_gives_the_unchunked_values(self, case):
        qubits, rows, chunk, pauli = case
        template = CHUNK_TEMPLATES[qubits]
        observable = CHUNK_OBSERVABLES[qubits] if pauli else None
        assert qnes.gradients._chunk_rows(qubits) >= len(rows)  # one call unpatched
        whole = expectation_values(template, rows, observable)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qnes.gradients, "_chunk_rows", lambda num_qubits: chunk)
            chunked = expectation_values(template, rows, observable)
        assert np.array_equal(chunked, whole)


SPLIT_TEMPLATES = {q: build_rpqc(q, 2, structure_seed=q) for q in range(2, 9)}
SPLIT_OBSERVABLES = {
    q: PauliSum.build(q, [(0.7, {0: "X", 1: "Y"}), (-0.3, {q - 1: "Z"}),
                          (0.2, {0: "Y", q - 1: "X"}), (0.5, {})])
    for q in SPLIT_TEMPLATES
}


def segmented_rows(qubits: int, num_rows: int, segment: int, seed: int) -> np.ndarray:
    """Parameter rows in which each column varies per row, per run of `segment` rows, or
    not at all, so that a part can share a column that differs across the call."""
    gen = np.random.default_rng(seed)
    p = SPLIT_TEMPLATES[qubits].num_params
    rows = gen.uniform(0, 2 * np.pi, (num_rows, p))
    kind = gen.integers(0, 3, p)
    rows[:, kind == 1] = rows[np.arange(num_rows) // segment * segment][:, kind == 1]
    rows[:, kind == 2] = rows[:1, kind == 2]
    return rows


@st.composite
def split_cases(draw):
    """(qubits, parameter rows, CPUs, whether to use the Pauli sum)."""
    qubits = draw(st.integers(2, 8))
    num_rows = draw(st.integers(1, 24))
    rows = segmented_rows(qubits, num_rows, draw(st.integers(1, num_rows)),
                          draw(st.integers(0, 2**16)))
    return qubits, rows, draw(st.integers(2, 4)), draw(st.booleans())


class TestParts:
    """expectation_values splits a chunk of PART_BYTES or more per CPU into contiguous parts
    on threads, and gives every row the bits of the unsplit call."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(split_cases())
    @example((2, segmented_rows(2, 3, 1, 0), 4, True))      # three 1-row parts
    @example((4, segmented_rows(4, 8, 4, 1), 2, True))      # columns shared within each part
    @example((8, segmented_rows(8, 7, 7, 2), 3, False))     # ... and across the call
    def test_split_gives_the_unsplit_values(self, case):
        qubits, rows, cpus, pauli = case
        template = SPLIT_TEMPLATES[qubits]
        observable = SPLIT_OBSERVABLES[qubits] if pauli else None
        assert qnes.gradients._part_count(qubits, len(rows)) == 1  # one part unpatched
        whole = expectation_values(template, rows, observable)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            force_split(patch, cpus)
            kernel = qnes.gradients.run_circuit_batch
            patch.setattr(qnes.gradients, "run_circuit_batch",
                          lambda tmpl, part: calls.append(len(part)) or kernel(tmpl, part))
            split = expectation_values(template, rows, observable)
        assert sorted(calls) == sorted(len(p) for p in np.array_split(rows, min(cpus, len(rows))))
        assert np.array_equal(split, whole)

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_part_count_at_real_sizes(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        part_count = qnes.gradients._part_count
        assert part_count(12, 16) == 2  # 1 MiB of states: a 12-qubit walker call
        assert part_count(12, 8) == 1   # 512 KiB: the scan's largest call at 12 qubits
        assert part_count(10, 16) == 1  # 256 KiB: a 10-qubit walker call
        assert part_count(10, 401) == min(cpus, 12)  # a 200-parameter descent gradient

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.integers(1, 10**6))
    def test_one_cpu_never_splits(self, qubits, rows):
        with pytest.MonkeyPatch.context() as patch:
            set_cpus(patch, 1)
            assert qnes.gradients._part_count(qubits, rows) == 1
            patch.delattr(qnes.gradients.os, "sched_getaffinity")
            patch.setattr(qnes.gradients.os, "cpu_count", lambda: None)
            assert qnes.gradients._part_count(qubits, rows) == 1

    def test_eight_parts_build_fresh_caches_at_once(self, monkeypatch):
        # more threads than cores, switching every microsecond, each template's plan and
        # each sum's compiled terms built by the parts at once: a lost write of any part
        # leaves np.empty's garbage in its rows
        force_split(monkeypatch, cpus=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                template = build_rpqc(4, 2, structure_seed=100 + seed)
                observable = PauliSum.build(4, [(0.1 + seed, {0: "X", 3: "Y"}), (1.0, {2: "Z"})])
                rows = np.random.default_rng(seed).uniform(0, 2 * np.pi, (16, 8))
                split = expectation_values(template, rows, observable)
                monkeypatch.setattr(qnes.gradients, "PART_BYTES", 1 << 40)
                assert np.array_equal(split, expectation_values(template, rows, observable))
                monkeypatch.setattr(qnes.gradients, "PART_BYTES", 1)
        finally:
            sys.setswitchinterval(interval)

    def test_a_later_part_failure_reaches_the_caller(self, monkeypatch):
        force_split(monkeypatch)
        caller, kernel = threading.get_ident(), qnes.gradients.run_circuit_batch

        def failing(template, rows):
            if threading.get_ident() != caller:
                raise RuntimeError("part 1 failed")
            return kernel(template, rows)

        monkeypatch.setattr(qnes.gradients, "run_circuit_batch", failing)
        with pytest.raises(RuntimeError, match="part 1 failed"):
            expectation_values(SPLIT_TEMPLATES[3], segmented_rows(3, 4, 1, 0), None)

    def test_a_split_call_keeps_the_callers_buffer_size(self, monkeypatch):
        before = np.getbufsize()
        threads = force_split(monkeypatch)
        # 256-amplitude rows, 3 per part: each part lowers its own thread's buffer
        expectation_values(SPLIT_TEMPLATES[8], segmented_rows(8, 6, 1, 0), SPLIT_OBSERVABLES[8])
        assert len(threads) == 2 and np.getbufsize() == before
