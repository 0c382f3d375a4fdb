"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The batch-optimization and
variance criteria run full desk-scale experiments and take several minutes each.
"""

import shutil

import numpy as np
import pytest

from conftest import dense_unitary, random_template

import qnes.gradients
from qnes.ansatz import build_rpqc
from qnes.batching import PartitionStrategy, STRATEGY_KINDS, batch_optimize, make_partition
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
    stateprep_loss_gradient,
    surrogate_gradient_variance_scan,
)
from qnes.hamiltonian import (
    bundled_hamiltonian_path,
    exact_ground_energy,
    load_pauli_file,
)
from qnes.nes import (
    FullDistribution,
    NesConfig,
    SeparableDistribution,
    compute_utilities,
    default_learning_rates,
    optimize,
    sample_walkers,
    snes_step,
    xnes_step,
)
from qnes.numerics import SeededRng
from qnes.harness import load_config, run_experiment
from qnes.simulator import PauliSum, run_circuit


def report(number: int, description: str):
    """Prints one [acceptance] PASS/FAIL line per criterion around the test body."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] criterion {number:02d} ({description}): {status}")
            return False

    return _Reporter()


def test_criterion_01_simulator_matches_dense_oracle():
    with report(1, "statevector matches dense Kronecker oracle, 100 circuits"):
        rng = SeededRng(101)
        for _ in range(100):
            q = int(rng.integers(1, 4, 1)[0])
            layers_worth = int(rng.integers(1, 10, 1)[0])
            template = random_template(rng, q, layers_worth)
            params = rng.uniform(max(template.num_params, 1), 0, 2 * np.pi)
            params = params[: template.num_params]
            state = run_circuit(template, params)
            expected = dense_unitary(template, params)[:, 0]
            assert np.max(np.abs(state - expected)) < 1e-10


def test_criterion_02_parameter_shift_matches_finite_differences():
    with report(2, "parameter-shift gradients match central finite differences"):
        rng = SeededRng(202)
        h_step = 1e-5
        for case in range(50):
            q = 4 + (case % 3)  # 4, 5, 6 qubits
            template = build_rpqc(q, 2 + (case % 2), structure_seed=300 + case)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            observable = PauliSum.build(
                q, [(0.7, {0: "Z", 1: "Z"}), (-0.4, {q - 1: "X"}), (0.2, {1: "Y", 2: "Z"})]
            )

            def fd(fn):
                grad = np.empty(template.num_params)
                for j in range(template.num_params):
                    plus, minus = params.copy(), params.copy()
                    plus[j] += h_step
                    minus[j] -= h_step
                    grad[j] = (fn(plus) - fn(minus)) / (2 * h_step)
                return grad

            loss_grad = stateprep_loss_gradient(template, params)
            loss, _ = loss_functions(template)
            fd_loss = fd(lambda p: loss(p[None, :])[0])
            assert np.max(np.abs(loss_grad - fd_loss)) < 1e-6

            energy_grad = parameter_shift_expectation_gradient(template, params, observable)
            fd_energy = fd(lambda p: expectation_values(template, p[None, :], observable)[0])
            assert np.max(np.abs(energy_grad - fd_energy)) < 1e-6


def test_criterion_03_utility_properties():
    with report(3, "utility weights: zero-sum, non-increasing, flat bottom half"):
        for k in range(2, 65):
            u = compute_utilities(k)
            assert abs(u.sum()) < 1e-12
            assert np.all(np.diff(u) <= 1e-15)
            assert np.allclose(u[-(k // 2):], -1.0 / k, atol=1e-15)
        assert np.allclose(compute_utilities(4), [0.4804, 0.0196, -0.25, -0.25], atol=1e-4)


def test_criterion_04_default_learning_rates():
    with report(4, "learning-rate schedule matches hand-evaluated formulas"):
        for d in (1, 16, 50):
            eta_mu, eta_scale, eta_sigma = default_learning_rates(d)
            denom = 5.0 * d * np.sqrt(d)
            assert abs(eta_mu - 1.0) < 1e-9
            assert abs(eta_scale - (9.0 + 3.0 * np.log(d)) / denom) < 1e-9
            assert abs(eta_sigma - (3.0 + np.log(d)) / denom) < 1e-9


def test_criterion_05_rank_invariance_bit_identical():
    with report(5, "monotone fitness transforms leave steps bit-identical"):
        rng = SeededRng(505)
        transforms = [lambda f: 3.0 * f + 1.0, lambda f: f**3, np.exp, np.arctan]
        for trial in range(100):
            d = 2 + trial % 4
            sep = SeparableDistribution(rng.normal(d), np.full(d, 0.5))
            full = FullDistribution.isotropic(rng.normal(d), 0.5)
            samples = sample_walkers(sep, 8, rng)
            fits = rng.normal(8)
            transform = transforms[trial % len(transforms)]

            sep_a, full_a = snes_step(sep, samples, fits), xnes_step(full, samples, fits)
            moved = transform(fits)
            sep_b, full_b = snes_step(sep, samples, moved), xnes_step(full, samples, moved)

            assert np.array_equal(sep_a.mu, sep_b.mu)
            assert np.array_equal(sep_a.sigma, sep_b.sigma)
            assert np.array_equal(full_a.mu, full_b.mu)
            assert full_a.sigma == full_b.sigma
            assert np.array_equal(full_a.shape, full_b.shape)


def test_criterion_06_full_covariance_structure_preserved():
    with report(6, "unit-determinant shape and positive sigma over 1000 steps"):
        rng = SeededRng(606)
        d = 8
        quad = np.diag(np.linspace(1.0, 4.0, d))
        dist = FullDistribution.isotropic(np.zeros(d), 0.5)
        for _ in range(1000):
            samples = sample_walkers(dist, 12, rng)
            points = dist.to_task(samples)
            dist = xnes_step(dist, samples, np.einsum("ni,ij,nj->n", points, quad, points))
            assert abs(abs(np.linalg.det(dist.shape)) - 1.0) < 1e-8
            assert dist.sigma > 0


def test_criterion_07_classical_sphere_sanity():
    with report(7, "sphere function reaches 1e-6 within 300 iterations, 10/10 seeds"):
        def sphere(rows):
            return np.sum(rows * rows, axis=1)

        for variant in ("snes", "xnes"):
            for seed in range(10):
                rng = SeededRng(seed)
                mu0 = rng.uniform(4, -2, 2)
                if variant == "snes":
                    dist = SeparableDistribution(mu0, np.ones(4))
                else:
                    dist = FullDistribution.isotropic(mu0, 1.0)
                mu, _ = optimize(sphere, dist, NesConfig(population=16, max_iterations=300),
                                 rng)
                assert sphere(mu[None, :])[0] < 1e-6, (variant, seed)


def test_criterion_08_state_preparation_and_descent_baseline(monkeypatch):
    with report(8, "5-qubit state prep: strategy and baseline hit 1e-2; eval accounting"):
        template = build_rpqc(5, 10, structure_seed=11)
        fitness, _ = loss_functions(template)

        nes_hits = 0
        for seed in range(10):
            rng = SeededRng(seed)
            mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            dist = SeparableDistribution(mu0, np.full(template.num_params, 0.1))
            _, trace = optimize(fitness, dist, NesConfig(population=16, max_iterations=500),
                                rng)
            diffs = np.diff(trace.evaluations)
            assert np.all(diffs == 16)  # k evaluations per iteration, exactly
            nes_hits += any(loss < 1e-2 for loss in trace.losses)
        assert nes_hits >= 8, f"only {nes_hits}/10 seeds reached 1e-2"

        gd_hits = 0
        for seed in range(10):
            rng = SeededRng(seed)
            x0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            _, trace = gradient_descent(
                fitness, lambda z: stateprep_loss_gradient(template, z), x0,
                GdConfig(learning_rate=0.1, max_iterations=500),
            )
            diffs = np.diff(trace.evaluations)
            assert np.all(diffs == 2 * 5 * 10 + 1)  # 2QL gradient evaluations + 1 loss
            gd_hits += any(loss < 1e-2 for loss in trace.losses)
        assert gd_hits >= 8, f"only {gd_hits}/10 baseline seeds reached 1e-2"

        # evaluation accounting at the simulator-call level: exactly 2QL circuit
        # runs per parameter-shift gradient (k per strategy iteration shown above)
        rows_seen = {"n": 0}
        original = qnes.gradients.run_circuit_batch

        def counting(tmpl, rows):
            rows_seen["n"] += rows.shape[0]
            return original(tmpl, rows)

        monkeypatch.setattr(qnes.gradients, "run_circuit_batch", counting)
        parameter_shift_expectation_gradient(template, np.zeros(template.num_params))
        assert rows_seen["n"] == 2 * 5 * 10 == 100


def test_criterion_09_variance_amplification_trends():
    with report(9, "surrogate-gradient variance trends in width and walkers"):
        template = build_rpqc(8, 10, structure_seed=11)
        config = VarianceScanConfig(
            num_inits=500,
            sigma_values=(np.pi / 8, np.pi / 16, np.pi / 32),
            walker_counts=(1, 2, 4, 8),
            observable=local_cost_observable(8),
        )
        rows = surrogate_gradient_variance_scan(template, config, SeededRng(909))
        cell = {(round(r.sigma_init, 12), r.walkers): r.variance_surrogate for r in rows}
        exact = rows[0].variance_exact
        s8, s16, s32 = (round(s, 12) for s in (np.pi / 8, np.pi / 16, np.pi / 32))

        assert cell[(s32, 1)] > exact  # (a) amplification over the analytical baseline
        assert cell[(s8, 1)] < cell[(s16, 1)] < cell[(s32, 1)]  # (b) grows as width shrinks
        assert cell[(s16, 1)] > cell[(s16, 2)] > cell[(s16, 4)] > cell[(s16, 8)]  # (c) in k


def test_criterion_10_barren_plateau_decay():
    with report(10, "loss-gradient variance decays monotonically in qubit count"):
        variances = []
        for q in (4, 6, 8, 10):
            template = build_rpqc(q, 10, structure_seed=11)
            variances.append(
                analytical_gradient_variance(template, None, 500, SeededRng(1010))
            )
        assert all(a > b for a, b in zip(variances, variances[1:])), variances


@pytest.mark.slow
def test_criterion_11_batch_optimization_deep_circuit():
    with report(11, "deep-circuit batch optimization converges; partitions sound"):
        template = build_rpqc(10, 50, structure_seed=11)
        fitness, _ = loss_functions(template)

        for kind in STRATEGY_KINDS:
            strategy = PartitionStrategy(kind, batch_size=50)
            schedule = make_partition(template, strategy, SeededRng(5))
            flat = np.sort(np.concatenate(schedule.batches))
            assert np.array_equal(flat, np.arange(template.num_params))
            rng = SeededRng(5)
            mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            _, trace = batch_optimize(
                fitness, schedule, mu0, 0.1, NesConfig(population=16, max_iterations=12),
                rng, variant="snes",
            )
            assert len(trace) == 13  # run completes under every strategy

        # every seed's threshold crossing is well inside the criterion's
        # 2000-iteration budget; 500 iterations bounds the suite's runtime
        hits = 0
        for seed in range(6):
            rng = SeededRng(seed)
            mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            schedule = make_partition(template, PartitionStrategy("random", 50), rng)
            _, trace = batch_optimize(
                fitness, schedule, mu0, 0.1, NesConfig(population=16, max_iterations=500),
                rng, variant="snes",
            )
            ratio = np.array(trace.losses) / trace.losses[0]
            hits += bool(np.any(ratio < 0.1))
        assert hits >= 4, f"only {hits}/6 seeds converged below 10% of initial"


def test_criterion_12_hybrid_gradient_spread():
    with report(12, "gradient spread grows after 5 warm-up iterations"):
        template = build_rpqc(10, 20, structure_seed=11)
        loss, grad_fn = loss_functions(template)

        def iqr(values):
            lo, hi = np.percentile(values, [25, 75])
            return hi - lo

        grew = 0
        for seed in range(10):
            rng = SeededRng(seed)
            mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            _, trace = hybrid_optimize(
                loss, grad_fn, mu0, 5, NesConfig(population=16),
                GdConfig(learning_rate=0.1, max_iterations=1), rng,
            )
            snaps = {s.iteration: s.components for s in trace.gradient_snapshots}
            grew += iqr(snaps[5]) >= iqr(snaps[0])
        assert grew >= 7, f"spread grew for only {grew}/10 seeds"


def test_criterion_13_vqe_reaches_ground_energy():
    with report(13, "VQE on the bundled molecule file reaches the oracle energy"):
        h = load_pauli_file(bundled_hamiltonian_path("h2"))
        reference = exact_ground_energy(h)
        template = build_rpqc(2, 3, structure_seed=2)
        energy, _ = loss_functions(template, h)
        best = np.inf
        for seed in range(4):
            rng = SeededRng(seed)
            mu0 = rng.uniform(template.num_params, 0, 2 * np.pi)
            dist = SeparableDistribution(mu0, np.full(template.num_params, 0.1))
            mu, _ = optimize(energy, dist, NesConfig(population=16, max_iterations=400), rng)
            best = min(best, energy(mu[None, :])[0])
        assert best >= reference - 1e-9  # variational bound
        assert best - reference < 1e-3, f"gap {best - reference:.2e}"


def test_criterion_14_determinism(tmp_path):
    with report(14, "preset replays are byte-identical, including threaded walkers"):
        from pathlib import Path

        config_path = Path(__file__).resolve().parent.parent / "configs" / "vqe_h2.ini"
        out = tmp_path / "replay"

        def run_once(workers: int) -> dict[str, bytes]:
            if out.exists():
                shutil.rmtree(out)
            config = load_config(config_path, seeds=[0, 1], out_dir=out,
                                 overrides={
                                     "experiment.max_iterations": "40",
                                     "optimizer.workers": str(workers),
                                 })
            run_experiment(config)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert run_once(0) == run_once(0)       # replay, vectorized evaluator
        threaded = run_once(2)
        assert threaded == run_once(2)          # replay under parallel walkers

        # vectorized vs thread-pool walker evaluation is bit-identical at the API level
        def sphere(rows):
            return np.sum(rows * rows, axis=1)

        def run_opt(workers):
            rng = SeededRng(14)
            dist = SeparableDistribution(np.ones(3), np.full(3, 0.4))
            _, trace = optimize(sphere, dist, NesConfig(population=8, max_iterations=25),
                                rng, n_workers=workers)
            return trace.rows()

        assert run_opt(0) == run_opt(4)
