import numpy as np
import pytest

from qnes.ansatz import build_alpqc, build_rpqc
from qnes.batching import (
    BatchSchedule,
    PartitionStrategy,
    STRATEGY_KINDS,
    batch_optimize,
    make_partition,
)
from qnes.gradients import loss_functions
from qnes.nes import FullDistribution, NesConfig, SeparableDistribution, optimize
from qnes.numerics import SeededRng


def assert_disjoint_exhaustive(schedule, num_params):
    flat = np.sort(np.concatenate(schedule.batches))
    assert np.array_equal(flat, np.arange(num_params))


class TestMakePartition:
    def test_random_chunks(self):
        template = build_rpqc(10, 50, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("random", 50), SeededRng(1))
        assert [len(b) for b in schedule.batches] == [50] * 10
        assert_disjoint_exhaustive(schedule, 500)

    def test_layer_wise(self):
        template = build_rpqc(10, 50, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("layer_wise"), SeededRng(1))
        assert [len(b) for b in schedule.batches] == [10] * 50
        assert_disjoint_exhaustive(schedule, 500)

    def test_qubit_wise(self):
        template = build_rpqc(10, 50, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("qubit_wise"), SeededRng(1))
        assert [len(b) for b in schedule.batches] == [50] * 10
        assert_disjoint_exhaustive(schedule, 500)

    def test_layer_block(self):
        template = build_rpqc(10, 50, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("layer_block", 50), SeededRng(1))
        assert [len(b) for b in schedule.batches] == [50] * 10
        # blocks are contiguous layer groups
        for batch in schedule.batches:
            layers = sorted({template.slot_layers[i] for i in batch})
            assert layers == list(range(layers[0], layers[-1] + 1))

    def test_qubit_block(self):
        template = build_rpqc(10, 50, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("qubit_block", 100), SeededRng(1))
        assert_disjoint_exhaustive(schedule, 500)
        for batch in schedule.batches:
            assert len(batch) == 100  # two qubits' worth of slots per block

    def test_all_strategies_disjoint_exhaustive_on_grid(self):
        for q, layers in [(4, 3), (5, 10), (10, 50), (3, 7)]:
            template = build_rpqc(q, layers, structure_seed=2)
            for kind in STRATEGY_KINDS:
                strategy = PartitionStrategy(kind, batch_size=max(2, template.num_params // 7))
                schedule = make_partition(template, strategy, SeededRng(3))
                assert_disjoint_exhaustive(schedule, template.num_params)

    def test_single_batch_degenerate(self):
        template = build_rpqc(4, 3, structure_seed=0)
        schedule = make_partition(
            template, PartitionStrategy("random", template.num_params), SeededRng(1)
        )
        assert len(schedule.batches) == 1

    def test_batch_size_bounds(self):
        template = build_rpqc(4, 3, structure_seed=0)
        for bad in (0, template.num_params + 1, None):
            with pytest.raises(ValueError, match="batch_size"):
                make_partition(template, PartitionStrategy("random", bad), SeededRng(1))

    @pytest.mark.parametrize("kind", ["layer_wise", "qubit_wise"])
    @pytest.mark.parametrize("template", [build_rpqc(4, 3, structure_seed=5), build_alpqc(5, 2)],
                             ids=["rpqc", "alpqc"])
    def test_wise_batches_are_the_label_groups(self, kind, template):
        labels = np.asarray(template.slot_layers if kind == "layer_wise" else template.slot_qubits)
        expected = [np.flatnonzero(labels == value) for value in np.unique(labels)]
        schedule = make_partition(template, PartitionStrategy(kind), SeededRng(1))
        assert len(schedule.batches) == len(expected)
        for batch, group in zip(schedule.batches, expected):
            assert batch.dtype == group.dtype
            assert np.array_equal(batch, group)

    @pytest.mark.parametrize("kind", ["random", "layer_block", "qubit_block"])
    def test_check_sized_kinds(self, kind):
        for size in (1, 12):
            PartitionStrategy(kind, size).check(12)
        for bad in (None, 0, -1, 13):
            with pytest.raises(ValueError, match=r"batch_size must be in \[1, 12\]"):
                PartitionStrategy(kind, bad).check(12)

    @pytest.mark.parametrize("kind", ["layer_wise", "qubit_wise"])
    def test_check_ignores_size_of_structural_kinds(self, kind):
        for size in (None, 0, 13):
            PartitionStrategy(kind, size).check(12)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            PartitionStrategy("alternating", 5)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="exactly once"):
            BatchSchedule(num_params=4, batches=(np.array([0, 1]), np.array([1, 2, 3])))


class TestBatchOptimize:
    @pytest.mark.parametrize("variant", ["snes", "xnes"])
    def test_single_batch_reduces_to_plain_optimize(self, variant):
        template = build_rpqc(4, 3, structure_seed=7)
        fitness, _ = loss_functions(template)
        d = template.num_params
        mu0 = SeededRng(99).uniform(d, 0, 2 * np.pi)
        cfg = NesConfig(population=6, max_iterations=25)

        schedule = make_partition(template, PartitionStrategy("random", d), SeededRng(1))
        rng_a = SeededRng(5)
        mu_batch, trace_batch = batch_optimize(
            fitness, schedule, mu0, 0.1, cfg, rng_a, variant=variant
        )
        rng_b = SeededRng(5)
        if variant == "snes":
            dist = SeparableDistribution(mu0, np.full(d, 0.1))
        else:
            dist = FullDistribution.isotropic(mu0, 0.1)
        mu_plain, trace_plain = optimize(fitness, dist, cfg, rng_b)

        assert np.array_equal(mu_batch, mu_plain)
        assert trace_batch.rows() == trace_plain.rows()

    def test_frozen_coordinates_unchanged(self):
        template = build_rpqc(5, 4, structure_seed=3)
        fitness, _ = loss_functions(template)
        d = template.num_params
        rng = SeededRng(2)
        mu0 = rng.uniform(d, 0, 2 * np.pi)
        schedule = make_partition(template, PartitionStrategy("random", 5), SeededRng(0))

        seen = {"points": []}

        def recording_fitness(rows):
            seen["points"].append(rows.copy())
            return fitness(rows)

        cfg = NesConfig(population=4, max_iterations=4)
        batch_optimize(recording_fitness, schedule, mu0, 0.1, cfg, SeededRng(2), variant="snes")
        # walker evaluations for iteration 1 only vary inside the first batch
        walker_rows = seen["points"][1]
        active = set(schedule.batches[0].tolist())
        for column in range(d):
            spread = np.ptp(walker_rows[:, column])
            if column in active:
                continue
            assert spread == 0.0 and walker_rows[0, column] == mu0[column]

    def test_round_robin_cursor_recorded(self):
        template = build_rpqc(4, 4, structure_seed=1)
        fitness, _ = loss_functions(template)
        schedule = make_partition(template, PartitionStrategy("layer_wise"), SeededRng(0))
        cfg = NesConfig(population=4, max_iterations=9)
        _, trace = batch_optimize(fitness, schedule,
                                  SeededRng(1).uniform(16, 0, 2 * np.pi), 0.1, cfg,
                                  SeededRng(1), variant="snes")
        assert trace.batch_cursors == [0, 0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_xnes_variant_keeps_unit_determinant_blocks(self):
        template = build_rpqc(4, 4, structure_seed=6)
        fitness, _ = loss_functions(template)
        schedule = make_partition(template, PartitionStrategy("random", 8), SeededRng(4))
        cfg = NesConfig(population=8, max_iterations=20)
        mu, trace = batch_optimize(fitness, schedule,
                                   SeededRng(8).uniform(16, 0, 2 * np.pi), 0.1, cfg,
                                   SeededRng(8), variant="xnes")
        assert np.all(np.isfinite(mu))
        assert len(trace) == 21

    def test_loss_decreases_on_small_problem(self):
        template = build_rpqc(5, 6, structure_seed=4)
        fitness, _ = loss_functions(template)
        schedule = make_partition(template, PartitionStrategy("qubit_wise"), SeededRng(0))
        cfg = NesConfig(population=16, max_iterations=300)
        _, trace = batch_optimize(fitness, schedule,
                                  SeededRng(3).uniform(30, 0, 2 * np.pi), 0.1, cfg,
                                  SeededRng(3), variant="snes")
        assert trace.losses[-1] < 0.2 * trace.losses[0]

    def test_invalid_variant(self):
        template = build_rpqc(4, 2, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("layer_wise"), SeededRng(0))
        with pytest.raises(ValueError, match="snes or xnes"):
            batch_optimize(lambda rows: np.zeros(len(rows)), schedule, np.zeros(8), 0.1,
                           NesConfig(population=4), SeededRng(0), variant="canonical")

    def test_sigma_must_be_positive(self):
        template = build_rpqc(4, 2, structure_seed=0)
        schedule = make_partition(template, PartitionStrategy("layer_wise"), SeededRng(0))
        with pytest.raises(ValueError, match="sigma"):
            batch_optimize(lambda rows: np.zeros(len(rows)), schedule, np.zeros(8), 0.0,
                           NesConfig(population=4), SeededRng(0))
