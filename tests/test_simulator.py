import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (dense_pauli_string, dense_unitary, per_gate_states, per_term_expectations,
                      random_template)

from qnes import ansatz, simulator
from qnes.ansatz import CircuitTemplate, build_alpqc, build_rpqc
from qnes.gradients import loss_functions
from qnes.simulator import (
    GATE_KINDS,
    ROTATION_KINDS,
    Gate,
    PauliSum,
    compile_circuit,
    norm_squared,
    pauli_expectation,
    pauli_expectation_batch,
    run_circuit,
    run_circuit_batch,
    vacuum_projector_expectation,
    zero_state,
)


def single_slot_template(kind="RY"):
    return CircuitTemplate(1, [Gate(kind, (0,), slot=0)])


def flipped(num_qubits, *qubits, then=()):
    """Fixed RY(pi) on each listed qubit, then the gates in `then`; no parameter slots."""
    gates = [Gate("RY", (q,), angle=np.pi) for q in qubits] + list(then)
    return CircuitTemplate(num_qubits, gates)


def assert_rows_match_dense(template, rows):
    states = run_circuit_batch(template, rows)
    assert states.shape == (rows.shape[0], 2**template.num_qubits)
    for row, state in zip(rows, states):
        assert np.max(np.abs(state - dense_unitary(template, row)[:, 0])) < 1e-10


class TestApplyGate:
    """Single gates run through run_circuit_batch, against hand values and the dense oracle."""

    def test_ry_pi_flips_zero_to_one(self):
        state = run_circuit_batch(single_slot_template(), np.array([[np.pi]]))[0]
        assert np.allclose(state, [0.0, 1.0], atol=1e-12)

    def test_cz_flips_sign_of_11(self):
        state = run_circuit(flipped(2, 0, 1, then=[Gate("CZ", (0, 1))]), np.zeros(0))
        expected = np.zeros(4, dtype=complex)
        expected[3] = -1.0
        assert np.allclose(state, expected, atol=1e-12)

    def test_rz_is_phase_only_on_zero(self):
        theta = 0.7
        state = run_circuit_batch(single_slot_template("RZ"), np.array([[theta]]))[0]
        assert np.allclose(state, [np.exp(-1j * theta / 2), 0.0], atol=1e-12)
        assert np.isclose(vacuum_projector_expectation(state), 1.0)

    def test_non_finite_angle_rejected(self):
        template = build_rpqc(3, 2, 0)
        for bad in (np.nan, np.inf, -np.inf):
            rows = np.zeros((2, template.num_params))
            rows[1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                run_circuit_batch(template, rows)
            with pytest.raises(ValueError, match="finite"):
                loss_functions(template)[0](rows[1:2])

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "CZ"])
    def test_per_row_angles_match_row_by_row(self, rng, kind):
        prefix = random_template(rng, 4, 12)
        gate = Gate("CZ", (1, 3)) if kind == "CZ" else Gate(kind, (2,), slot=prefix.num_params)
        template = CircuitTemplate(4, prefix.gates + (gate,))
        rows = rng.uniform(5 * template.num_params, 0, 2 * np.pi).reshape(5, -1)
        assert_rows_match_dense(template, rows)

    def test_norm_preserved_per_gate(self, rng):
        template = random_template(rng, 3, 24)
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        for n in range(1, len(template.gates) + 1):
            prefix = CircuitTemplate(3, template.gates[:n])
            state = run_circuit_batch(prefix, params[None, :prefix.num_params])[0]
            assert abs(norm_squared(state) - 1.0) < 1e-10


ANGLES = st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def circuits(draw):
    """(template, rows): 1-6 qubits, 1-10 gates with CZ on any pair, 1-5 rows."""
    q = draw(st.integers(1, 6))
    gates, slot = [], 0
    for kind in draw(st.lists(st.sampled_from(GATE_KINDS if q > 1 else ROTATION_KINDS),
                              min_size=1, max_size=10)):
        if kind == "CZ":
            pair = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate("CZ", tuple(pair)))
        elif draw(st.booleans()):
            gates.append(Gate(kind, (draw(st.integers(0, q - 1)),), angle=draw(ANGLES)))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, q - 1)),), slot=slot))
            slot += 1
    b = draw(st.integers(1, 5))
    values = draw(st.lists(ANGLES, min_size=b * slot, max_size=b * slot))
    return CircuitTemplate(q, gates), np.array(values).reshape(b, slot)


class TestDenseOracleProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(circuits())
    @example((single_slot_template("RX"), np.array([[0.3], [-2.0]])))
    @example((single_slot_template("RY"), np.array([[1.1]])))
    @example((single_slot_template("RZ"), np.array([[0.7], [3.0], [-5.5]])))
    @example((flipped(3, 0, 2, then=[Gate("CZ", (0, 2))]), np.zeros((2, 0))))
    @example((flipped(4, 1, 3, then=[Gate("RX", (0,), slot=0), Gate("CZ", (3, 1))]),
              np.array([[0.4], [1.9], [-0.8], [2.5], [6.0]])))
    @example((CircuitTemplate(4, [Gate("CZ", (0, 1)), Gate("CZ", (1, 2)), Gate("CZ", (2, 3)),
                                      Gate("RY", (1,), slot=0), Gate("RX", (3,), slot=1),
                                      Gate("CZ", (1, 3))]),
              np.array([[0.9, -1.7], [2.6, 0.4]])))
    @example((flipped(3, 0, then=[Gate("RX", (1,), slot=0), Gate("RY", (2,), angle=1.2),
                                  Gate("CZ", (0, 1)), Gate("CZ", (1, 2))]),
              np.array([[0.5], [-2.2], [3.1]])))
    @example((CircuitTemplate(5, [Gate("RY", (q,), angle=0.3 + q) for q in range(5)]
                                  + [Gate("CZ", (4, 0)), Gate("CZ", (3, 1)), Gate("CZ", (2, 0)),
                                     Gate("CZ", (1, 0)), Gate("RZ", (0,), slot=0),
                                     Gate("RX", (2,), slot=1)]),
              np.array([[1.3, -0.6], [-2.9, 2.0]])))
    @example((CircuitTemplate(3, [Gate("CZ", (0, 1)), Gate("CZ", (2, 1)), Gate("CZ", (0, 2))]),
              np.zeros((2, 0))))
    def test_batch_rows_match_dense_columns(self, case):
        assert_rows_match_dense(*case)


@st.composite
def split_circuits(draw):
    """(template, rows): a lead of fixed gates and CZs, a body that also has slotted
    gates, then a tail of fixed gates and CZs, on 1-6 qubits with 1-17 rows. The plan
    runs the gates before the first slot at compile time; that lead is empty, part or
    (without slots) all of the circuit. Row 0's values are copied into a drawn set of
    columns, so one call mixes columns every row shares with columns that vary."""
    q = draw(st.integers(1, 6))
    gates, slot = [], 0
    for part in ("lead", "body", "tail"):
        for kind in draw(st.lists(st.sampled_from(GATE_KINDS if q > 1 else ROTATION_KINDS),
                                  max_size=6)):
            if kind == "CZ":
                pair = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
                gates.append(Gate("CZ", tuple(pair)))
            elif part == "body" and draw(st.booleans()):
                gates.append(Gate(kind, (draw(st.integers(0, q - 1)),), slot=slot))
                slot += 1
            else:
                gates.append(Gate(kind, (draw(st.integers(0, q - 1)),), angle=draw(ANGLES)))
    b = draw(st.integers(1, 17))
    values = draw(st.lists(ANGLES, min_size=b * slot, max_size=b * slot))
    rows = np.array(values).reshape(b, slot)
    shared = draw(st.lists(st.booleans(), min_size=slot, max_size=slot))
    rows[:, shared] = rows[:1, shared]
    return CircuitTemplate(q, gates), rows


def with_rows(template, b, varying=None):
    """(template, b rows of angles in [-2 pi, 2 pi)), for an @example; with `varying`,
    only those columns differ between rows."""
    rows = np.random.default_rng(3).uniform(-2 * np.pi, 2 * np.pi, (b, template.num_params))
    if varying is not None:
        shared = np.ones(template.num_params, dtype=bool)
        shared[list(varying)] = False
        rows[:, shared] = rows[:1, shared]
    return template, rows


class TestPerGateReferee:
    """The compiled kernel keeps every bit of the plain per-gate formula."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(split_circuits())
    @example(with_rows(build_alpqc(4, 2), 17))
    @example(with_rows(build_alpqc(3, 1), 1))
    @example(with_rows(build_rpqc(5, 3, structure_seed=2), 9))
    @example(with_rows(flipped(3, 0, 2, then=[Gate("CZ", (0, 1)), Gate("RX", (1,), angle=0.4)]),
                       17))
    @example(with_rows(CircuitTemplate(3, [Gate("RZ", (0,), slot=0), Gate("RY", (1,), angle=0.9),
                                           Gate("CZ", (1, 2)), Gate("RX", (2,), slot=1),
                                           Gate("RY", (0,), angle=-2.5)]), 5))
    @example(with_rows(build_rpqc(4, 3, structure_seed=5), 17, varying=()))
    @example(with_rows(build_rpqc(4, 3, structure_seed=5), 1))
    @example(with_rows(build_rpqc(4, 3, structure_seed=5), 2, varying=(6,)))
    # past numpy's 8192-element ufunc buffer, where the sweep lowers it to one row
    @example(with_rows(build_rpqc(10, 2, structure_seed=4), 9))
    @example(with_rows(build_rpqc(10, 2, structure_seed=4), 16, varying=(3, 11, 17)))
    @example(with_rows(build_alpqc(9, 1), 17))
    @example(with_rows(build_alpqc(9, 1), 17, varying=(0, 9)))
    @example(with_rows(build_rpqc(13, 1, structure_seed=6), 2))
    # shared RY and RZ columns (6 RY and 7 RZ slots) on both sides of the rows rule:
    # one row keeps two multiplies, two or more take the fused phase * coeff vector
    @example(with_rows(build_rpqc(5, 4, structure_seed=3), 1))
    @example(with_rows(build_rpqc(5, 4, structure_seed=3), 2, varying=(4, 13)))
    @example(with_rows(build_rpqc(5, 4, structure_seed=3), 17, varying=(4, 13)))
    @example(with_rows(build_rpqc(10, 3, structure_seed=8), 16, varying=(2, 15, 27)))
    # varying RX, RY and RZ columns beside shared ones, which multiply state and temporary
    # as one pair; rows of 64 amplitudes keep numpy's buffer, rows of 128 and up get one row
    @example(with_rows(build_rpqc(6, 3, structure_seed=1), 2, varying=(1, 5, 6)))
    @example(with_rows(build_rpqc(6, 3, structure_seed=1), 16, varying=(1, 5, 6)))
    @example(with_rows(build_rpqc(7, 3, structure_seed=2), 2, varying=(0, 1, 7)))
    @example(with_rows(build_rpqc(7, 3, structure_seed=2), 17, varying=(0, 1, 7)))
    @example(with_rows(build_rpqc(10, 2, structure_seed=4), 1, varying=(2, 3, 9)))
    @example(with_rows(build_rpqc(10, 2, structure_seed=4), 5, varying=(2, 3, 9)))
    @example(with_rows(build_rpqc(10, 2, structure_seed=4), 17, varying=(2, 3, 9)))
    @example(with_rows(build_rpqc(12, 1, structure_seed=6), 1))
    @example(with_rows(build_rpqc(12, 1, structure_seed=6), 2, varying=(0, 1, 7)))
    @example(with_rows(build_rpqc(12, 1, structure_seed=6), 16, varying=(0, 1, 7)))
    def test_kernel_matches_per_gate_formula_bit_for_bit(self, case):
        template, rows = case
        assert np.array_equal(run_circuit_batch(template, rows), per_gate_states(template, rows))


class TestCompiledPlan:
    def test_template_compiles_once(self, monkeypatch):
        calls = []

        def counting(template):
            calls.append(template)
            return compile_circuit(template)

        monkeypatch.setattr(ansatz, "compile_circuit", counting)
        template = build_rpqc(3, 2, structure_seed=7)
        rows = np.zeros((2, template.num_params))
        assert np.array_equal(run_circuit_batch(template, rows), run_circuit_batch(template, rows))
        assert calls == [template]

    def test_cz_runs_are_one_shared_op(self):
        template = build_rpqc(10, 50, structure_seed=11)
        ops, fixed, start = template.plan
        assert len(template.gates) == 960 and len(ops) == 550
        cz = [phase for _, phase, column in ops if column is None]
        assert len(cz) == 50 and all(phase is cz[0] for phase in cz)
        assert cz[0].dtype == complex
        assert np.array_equal(fixed, np.full(10, np.pi / 4))
        basis = CircuitTemplate(10, template.gates[:10])
        assert np.array_equal(start, dense_unitary(basis, np.zeros(0))[:, 0])

    def test_states_and_signs_start_on_a_cache_line(self, rng):
        template = random_template(rng, 6, 40)
        for b in (1, 3, 16):
            rows = rng.uniform(b * template.num_params, 0, 2 * np.pi).reshape(b, -1)
            assert run_circuit_batch(template, rows).ctypes.data % 64 == 0
        phases = [phase for _, phase, _ in template.plan[0]]
        phases += [phase for _, members in simulator._observable(MIXED_SUM, 6)
                   for _, _, phase in members]
        assert all(p.ctypes.data % 64 == 0 for p in phases if p is not None)

    def test_each_call_returns_its_own_aligned_state(self, rng):
        template = random_template(rng, 6, 40)
        for b in (1, 16):
            rows = rng.uniform(b * template.num_params, 0, 2 * np.pi).reshape(b, -1)
            first, second = run_circuit_batch(template, rows), run_circuit_batch(template, rows)
            assert not np.shares_memory(first, second)
            assert first.ctypes.data % 64 == 0 and second.ctypes.data % 64 == 0

    def test_rotation_signs_are_one_complex_array_per_qubit(self):
        idx = np.arange(1 << 10)
        plans = [build_rpqc(10, 50, structure_seed=11).plan, build_alpqc(10, 3).plan]
        signs = {}
        for ops, _, _ in plans:
            for _, phase, column in ops:
                if column is None or phase is None:  # a CZ run or an RX
                    continue
                # the first index where qubit q's sign is -1 is 2**q
                qubit = int(np.flatnonzero(phase.real < 0)[0]).bit_length() - 1
                assert phase.dtype == complex
                assert np.array_equal(phase, 1.0 - 2.0 * ((idx >> qubit) & 1))
                assert signs.setdefault(qubit, phase) is phase
        assert sorted(signs) == list(range(10))


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        template = CircuitTemplate(2, [])
        assert np.allclose(run_circuit(template, np.zeros(0)), [1, 0, 0, 0])

    def test_single_ry_half_pi(self):
        state = run_circuit(single_slot_template(), np.array([np.pi / 2]))
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            run_circuit(single_slot_template(), np.zeros(2))

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match=r"one or more rows .* got shape \(0, 1\)"):
            run_circuit_batch(single_slot_template(), np.zeros((0, 1)))

    def test_norm_is_one(self, rng):
        for _ in range(20):
            template = random_template(rng, 3, 15)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            assert abs(norm_squared(run_circuit(template, params)) - 1.0) < 1e-10

    def test_matches_dense_oracle(self, rng):
        for _ in range(100):
            q = int(rng.integers(1, 4, 1)[0])
            template = random_template(rng, q, int(rng.integers(1, 12, 1)[0]))
            params = rng.uniform(max(template.num_params, 1), 0, 2 * np.pi)[: template.num_params]
            state = run_circuit(template, params)
            expected = dense_unitary(template, params)[:, 0]
            assert np.max(np.abs(state - expected)) < 1e-10

    def test_non_adjacent_cz_matches_dense_oracle(self, rng):
        for q in (4, 5):
            for _ in range(10):
                gates = list(random_template(rng, q, 12, cz_probability=0.0).gates)
                for _ in range(4):
                    a, b = (int(v) for v in rng.permutation(q)[:2])
                    at = int(rng.integers(0, len(gates) + 1, 1)[0])
                    gates.insert(at, Gate("CZ", (a, b)))
                template = CircuitTemplate(q, gates)
                params = rng.uniform(template.num_params, 0, 2 * np.pi)
                expected = dense_unitary(template, params)[:, 0]
                assert np.max(np.abs(run_circuit(template, params) - expected)) < 1e-10

    def test_batch_matches_single_runs(self, rng):
        template = build_rpqc(4, 3, structure_seed=5)
        rows = rng.uniform(6 * template.num_params, 0, 2 * np.pi).reshape(6, -1)
        batch = run_circuit_batch(template, rows)
        for i in range(6):
            assert np.max(np.abs(batch[i] - run_circuit(template, rows[i]))) < 1e-12


class TestVacuumProjector:
    def test_vacuum_state(self):
        assert vacuum_projector_expectation(zero_state(3)) == 1.0

    def test_orthogonal_state(self):
        state = run_circuit(flipped(2, 0), np.zeros(0))
        assert abs(vacuum_projector_expectation(state)) < 1e-12

    def test_half_pi_rotation(self):
        state = run_circuit(single_slot_template(), np.array([np.pi / 2]))
        assert np.isclose(vacuum_projector_expectation(state), 0.5)

    def test_range(self, rng):
        for _ in range(20):
            template = random_template(rng, 3, 12)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            value = vacuum_projector_expectation(run_circuit(template, params))
            assert -1e-12 <= value <= 1.0 + 1e-12


def stateprep_loss(template, params):
    return loss_functions(template)[0](np.asarray(params, dtype=float)[None, :])[0]


class TestStateprepFitness:
    def test_identity_circuit_is_perfect(self):
        template = CircuitTemplate(2, [Gate("RZ", (0,), slot=0)])
        assert stateprep_loss(template, [1.3]) < 1e-12

    def test_half_pi(self):
        assert np.isclose(stateprep_loss(single_slot_template(), [np.pi / 2]), 0.25)

    def test_full_pi(self):
        assert np.isclose(stateprep_loss(single_slot_template(), [np.pi]), 1.0)

    def test_batch_agrees(self, rng):
        template = build_rpqc(3, 2, structure_seed=1)
        rows = rng.uniform(5 * template.num_params, 0, 2 * np.pi).reshape(5, -1)
        batch = loss_functions(template)[0](rows)
        single = [stateprep_loss(template, r) for r in rows]
        assert np.allclose(batch, single, atol=1e-12)

    def test_range(self, rng):
        template = build_rpqc(4, 3, structure_seed=2)
        rows = rng.uniform(20 * template.num_params, 0, 2 * np.pi).reshape(20, -1)
        values = loss_functions(template)[0](rows)
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)


class TestPauliExpectation:
    def test_z_on_vacuum(self):
        h = PauliSum.build(1, [(1.0, {0: "Z"})])
        assert np.isclose(pauli_expectation(zero_state(1), h), 1.0)

    def test_x_on_plus_state(self):
        state = run_circuit(single_slot_template(), np.array([np.pi / 2]))
        h = PauliSum.build(1, [(1.0, {0: "X"})])
        assert np.isclose(pauli_expectation(state, h), 1.0)

    def test_zz_on_01(self):
        state = run_circuit(flipped(2, 0), np.zeros(0))
        h = PauliSum.build(2, [(1.0, {0: "Z", 1: "Z"})])
        assert np.isclose(pauli_expectation(state, h), -1.0)

    def test_identity_term(self):
        h = PauliSum.build(2, [(0.5, {}), (0.25, {1: "Z"})])
        assert np.isclose(pauli_expectation(zero_state(2), h), 0.75)

    def test_single_string_in_unit_interval(self, rng):
        for _ in range(25):
            template = random_template(rng, 3, 12)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            state = run_circuit(template, params)
            letters = ["X", "Y", "Z"]
            factors = {
                q: letters[int(rng.integers(0, 3, 1)[0])]
                for q in range(3)
                if rng.uniform(1)[0] < 0.7
            }
            if not factors:
                factors = {0: "Z"}
            h = PauliSum.build(3, [(1.0, factors)])
            value = pauli_expectation(state, h)
            assert -1.0 - 1e-10 <= value <= 1.0 + 1e-10

    def test_batch_agrees(self, rng):
        template = build_rpqc(3, 2, structure_seed=4)
        h = PauliSum.build(3, [(0.7, {0: "Z", 1: "Z"}), (-0.3, {2: "X"})])
        rows = rng.uniform(5 * template.num_params, 0, 2 * np.pi).reshape(5, -1)
        batch = pauli_expectation_batch(run_circuit_batch(template, rows), h)
        single = [pauli_expectation(run_circuit(template, r), h) for r in rows]
        assert np.allclose(batch, single, atol=1e-12)

    def test_pauli_string_matches_dense(self, rng):
        paulis = ((0, "Y"), (2, "X"))
        h = PauliSum(3, ((1.0, paulis),))
        for _ in range(10):
            template = random_template(rng, 3, 10)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            state = run_circuit(template, params)
            expected = np.vdot(state, dense_pauli_string(paulis, 3) @ state).real
            assert np.isclose(pauli_expectation_batch(state, h)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("alphabet, flips", [
        ("", 0),     # identity
        ("Z", 0),    # phase only
        ("X", 0),    # permutation only
        ("XYZ", 2),  # >= 2 flips: further flips are XORed into the first's permutation
    ])
    def test_random_strings_match_dense(self, rng, alphabet, flips):
        def pick(letters):
            return letters[int(rng.integers(0, len(letters), 1)[0])]

        for q in range(max(flips, 1), 6):
            template = random_template(rng, q, 10)
            rows = rng.uniform(3 * template.num_params, 0, 2 * np.pi).reshape(3, -1)
            states = run_circuit_batch(template, rows)
            for _ in range(8):
                size = int(rng.integers(max(flips, 1), q + 1, 1)[0]) if alphabet else 0
                qubits = rng.permutation(q)[:size]
                letters = [pick("XY") if j < flips else pick(alphabet) for j in range(size)]
                paulis = tuple(sorted((int(b), p) for b, p in zip(qubits, letters)))
                h = PauliSum(q, ((1.0, paulis),))
                applied = states @ dense_pauli_string(paulis, q).T
                expected = np.sum(np.conj(states) * applied, axis=1).real
                assert np.allclose(pauli_expectation_batch(states, h), expected, atol=1e-12)
                assert np.allclose(pauli_expectation_batch(states[0], h), expected[:1],
                                   atol=1e-12)

    def test_narrower_observable_acts_on_the_low_qubits(self, rng):
        terms = ((0.7, ((0, "Y"), (1, "X"))), (-0.4, ((1, "Z"),)), (0.2, ()))
        h = PauliSum(2, terms)
        for q in (2, 4):  # the width-2 call first, so a term table keyed on h alone would fail
            template = random_template(rng, q, 16)
            rows = rng.uniform(3 * template.num_params, 0, 2 * np.pi).reshape(3, -1)
            states = run_circuit_batch(template, rows)
            dense = sum(c * dense_pauli_string(paulis, q) for c, paulis in terms)
            expected = np.sum(np.conj(states) * (states @ dense.T), axis=1).real
            assert np.allclose(pauli_expectation_batch(states, h), expected, atol=1e-12)

    def test_wider_observable_rejected(self):
        h = PauliSum.build(3, [(1.0, {2: "Z"})])
        with pytest.raises(ValueError, match="acts on more qubits than the state has"):
            pauli_expectation_batch(zero_state(2, batch=2), h)


@st.composite
def pauli_sums(draw):
    """(states, h): 1-17 rows on 1-10 qubits, some amplitudes exactly 0, and a sum of
    identity, Z-only, X/Y-mixed and odd-Y terms, with flip masks that repeat across
    terms (the same qubits flipped by X in one term and Y in another)."""
    q = draw(st.integers(1, 10))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=q, max_size=q))
        terms.append({k: p for k, p in enumerate(letters) if p != "I"})
        if draw(st.booleans()):  # same flips, X and Y swapped, Z dropped
            terms.append({k: "XY"[p == "X"] for k, p in terms[-1].items() if p != "Z"})
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(terms), max_size=len(terms)))
    b, seed, zeros = draw(st.integers(1, 17)), draw(st.integers(0, 2**16)), draw(st.booleans())
    return sum_case(q, b, zip(coeffs, terms), seed, zeros)


def sum_case(q, b, terms, seed=0, zeros=False):
    """(states, h) for an @example: b random complex rows on q qubits, a third of their
    amplitudes set to 0 with `zeros`."""
    gen = np.random.default_rng(seed)
    states = gen.standard_normal((b, 1 << q)) + 1j * gen.standard_normal((b, 1 << q))
    if zeros:
        states[gen.random(states.shape) < 1 / 3] = 0.0
    return states, PauliSum.build(q, terms)


MIXED_TERMS = [(0.5, {}), (0.3, {0: "Z", 4: "Z"}), (-0.2, {1: "X", 2: "Y"}), (0.1, {3: "Y"}),
               (0.4, {1: "Y", 2: "X", 5: "Z"}), (-0.7, {1: "Y", 2: "Y"}), (0.25, {6: "Z"}),
               (0.9, {3: "Y", 7: "X"}), (-0.6, {3: "X"})]


class TestObservableReferee:
    """The grouped observable keeps every bit of the plain per-term formula."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pauli_sums())
    @example(sum_case(1, 1, [(1.0, {0: "Y"})]))
    @example(sum_case(3, 4, [(0.7, {}), (-1.2, {})], zeros=True))
    @example(sum_case(8, 17, MIXED_TERMS))
    # past numpy's 8192-element ufunc buffer, where the term loop lowers it to one row
    @example(sum_case(10, 9, MIXED_TERMS, seed=1))
    @example(sum_case(10, 16, MIXED_TERMS, seed=2, zeros=True))
    @example(sum_case(9, 17, MIXED_TERMS[::-1], seed=3))
    @example(sum_case(14, 1, MIXED_TERMS + [(0.2, {13: "X", 11: "Y"})], seed=4))
    def test_observable_matches_per_term_formula_bit_for_bit(self, case):
        states, h = case
        assert np.array_equal(pauli_expectation_batch(states, h), per_term_expectations(states, h))


class TestCompiledObservable:
    """`_observable` is a sum's one compiled form: each term once, in its flip mask's group,
    on the cached flip and sign arrays of its masks, which the kernel's gates share."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pauli_sums())
    @example(sum_case(8, 1, MIXED_TERMS))
    def test_each_term_once_on_shared_aligned_arrays(self, case):
        _, h = case
        n = h.num_qubits
        # compiled afresh, so the array caches hold every flip and sign it used
        groups = simulator._observable.__wrapped__(h, n)
        order = [[index for index, _, _ in members] for _, members in groups]
        assert sorted(sum(order, [])) == list(range(len(h.terms)))
        assert all(indices == sorted(indices) for indices in order)  # term order within a mask
        assert [indices[0] for indices in order] == sorted(indices[0] for indices in order)
        masks = []
        for perm, members in groups:
            (flips,) = {tuple(q for q, p in h.terms[i][1] if p != "Z") for i, _, _ in members}
            masks.append(flips)
            if flips:
                assert perm is simulator._flip(n, sum(1 << q for q in flips))
            assert (perm is None) == (not flips)
            for index, coeff, phase in members:
                term_coeff, paulis = h.terms[index]
                ys = sum(p == "Y" for _, p in paulis)
                assert coeff == term_coeff * (1, -1j, -1, 1j)[ys % 4]
                signs = sum(1 << q for q, p in paulis if p != "X")
                assert phase is (simulator._sign(n, signs) if signs else None)
                assert phase is None or phase.ctypes.data % 64 == 0
        assert len(set(masks)) == len(masks)


@st.composite
def pauli_strings(draw):
    """(num_qubits, paulis, psi): a Pauli string on 1-8 qubits, identity included, and a
    random complex state with some amplitudes exactly 0."""
    q = draw(st.integers(1, 8))
    letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=q, max_size=q))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    psi = gen.standard_normal(1 << q) + 1j * gen.standard_normal(1 << q)
    psi[gen.random(psi.shape) < 1 / 4] = 0.0
    return q, tuple((k, p) for k, p in enumerate(letters) if p != "I"), psi


class TestPauliString:
    """`_pauli` is the one form of a Pauli string: the kernel's rotations and the
    observable's terms read its arrays, and it keeps the Kronecker product's bits."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(pauli_strings())
    @example((1, ((0, "Y"),), np.array([1.0 - 2.0j, 0.5j])))
    @example((3, ((0, "Y"), (1, "Y"), (2, "Y")), np.arange(8) * (1 - 1j)))
    def test_matches_the_kronecker_product_bit_for_bit(self, case):
        q, paulis, psi = case
        perm, phase, ys = simulator._pauli(q, paulis)
        action = (-1j)**ys * (1 if phase is None else phase) * (psi if perm is None else psi[perm])
        assert np.array_equal(action, dense_pauli_string(paulis, q) @ psi)
        assert ys == sum(p == "Y" for _, p in paulis)

    @pytest.mark.parametrize("q", [0, 3])
    def test_gates_and_one_factor_terms_hold_its_arrays(self, q):
        n = 4
        template = CircuitTemplate(n, [Gate(k, (q,), slot=s) for s, k in enumerate(ROTATION_KINDS)])
        ops, _, _ = compile_circuit(template)
        h = PauliSum.build(n, [(1.0, {q: kind[1]}) for kind in ROTATION_KINDS])
        terms = {index: (perm, phase) for perm, members in simulator._observable(h, n)
                 for index, _, phase in members}
        for slot, (kind, (perm, phase, column)) in enumerate(zip(ROTATION_KINDS, ops)):
            want_perm, want_phase, ys = simulator._pauli(n, ((q, kind[1]),))
            assert perm is want_perm and phase is want_phase
            assert terms[slot][0] is want_perm and terms[slot][1] is want_phase
            assert ys == (kind == "RY")
            assert column == slot - 3 * ys  # RY's -sin half of the coefficient table


class TestBufferRule:
    """numpy's ufunc buffer is one row inside a call of two or more rows of 128 to 8,191
    amplitudes, and is back to what it was after every call, whether it returns or raises."""

    @pytest.mark.parametrize("shape, inside", [
        ((16, 64), 8192),      # rows of 64 amplitudes: untouched
        ((2, 1024), 1024),     # two rows that fit the buffer: one row
        ((17, 512), 512),
        ((3000, 4), 8192),     # rows of 4 amplitudes: untouched
        ((2, 8192), 8192),     # a row as long as the buffer: untouched
        ((2, 16384), 8192),
        ((2, 128), 128),       # the shortest row it lowers to
        ((1, 4096), 8192),     # one row: untouched
        ((2, 4096), 4096),
    ])
    def test_buffer_inside_the_rule(self, shape, inside):
        with simulator._row_buffer(shape):
            assert np.getbufsize() == inside
        assert np.getbufsize() == 8192

    def test_a_call_that_fits_never_sets_the_buffer(self, monkeypatch):
        sizes, setbufsize = [], np.setbufsize
        monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or setbufsize(size))
        for q, b in ((6, 16), (10, 1)):  # rows of 64 amplitudes, and one row of 1024
            template, h = build_rpqc(q, 2, structure_seed=4), PauliSum.build(q, MIXED_TERMS[:4])
            rows = np.random.default_rng(b).uniform(0, 2 * np.pi, (b, template.num_params))
            pauli_expectation_batch(run_circuit_batch(template, rows), h)
        assert sizes == []
        rows = np.random.default_rng(2).uniform(0, 2 * np.pi, (2, template.num_params))
        pauli_expectation_batch(run_circuit_batch(template, rows), h)
        assert sizes == [1024, 8192] * 2

    def test_buffer_restored_when_the_block_raises(self):
        with pytest.raises(KeyError):
            with simulator._row_buffer((16, 1024)):
                raise KeyError("inside")
        assert np.getbufsize() == 8192

    @staticmethod
    def calls_and_bufsizes():
        """Run both entry points on either side of the rule, then make each raise after its
        loop (norm drift, imaginary residue) and inside it; the buffer size after each."""
        template = build_rpqc(10, 2, structure_seed=4)
        sizes = []
        for b in (1, 16):
            rows = np.random.default_rng(b).uniform(0, 2 * np.pi, (b, template.num_params))
            states = run_circuit_batch(template, rows)
            sizes.append(np.getbufsize())
            pauli_expectation_batch(states, PauliSum.build(10, MIXED_TERMS))
            sizes.append(np.getbufsize())
        broken = build_rpqc(10, 2, structure_seed=4)
        ops, fixed, start = broken.plan
        broken.__dict__["plan"] = ops, fixed, 2.0 * start
        with pytest.raises(RuntimeError, match="drifted"):
            run_circuit_batch(broken, rows)
        sizes.append(np.getbufsize())
        broken.__dict__["plan"] = ops + ((None, np.ones(3, dtype=complex), None),), fixed, start
        with pytest.raises(ValueError):
            run_circuit_batch(broken, rows)
        sizes.append(np.getbufsize())
        return sizes, states

    def test_buffer_unchanged_after_every_call(self, monkeypatch):
        sizes, states = self.calls_and_bufsizes()
        # a phase of i on |psi|^2 leaves the whole value imaginary
        monkeypatch.setattr(simulator, "_observable",
                            lambda h, q: ((None, ((0, 1.0, np.full(1 << q, 1j)),)),))
        with pytest.raises(RuntimeError, match="imaginary residue"):
            pauli_expectation_batch(states, PauliSum.build(10, [(1.0, {0: "Z"})]))
        sizes.append(np.getbufsize())
        monkeypatch.setattr(simulator, "_observable",
                            lambda h, q: ((None, ((0, 1.0, np.ones(3, dtype=complex)),)),))
        with pytest.raises(ValueError):
            pauli_expectation_batch(states, PauliSum.build(10, [(1.0, {0: "Z"})]))
        sizes.append(np.getbufsize())
        assert sizes == [8192] * 8

    def test_buffer_unchanged_in_a_worker_thread(self):
        sizes, _ = in_fresh_thread(self.calls_and_bufsizes)
        assert sizes == [8192] * 6
        assert np.getbufsize() == 8192


def in_fresh_thread(fn, *args):
    """fn(*args) on a new thread, which shares no temporaries with this one."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


MIXED_SUM = PauliSum.build(6, [(0.3, {0: "Z"}), (-0.2, {1: "X", 2: "Y"}), (0.5, {}),
                               (0.1, {3: "Y"}), (0.4, {4: "X", 5: "Z"})])


class TestScratchBuffers:
    """The kernel's and the observable's temporaries belong to one call: they carry nothing
    into a later call or another thread, and none is held after the call returns."""

    def test_changing_row_counts_match_fresh_calls(self, rng):
        template = random_template(rng, 6, 40)
        for b in (16, 1, 16):
            rows = rng.uniform(b * template.num_params, 0, 2 * np.pi).reshape(b, -1)
            states = run_circuit_batch(template, rows)
            assert np.array_equal(states, in_fresh_thread(run_circuit_batch, template, rows))
            assert np.array_equal(pauli_expectation_batch(states, MIXED_SUM),
                                  in_fresh_thread(pauli_expectation_batch, states, MIXED_SUM))

    def test_writing_into_results_changes_no_later_call(self, rng):
        template = random_template(rng, 6, 40)
        rows = rng.uniform(4 * template.num_params, 0, 2 * np.pi).reshape(4, -1)
        states = run_circuit_batch(template, rows)
        kept_states = states.copy()
        values = pauli_expectation_batch(kept_states, MIXED_SUM)
        kept_values = values.copy()
        states[:] = 7.0
        values[:] = 7.0
        assert np.array_equal(run_circuit_batch(template, rows), kept_states)
        assert np.array_equal(pauli_expectation_batch(kept_states, MIXED_SUM), kept_values)

    def test_a_call_holds_no_memory_after_it_returns(self, rng):
        template = random_template(rng, 12, 40)
        rows = rng.uniform(256 * template.num_params, 0, 2 * np.pi).reshape(256, -1)
        states = run_circuit_batch(template, rows)
        simulator._observable(MIXED_SUM, 12)  # compiled once and cached, outside the trace
        tracemalloc.start()
        try:
            values = pauli_expectation_batch(states, MIXED_SUM)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (256,)
        assert held < 1 << 20  # a 256-row, 12-qubit call's temporaries take 48 MiB

    @pytest.mark.parametrize("q, b", [(10, 256), (12, 128)])
    def test_a_call_peaks_at_its_blocks(self, q, b):
        """The kernel's peak is its (2, B, 2**Q) pair block, 32 B per row-amplitude, and the
        observable's its three temporaries, 48 B, each plus one fixed allowance; one more
        state-sized temporary (16 B) is four times that allowance or more."""
        template, h = build_rpqc(q, 1, structure_seed=4), PauliSum.build(q, MIXED_TERMS)
        rows = np.random.default_rng(q).uniform(0, 2 * np.pi, (b, template.num_params))
        states = run_circuit_batch(template, rows)
        simulator._observable(h, q)  # compiled once and cached, outside the trace
        peaks = []
        tracemalloc.start()
        try:
            for call, args in ((run_circuit_batch, (template, rows)),
                               (pauli_expectation_batch, (states, h))):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        allowance, amplitudes = 1 << 20, b << q
        assert 32 * amplitudes <= peaks[0] <= 32 * amplitudes + allowance
        assert 48 * amplitudes <= peaks[1] <= 48 * amplitudes + allowance

    def test_concurrent_threads_keep_their_own_scratch(self, rng):
        template = random_template(rng, 6, 40)
        batches = [rng.uniform(b * template.num_params, 0, 2 * np.pi).reshape(b, -1)
                   for b in (16, 1, 9, 16, 3, 12)]
        expected = [pauli_expectation_batch(run_circuit_batch(template, rows), MIXED_SUM)
                    for rows in batches]

        def evaluate(rows):
            return pauli_expectation_batch(run_circuit_batch(template, rows), MIXED_SUM)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(evaluate, rows) for rows in batches * 8]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected * 8):
            assert np.array_equal(got, want)


class TestGateValidation:
    def test_cz_needs_distinct_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CZ", (1, 1))

    def test_rotation_needs_slot_xor_angle(self):
        with pytest.raises(ValueError, match="slot or angle"):
            Gate("RX", (0,))
        with pytest.raises(ValueError, match="slot or angle"):
            Gate("RX", (0,), slot=0, angle=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("H", (0,), angle=0.0)

    def test_pauli_sum_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            PauliSum(2, ((1.0, ((0, "Z"), (0, "X"))),))
        with pytest.raises(ValueError, match="out of range"):
            PauliSum(2, ((1.0, ((2, "Z"),)),))
        with pytest.raises(ValueError, match="Pauli letter"):
            PauliSum(2, ((1.0, ((0, "Q"),)),))

    def test_pauli_sum_sorts_each_term(self):
        unsorted = PauliSum(2, ((1.0, ((1, "Z"), (0, "X"))),))
        ordered = PauliSum(2, ((1.0, ((0, "X"), (1, "Z"))),))
        assert unsorted == ordered
        assert unsorted.terms == ordered.terms
        assert simulator._observable(unsorted, 2) is simulator._observable(ordered, 2)
