import numpy as np
import pytest

from conftest import dense_unitary, embed_single_qubit, random_template

from qnes.ansatz import build_rpqc, template_from_gates
from qnes.simulator import (
    Gate,
    PauliSum,
    apply_gate,
    apply_pauli_string,
    norm_squared,
    pauli_expectation,
    pauli_expectation_batch,
    run_circuit,
    run_circuit_batch,
    stateprep_fitness,
    stateprep_fitness_batch,
    vacuum_projector_expectation,
    zero_state,
)


PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli_string(paulis, num_qubits):
    dense = np.eye(2**num_qubits, dtype=complex)
    for q, p in paulis:
        dense = embed_single_qubit(PAULI_MATRICES[p], q, num_qubits) @ dense
    return dense


def single_slot_template(kind="RY"):
    return template_from_gates(1, [Gate(kind, (0,), slot=0)])


class TestApplyGate:
    def test_ry_pi_flips_zero_to_one(self):
        state = apply_gate(zero_state(1), Gate("RY", (0,), slot=0), np.pi)
        assert np.allclose(state, [0.0, 1.0], atol=1e-12)

    def test_cz_flips_sign_of_11(self):
        state = zero_state(2)
        apply_gate(state, Gate("RY", (0,), angle=np.pi))
        apply_gate(state, Gate("RY", (1,), angle=np.pi))
        apply_gate(state, Gate("CZ", (0, 1)))
        expected = np.zeros(4, dtype=complex)
        expected[3] = -1.0
        assert np.allclose(state, expected, atol=1e-12)

    def test_rz_is_phase_only_on_zero(self):
        theta = 0.7
        state = apply_gate(zero_state(1), Gate("RZ", (0,), slot=0), theta)
        assert np.allclose(state, [np.exp(-1j * theta / 2), 0.0], atol=1e-12)
        assert np.isclose(vacuum_projector_expectation(state), 1.0)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            apply_gate(zero_state(2), Gate("RX", (2,), slot=0), 0.3)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            apply_gate(zero_state(1), Gate("RX", (0,), slot=0), np.nan)

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "CZ"])
    def test_per_row_angles_match_row_by_row(self, rng, kind):
        gate = Gate(kind, (1, 3)) if kind == "CZ" else Gate(kind, (2,), slot=0)
        template = random_template(rng, 4, 12)
        rows = rng.uniform(5 * template.num_params, 0, 2 * np.pi).reshape(5, -1)
        batch = run_circuit_batch(template, rows)
        angles = rng.uniform(5, 0, 2 * np.pi)
        expected = [apply_gate(batch[i].copy(), gate, angles[i]) for i in range(5)]
        assert apply_gate(batch, gate, angles) is batch
        assert np.allclose(batch, np.stack(expected), atol=1e-12)

    def test_norm_preserved_per_gate(self, rng):
        template = random_template(rng, 3, 24)
        state = zero_state(3)
        params = rng.uniform(template.num_params, 0, 2 * np.pi)
        for gate in template.gates:
            angle = params[gate.slot] if gate.slot is not None else 0.0
            apply_gate(state, gate, angle)
            assert abs(norm_squared(state) - 1.0) < 1e-10


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        template = template_from_gates(2, [])
        assert np.allclose(run_circuit(template, np.zeros(0)), [1, 0, 0, 0])

    def test_single_ry_half_pi(self):
        state = run_circuit(single_slot_template(), np.array([np.pi / 2]))
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            run_circuit(single_slot_template(), np.zeros(2))

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
                template = template_from_gates(q, gates)
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
        state = apply_gate(zero_state(2), Gate("RY", (0,), angle=np.pi))
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


class TestStateprepFitness:
    def test_identity_circuit_is_perfect(self):
        template = template_from_gates(2, [Gate("RZ", (0,), slot=0)])
        assert stateprep_fitness(template, np.array([1.3])) < 1e-12

    def test_half_pi(self):
        assert np.isclose(stateprep_fitness(single_slot_template(), np.array([np.pi / 2])), 0.25)

    def test_full_pi(self):
        assert np.isclose(stateprep_fitness(single_slot_template(), np.array([np.pi])), 1.0)

    def test_batch_agrees(self, rng):
        template = build_rpqc(3, 2, structure_seed=1)
        rows = rng.uniform(5 * template.num_params, 0, 2 * np.pi).reshape(5, -1)
        batch = stateprep_fitness_batch(template, rows)
        single = [stateprep_fitness(template, r) for r in rows]
        assert np.allclose(batch, single, atol=1e-12)

    def test_range(self, rng):
        template = build_rpqc(4, 3, structure_seed=2)
        rows = rng.uniform(20 * template.num_params, 0, 2 * np.pi).reshape(20, -1)
        values = stateprep_fitness_batch(template, rows)
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
        state = apply_gate(zero_state(2), Gate("RY", (0,), angle=np.pi))
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
        for _ in range(10):
            template = random_template(rng, 3, 10)
            params = rng.uniform(template.num_params, 0, 2 * np.pi)
            state = run_circuit(template, params)
            assert np.allclose(apply_pauli_string(state, paulis),
                               dense_pauli_string(paulis, 3) @ state, atol=1e-12)

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
                expected = states @ dense_pauli_string(paulis, q).T
                assert np.allclose(apply_pauli_string(states, paulis), expected, atol=1e-12)
                assert np.allclose(apply_pauli_string(states[0], paulis), expected[0],
                                   atol=1e-12)


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
