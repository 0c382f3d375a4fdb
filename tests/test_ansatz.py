import numpy as np
import pytest

from qnes.ansatz import (
    AnsatzSpec,
    BASIS_ROTATION_ANGLE,
    CircuitTemplate,
    build_alpqc,
    build_rpqc,
    template_to_text,
)
from qnes.simulator import Gate


class TestRpqc:
    def test_minimal_structure(self):
        t = build_rpqc(2, 1, structure_seed=0)
        fixed = [g for g in t.gates if g.slot is None and g.kind != "CZ"]
        slotted = [g for g in t.gates if g.slot is not None]
        czs = [g for g in t.gates if g.kind == "CZ"]
        assert len(fixed) == 2 and all(g.angle == BASIS_ROTATION_ANGLE for g in fixed)
        assert len(slotted) == 2
        assert len(czs) == 1
        assert t.num_params == 2

    def test_parameter_count_formula(self):
        for q in range(2, 9):
            for layers in range(1, 6):
                assert build_rpqc(q, layers, 0).num_params == q * layers

    def test_five_qubit_ten_layer_count(self):
        assert build_rpqc(5, 10, structure_seed=11).num_params == 50

    def test_structure_is_reproducible(self):
        a = build_rpqc(4, 3, structure_seed=9)
        b = build_rpqc(4, 3, structure_seed=9)
        assert a == b

    def test_different_seeds_vary_kinds(self):
        kinds = {
            tuple(g.kind for g in build_rpqc(4, 3, structure_seed=s).gates if g.slot is not None)
            for s in range(10)
        }
        assert len(kinds) > 1

    def test_cz_chain_is_adjacent(self):
        t = build_rpqc(6, 4, structure_seed=3)
        for g in t.gates:
            if g.kind == "CZ":
                assert abs(g.qubits[0] - g.qubits[1]) == 1

    def test_slot_metadata(self):
        t = build_rpqc(3, 4, structure_seed=1)
        for slot in range(t.num_params):
            assert t.slot_layers[slot] == slot // 3
            assert t.slot_qubits[slot] == slot % 3

    def test_kind_distribution_uniform(self):
        # multinomial 3-sigma band over many seeds
        counts = {"RX": 0, "RY": 0, "RZ": 0}
        n_seeds, slots = 300, 20
        for seed in range(n_seeds):
            for g in build_rpqc(4, 5, structure_seed=seed).gates:
                if g.slot is not None:
                    counts[g.kind] += 1
        total = n_seeds * slots
        sigma = np.sqrt(total * (1 / 3) * (2 / 3))
        for kind, count in counts.items():
            assert abs(count - total / 3) < 3 * sigma, (kind, count)

    def test_too_few_qubits(self):
        with pytest.raises(ValueError, match="qubits"):
            build_rpqc(1, 2, 0)
        with pytest.raises(ValueError, match="layer"):
            build_rpqc(3, 0, 0)


class TestAlpqc:
    def test_parameter_count_formula(self):
        assert build_alpqc(3, 1).num_params == 4
        assert build_alpqc(5, 10).num_params == 80
        for q in range(3, 9):
            for layers in range(1, 6):
                assert build_alpqc(q, layers).num_params == 2 * (q - 1) * layers

    def test_all_trainable_gates_are_ry(self):
        t = build_alpqc(5, 3)
        assert all(g.kind == "RY" for g in t.gates if g.slot is not None)

    def test_entangler_patterns_alternate(self):
        t = build_alpqc(5, 1)
        czs = [g.qubits for g in t.gates if g.kind == "CZ"]
        assert czs == [(0, 1), (2, 3), (1, 2), (3, 4)]

    def test_sub_layer_targets(self):
        t = build_alpqc(4, 1)
        slotted = [g for g in t.gates if g.slot is not None]
        assert [g.qubits[0] for g in slotted[:3]] == [0, 1, 2]
        assert [g.qubits[0] for g in slotted[3:]] == [1, 2, 3]

    def test_too_few_qubits(self):
        with pytest.raises(ValueError, match="qubits"):
            build_alpqc(2, 1)

    @pytest.mark.parametrize("qubits, layers", [(3, 1), (4, 3), (5, 2), (8, 7)])
    def test_slot_metadata(self, qubits, layers):
        # per layer: RY on qubits 0..Q-2, then RY on qubits 1..Q-1
        per_layer = list(range(qubits - 1)) + list(range(1, qubits))
        t = build_alpqc(qubits, layers)
        assert t.slot_qubits == tuple(per_layer * layers)
        assert t.slot_layers == tuple(layer for layer in range(layers) for _ in per_layer)
        # each slot's qubit is the qubit of the gate carrying that slot
        assert all(t.slot_qubits[g.slot] == g.qubits[0] for g in t.gates if g.slot is not None)


class TestAnsatzSpec:
    def test_build_dispatch(self):
        assert AnsatzSpec("rpqc", 4, 2, structure_seed=7).build() == build_rpqc(4, 2, 7)
        assert AnsatzSpec("alpqc", 4, 2).build() == build_alpqc(4, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            AnsatzSpec("uccsd", 4, 2).build()

    @pytest.mark.parametrize("family", ["rpqc", "alpqc"])
    @pytest.mark.parametrize("qubits, layers", [(3, 1), (4, 2), (5, 10), (8, 3), (10, 50),
                                                (11, 4), (18, 7)])
    def test_gate_count_closed_form_matches_the_build(self, family, qubits, layers):
        spec = AnsatzSpec(family, qubits, layers, structure_seed=3)
        assert spec.num_gates == len(spec.build().gates)


class TestSerialization:
    """circuit.txt is provenance only, so these pin its exact text."""

    def test_text_is_stable(self):
        assert template_to_text(build_rpqc(2, 1, structure_seed=0)) == (
            "# circuit-template v1\n"
            "family rpqc\n"
            "qubits 2\n"
            "layers 1\n"
            "gate RY 0 angle 0.7853981633974483\n"
            "gate RY 1 angle 0.7853981633974483\n"
            "gate RX 0 slot 0\n"
            "gate RZ 1 slot 1\n"
            "gate CZ 0 1\n"
        )

    def test_alpqc_text_shows_angle_repr(self):
        assert repr(BASIS_ROTATION_ANGLE) == "0.7853981633974483"
        assert template_to_text(build_alpqc(3, 1)) == (
            "# circuit-template v1\n"
            "family alpqc\n"
            "qubits 3\n"
            "layers 1\n"
            "gate RY 0 angle 0.7853981633974483\n"
            "gate RY 1 angle 0.7853981633974483\n"
            "gate RY 2 angle 0.7853981633974483\n"
            "gate RY 0 slot 0\n"
            "gate RY 1 slot 1\n"
            "gate CZ 0 1\n"
            "gate RY 1 slot 2\n"
            "gate RY 2 slot 3\n"
            "gate CZ 1 2\n"
        )


class TestCustomTemplate:
    def test_built_from_a_list_of_gates(self):
        gates = [Gate("RY", (0,), angle=0.5), Gate("RX", (1,), slot=0), Gate("CZ", (0, 1)),
                 Gate("RZ", (0,), slot=1)]
        t = CircuitTemplate(2, gates)
        assert t.gates == tuple(gates)
        assert (t.num_params, t.num_layers, t.family) == (2, 0, "custom")
        assert t.slot_qubits == (1, 0)
        assert t.slot_layers == (0, 0)
        assert CircuitTemplate(2, iter(gates)) == t
        assert hash(CircuitTemplate(2, gates)) == hash(t)

    def test_slot_qubits_follow_slot_numbers_not_gate_order(self):
        t = CircuitTemplate(3, [Gate("RY", (2,), slot=1), Gate("RX", (0,), slot=2),
                                Gate("RZ", (1,), slot=0)])
        assert t.slot_qubits == (1, 2, 0)

    def test_slot_layers_split_slots_evenly(self):
        gates = [Gate("RY", (s % 2,), slot=s) for s in range(6)]
        assert CircuitTemplate(2, gates, num_layers=3).slot_layers == (0, 0, 1, 1, 2, 2)

    def test_no_slots(self):
        t = CircuitTemplate(2, [Gate("CZ", (0, 1))], num_layers=1)
        assert (t.num_params, t.slot_qubits, t.slot_layers) == (0, (), ())


class TestTemplateValidation:
    def test_slots_must_be_dense(self):
        with pytest.raises(ValueError, match="slots"):
            CircuitTemplate(2, [Gate("RX", (0,), slot=1)])

    @pytest.mark.parametrize("slots", [(0, 0), (1, 2), (0, 2), (-1, 0)])
    def test_slots_must_be_zero_to_p_minus_one_once(self, slots):
        with pytest.raises(ValueError, match="slots"):
            CircuitTemplate(2, [Gate("RY", (0,), slot=s) for s in slots])

    def test_targets_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CircuitTemplate(1, [Gate("CZ", (0, 1))])
