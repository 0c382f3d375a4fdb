"""Circuit families: random Pauli-rotation circuits and alternating RY/CZ layers.

Both families start from a fixed layer of RY(pi/4) basis rotations (no parameter
slots), so the all-zeros target is not an eigenstate of the trainable block.
Structure randomness (which rotation axis each slot gets) is seeded separately
from parameter initialization, so experiments can fix an architecture while
varying initializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import SeededRng
from .simulator import Gate, ROTATION_KINDS, compile_circuit

BASIS_ROTATION_ANGLE = np.pi / 4

# smallest (qubits, layers) each built family accepts
MIN_SIZE = {"rpqc": (2, 1), "alpqc": (3, 1)}


@dataclass(frozen=True)
class CircuitTemplate:
    """Ordered gate list with distinct parameter slots.

    slot_layers / slot_qubits map each slot to the layer and qubit that own it;
    the batching strategies group slots through these.
    """

    num_qubits: int
    num_layers: int
    gates: tuple[Gate, ...]
    num_params: int
    slot_layers: tuple[int, ...]
    slot_qubits: tuple[int, ...]
    family: str = "custom"

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        slots = []
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate target {q} out of range")
            if g.slot is not None:
                slots.append(g.slot)
        if sorted(slots) != list(range(self.num_params)):
            raise ValueError("parameter slots must cover 0..num_params-1 exactly once")
        if len(self.slot_layers) != self.num_params or len(self.slot_qubits) != self.num_params:
            raise ValueError("slot metadata length must equal num_params")

    @cached_property
    def plan(self) -> tuple:
        """The simulator's compiled ops and fixed angles, built on first use."""
        return compile_circuit(self)


def template_from_gates(
    num_qubits: int,
    gates,
    num_layers: int = 0,
    slot_layers=None,
    family: str = "custom",
) -> CircuitTemplate:
    """Assemble a template from gates, deriving slot counts and per-slot qubits."""
    gates = tuple(gates)
    slot_qubit = {g.slot: g.qubits[0] for g in gates if g.slot is not None}
    num_params = len(slot_qubit)
    if slot_layers is None:
        slot_layers = (0,) * num_params
    slot_qubits = tuple(slot_qubit.get(s, 0) for s in range(num_params))
    return CircuitTemplate(
        num_qubits=num_qubits,
        num_layers=num_layers,
        gates=gates,
        num_params=num_params,
        slot_layers=tuple(slot_layers),
        slot_qubits=slot_qubits,
        family=family,
    )


def check_size(family: str, num_qubits: int, num_layers: int) -> None:
    """Raise ValueError, naming qubits or layers, if either is below the family's minimum."""
    for key, value, minimum in zip(("qubits", "layers"), (num_qubits, num_layers),
                                   MIN_SIZE[family]):
        if value < minimum:
            raise ValueError(f"{key} must be >= {minimum} for {family}, got {value}")


def _basis_rotation_layer(num_qubits: int) -> list[Gate]:
    return [Gate("RY", (q,), angle=BASIS_ROTATION_ANGLE) for q in range(num_qubits)]


def build_rpqc(num_qubits: int, num_layers: int, structure_seed: int) -> CircuitTemplate:
    """Random circuit: per layer, one random-axis rotation per qubit, then a CZ chain.

    Rotation axes are drawn uniformly from {RX, RY, RZ} using structure_seed;
    slot s belongs to layer s // Q on qubit s % Q.
    """
    check_size("rpqc", num_qubits, num_layers)
    rng = SeededRng(structure_seed)
    kinds = rng.integers(0, 3, size=num_qubits * num_layers)
    gates = _basis_rotation_layer(num_qubits)
    slot_layers, slot_qubits = [], []
    slot = 0
    for layer in range(num_layers):
        for q in range(num_qubits):
            gates.append(Gate(ROTATION_KINDS[kinds[slot]], (q,), slot=slot))
            slot_layers.append(layer)
            slot_qubits.append(q)
            slot += 1
        for q in range(num_qubits - 1):
            gates.append(Gate("CZ", (q, q + 1)))
    return CircuitTemplate(
        num_qubits=num_qubits,
        num_layers=num_layers,
        gates=tuple(gates),
        num_params=slot,
        slot_layers=tuple(slot_layers),
        slot_qubits=tuple(slot_qubits),
        family="rpqc",
    )


def build_alpqc(num_qubits: int, num_layers: int) -> CircuitTemplate:
    """Alternating-layer circuit: RY rotations interleaved with even/odd CZ pairings.

    Per layer: RY on qubits 0..Q-2, CZ on pairs (0,1),(2,3),...; then RY on
    qubits 1..Q-1, CZ on pairs (1,2),(3,4),.... All trainable gates are RY;
    2(Q-1) slots per layer.
    """
    check_size("alpqc", num_qubits, num_layers)
    gates = _basis_rotation_layer(num_qubits)
    slot_layers, slot_qubits = [], []
    slot = 0
    for layer in range(num_layers):
        for q in range(num_qubits - 1):
            gates.append(Gate("RY", (q,), slot=slot))
            slot_layers.append(layer)
            slot_qubits.append(q)
            slot += 1
        for q in range(0, num_qubits - 1, 2):
            gates.append(Gate("CZ", (q, q + 1)))
        for q in range(1, num_qubits):
            gates.append(Gate("RY", (q,), slot=slot))
            slot_layers.append(layer)
            slot_qubits.append(q)
            slot += 1
        for q in range(1, num_qubits - 1, 2):
            gates.append(Gate("CZ", (q, q + 1)))
    return CircuitTemplate(
        num_qubits=num_qubits,
        num_layers=num_layers,
        gates=tuple(gates),
        num_params=slot,
        slot_layers=tuple(slot_layers),
        slot_qubits=tuple(slot_qubits),
        family="alpqc",
    )


@dataclass(frozen=True)
class AnsatzSpec:
    """Reproducible circuit description: same spec always builds the same template."""

    family: str
    num_qubits: int
    num_layers: int
    structure_seed: int = 0

    def __post_init__(self):
        # messages start with the config key they concern
        if self.family not in MIN_SIZE:
            raise ValueError(f"family must be rpqc or alpqc, got {self.family!r}")
        check_size(self.family, self.num_qubits, self.num_layers)

    @property
    def num_params(self) -> int:
        """Parameter count of the built template, without building it.

        rpqc has one slot per qubit per layer, alpqc 2(Q-1) per layer.
        """
        per_layer = self.num_qubits if self.family == "rpqc" else 2 * (self.num_qubits - 1)
        return per_layer * self.num_layers

    def build(self) -> CircuitTemplate:
        if self.family == "rpqc":
            return build_rpqc(self.num_qubits, self.num_layers, self.structure_seed)
        return build_alpqc(self.num_qubits, self.num_layers)


def template_to_text(template: CircuitTemplate) -> str:
    """Line-based provenance format: one gate per line (kind, targets, slot-or-angle).

    Runs write it as circuit.txt for the record; nothing reads it back.
    """
    lines = [
        "# circuit-template v1",
        f"family {template.family}",
        f"qubits {template.num_qubits}",
        f"layers {template.num_layers}",
    ]
    for g in template.gates:
        if g.kind == "CZ":
            lines.append(f"gate CZ {g.qubits[0]} {g.qubits[1]}")
        elif g.slot is not None:
            lines.append(f"gate {g.kind} {g.qubits[0]} slot {g.slot}")
        else:
            lines.append(f"gate {g.kind} {g.qubits[0]} angle {g.angle!r}")
    return "\n".join(lines) + "\n"
