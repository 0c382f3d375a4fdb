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
from itertools import count

import numpy as np

from .numerics import SeededRng
from .simulator import Gate, ROTATION_KINDS, compile_circuit

BASIS_ROTATION_ANGLE = np.pi / 4

# smallest (qubits, layers) each built family accepts
MIN_SIZE = {"rpqc": (2, 1), "alpqc": (3, 1)}

# most gates a loaded config may build; a gate takes a few microseconds to build, and
# every preset has at most 960
MAX_GATES = 100_000


@dataclass(frozen=True)
class CircuitTemplate:
    """Ordered gate list whose parameter slots are exactly 0..P-1.

    `gates` may be any iterable; it is stored as a tuple. Everything else
    follows from the gates: P is the number of slotted gates, slot_qubits[s] is
    the qubit of the gate with slot s, and slot_layers[s] is
    s * num_layers // P, so each layer owns a run of consecutive slots (all in
    layer 0 without layers). The batching strategies group slots through these.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    num_layers: int = 0
    family: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate target {q} out of range")
        slots = sorted(g.slot for g in self.gates if g.slot is not None)
        if slots != list(range(len(slots))):
            raise ValueError("parameter slots must cover 0..num_params-1 exactly once")

    @cached_property
    def slot_qubits(self) -> tuple[int, ...]:
        qubit = {g.slot: g.qubits[0] for g in self.gates if g.slot is not None}
        return tuple(qubit[s] for s in range(len(qubit)))

    @cached_property
    def num_params(self) -> int:
        return len(self.slot_qubits)

    @cached_property
    def slot_layers(self) -> tuple[int, ...]:
        return tuple(s * self.num_layers // self.num_params for s in range(self.num_params))

    @cached_property
    def plan(self) -> tuple:
        """The simulator's compiled ops and fixed angles, built on first use."""
        return compile_circuit(self)


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
    kinds = SeededRng(structure_seed).integers(0, 3, size=num_qubits * num_layers)
    gates = _basis_rotation_layer(num_qubits)
    for layer in range(num_layers):
        for q in range(num_qubits):
            slot = layer * num_qubits + q
            gates.append(Gate(ROTATION_KINDS[kinds[slot]], (q,), slot=slot))
        for q in range(num_qubits - 1):
            gates.append(Gate("CZ", (q, q + 1)))
    return CircuitTemplate(num_qubits, gates, num_layers, "rpqc")


def build_alpqc(num_qubits: int, num_layers: int) -> CircuitTemplate:
    """Alternating-layer circuit: RY rotations interleaved with even/odd CZ pairings.

    Per layer: RY on qubits 0..Q-2, CZ on pairs (0,1),(2,3),...; then RY on
    qubits 1..Q-1, CZ on pairs (1,2),(3,4),.... All trainable gates are RY;
    2(Q-1) slots per layer.
    """
    check_size("alpqc", num_qubits, num_layers)
    gates = _basis_rotation_layer(num_qubits)
    slots = count()
    for _ in range(num_layers):
        for first in (0, 1):
            for q in range(first, num_qubits - 1 + first):
                gates.append(Gate("RY", (q,), slot=next(slots)))
            for q in range(first, num_qubits - 1, 2):
                gates.append(Gate("CZ", (q, q + 1)))
    return CircuitTemplate(num_qubits, gates, num_layers, "alpqc")


@dataclass(frozen=True)
class AnsatzSpec:
    """Reproducible circuit description: same spec always builds the same template.

    The parameter count is the built template's `num_params`; a spec does not
    know it without a build.
    """

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
    def num_gates(self) -> int:
        """len(self.build().gates), without building: the basis layer, then per layer
        rpqc's Q rotations and Q - 1 CZs, or alpqc's 2(Q - 1) RYs and Q - 1 CZs."""
        per_layer = 2 * self.num_qubits - 1 if self.family == "rpqc" else 3 * (self.num_qubits - 1)
        return self.num_qubits + self.num_layers * per_layer

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
