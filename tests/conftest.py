"""Shared test helpers: a dense-matrix circuit oracle and random circuit generation.

The oracle builds the full 2**Q x 2**Q unitary from explicit Kronecker products
and dense multiplication; it shares no code with the simulator's permutation and
phase-vector kernel.
"""

import numpy as np
import pytest

from qnes.ansatz import template_from_gates
from qnes.numerics import SeededRng
from qnes.simulator import Gate, ROTATION_KINDS


def rx_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta):
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


ROTATION_MATRICES = {"RX": rx_matrix, "RY": ry_matrix, "RZ": rz_matrix}


def embed_single_qubit(matrix, qubit, num_qubits):
    """Kronecker-embed a 2x2 matrix; qubit 0 is the least significant bit."""
    full = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        full = np.kron(matrix if q == qubit else np.eye(2), full)
    return full


def cz_dense(q_a, q_b, num_qubits):
    dim = 2**num_qubits
    idx = np.arange(dim)
    diag = np.ones(dim, dtype=complex)
    diag[(((idx >> q_a) & 1) & ((idx >> q_b) & 1)).astype(bool)] = -1.0
    return np.diag(diag)


def dense_unitary(template, params):
    """Full circuit unitary via Kronecker products and dense multiplication."""
    dim = 2**template.num_qubits
    unitary = np.eye(dim, dtype=complex)
    for gate in template.gates:
        if gate.kind == "CZ":
            full = cz_dense(gate.qubits[0], gate.qubits[1], template.num_qubits)
        else:
            theta = params[gate.slot] if gate.slot is not None else gate.angle
            full = embed_single_qubit(
                ROTATION_MATRICES[gate.kind](theta), gate.qubits[0], template.num_qubits
            )
        unitary = full @ unitary
    return unitary


def random_template(rng: SeededRng, num_qubits, num_gates, cz_probability=0.3):
    """Random mixed template (rotations with slots or fixed angles, adjacent CZs)."""
    gates, slot = [], 0
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.uniform(1)[0] < cz_probability:
            a = int(rng.integers(0, num_qubits - 1, 1)[0])
            gates.append(Gate("CZ", (a, a + 1)))
        else:
            kind = ROTATION_KINDS[int(rng.integers(0, 3, 1)[0])]
            q = int(rng.integers(0, num_qubits, 1)[0])
            if rng.uniform(1)[0] < 0.5:
                gates.append(Gate(kind, (q,), slot=slot))
                slot += 1
            else:
                gates.append(Gate(kind, (q,), angle=float(rng.uniform(1, 0, 2 * np.pi)[0])))
    if slot == 0:
        gates.append(Gate("RY", (0,), slot=0))
    return template_from_gates(num_qubits, gates)


@pytest.fixture
def rng():
    return SeededRng(20240)
