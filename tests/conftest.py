"""Shared test helpers: a dense-matrix circuit oracle, per-gate and per-term bit
referees and random circuit generation.

The oracle builds the full 2**Q x 2**Q unitary from explicit Kronecker products
and dense multiplication; it shares no code with the simulator's permutation and
phase-vector kernel. The referees apply the kernel's and the observable's own
formulas one gate or one term at a time, with no compiled plan or term table, so
the simulator must match them bit for bit.
"""

import numpy as np
import pytest

from qnes.ansatz import CircuitTemplate
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


PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli_string(paulis, num_qubits):
    """Dense matrix of one Pauli string: the Kronecker product of its single-qubit factors."""
    letters = dict(paulis)
    dense = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        dense = np.kron(PAULI_MATRICES[letters[q]] if q in letters else np.eye(2), dense)
    return dense


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


def per_gate_states(template, rows):
    """Every row's state, one gate at a time: a rotation gathers through the bit flip
    (RX, RY), multiplies by the Pauli phase (RY: i(2b - 1), RZ: 1 - 2b), then takes
    cos(theta/2) * psi + (-i sin(theta/2)) * tmp; each CZ multiplies by its own sign."""
    idx = np.arange(2**template.num_qubits)
    state = np.zeros((rows.shape[0], idx.size), dtype=complex)
    state[:, 0] = 1.0
    for gate in template.gates:
        bit = [(idx >> q) & 1 for q in gate.qubits]
        if gate.kind == "CZ":
            state = state * (1.0 - 2.0 * (bit[0] & bit[1]))
            continue
        theta = rows[:, gate.slot] if gate.slot is not None else np.full(len(rows), gate.angle)
        half = 0.5 * theta[:, None]
        tmp = state if gate.kind == "RZ" else state[:, idx ^ (1 << gate.qubits[0])]
        if gate.kind == "RY":
            tmp = tmp * (1j * (2.0 * bit[0] - 1.0))
        elif gate.kind == "RZ":
            tmp = tmp * (1.0 - 2.0 * bit[0])
        state = state * np.cos(half) + tmp * (-1j * np.sin(half))
    return state


def per_term_expectations(states, h):
    """<psi|H|psi> for every row, one term at a time: a term gathers through its bit
    flips, multiplies by its phase (the product over its factors in qubit order of the
    real sign 1 - 2b for Z and i(2b - 1) for Y), takes conj(psi) times that, sums the
    row, and is added times its coefficient in the sum's order."""
    rows = np.atleast_2d(states)
    idx = np.arange(rows.shape[-1])
    total = np.zeros(rows.shape[0], dtype=complex)
    for coeff, paulis in h.terms:
        flips, phase = 0, None
        for q, p in paulis:
            bit = (idx >> q) & 1
            flips |= (p != "Z") << q
            if p != "X":
                factor = 1.0 - 2.0 * bit if p == "Z" else 1j * (2.0 * bit - 1.0)
                phase = factor if phase is None else phase * factor
        term = rows[:, idx ^ flips]
        if phase is not None:
            term = term * phase
        total += coeff * np.add.reduce(np.conj(rows) * term, axis=-1)
    return total.real


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
    return CircuitTemplate(num_qubits, gates)


@pytest.fixture
def rng():
    return SeededRng(20240)
