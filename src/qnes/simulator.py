"""Exact statevector simulation of {RX, RY, RZ, CZ} circuits and Pauli-sum observables.

Conventions, used consistently everywhere (including by the Hamiltonian parser):
- qubit 0 is the least significant bit of the amplitude index;
- rotations are half-angle: R_P(theta) = exp(-i * theta * P / 2) for P in {X, Y, Z};
- CZ is diag(1, 1, 1, -1).

Every Pauli action, whether inside a rotation gate or as an observable term, is one
index permutation and one phase vector: P|psi> = phase * psi[perm]. States are
either a single vector of shape (2**Q,) or a batch of shape (B, 2**Q); batched
runs evaluate many parameter vectors of the same circuit at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ROTATION_KINDS + ("CZ",)

NORM_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class Gate:
    """One circuit element: a Pauli rotation (slot-parameterized or fixed-angle) or a CZ."""

    kind: str
    qubits: tuple[int, ...]
    slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CZ":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CZ needs two distinct target qubits")
            if self.slot is not None or self.angle is not None:
                raise ValueError("CZ takes no angle or parameter slot")
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} targets exactly one qubit")
            if (self.slot is None) == (self.angle is None):
                raise ValueError("rotation needs exactly one of slot or angle")
            if self.angle is not None and not np.isfinite(self.angle):
                raise ValueError("fixed gate angle must be finite")


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings on `num_qubits` qubits.

    Each term is (coefficient, ((qubit, letter), ...)) with letters in {X, Y, Z},
    qubits sorted and unique within a term; identity factors are omitted, so the
    identity term has an empty tuple.
    """

    num_qubits: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for coeff, paulis in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            seen = set()
            for q, p in paulis:
                if p not in ("X", "Y", "Z"):
                    raise ValueError(f"unknown Pauli letter {p!r}")
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit index {q} out of range for {self.num_qubits} qubits")
                if q in seen:
                    raise ValueError(f"duplicate qubit {q} within a term")
                seen.add(q)

    @classmethod
    def build(cls, num_qubits: int, terms) -> "PauliSum":
        """Build from (coefficient, {qubit: letter}) pairs; normalizes term ordering."""
        norm = tuple(
            (float(c), tuple(sorted((int(q), str(p).upper()) for q, p in dict(m).items())))
            for c, m in terms
        )
        return cls(num_qubits, norm)


def num_qubits_of(state: np.ndarray) -> int:
    n = state.shape[-1]
    q = n.bit_length() - 1
    if 1 << q != n:
        raise ValueError(f"amplitude count {n} is not a power of two")
    return q


def zero_state(num_qubits: int, batch: int | None = None) -> np.ndarray:
    shape = (1 << num_qubits,) if batch is None else (batch, 1 << num_qubits)
    state = np.zeros(shape, dtype=complex)
    state[..., 0] = 1.0
    return state


def norm_squared(state: np.ndarray) -> np.ndarray | float:
    return np.sum(state.real**2 + state.imag**2, axis=-1)


def _rows(state: np.ndarray) -> np.ndarray:
    return state.reshape(1, -1) if state.ndim == 1 else state


def _check_target(q: int, num_qubits: int) -> None:
    if not 0 <= q < num_qubits:
        raise IndexError(f"qubit {q} out of range for {num_qubits} qubits")


# R_P(theta) = cos(theta/2) I - i sin(theta/2) P is applied as full-array
# operations: the Pauli action is a gather through a cached index permutation
# and/or a multiply by a cached phase vector, so per-row coefficients broadcast
# over long inner loops instead of short strided slices.


@lru_cache(maxsize=512)
def _x_permutation(num_qubits: int, qubit: int) -> np.ndarray:
    return np.arange(1 << num_qubits) ^ (1 << qubit)


@lru_cache(maxsize=512)
def _y_factor(num_qubits: int, qubit: int) -> np.ndarray:
    bit = (np.arange(1 << num_qubits) >> qubit) & 1
    return 1j * (2.0 * bit - 1.0)


@lru_cache(maxsize=512)
def _z_sign(num_qubits: int, qubit: int) -> np.ndarray:
    bit = (np.arange(1 << num_qubits) >> qubit) & 1
    return 1.0 - 2.0 * bit


@lru_cache(maxsize=512)
def _cz_sign(num_qubits: int, q_a: int, q_b: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    both = ((idx >> q_a) & 1) & ((idx >> q_b) & 1)
    return 1.0 - 2.0 * both


def _pauli_action(num_qubits: int, paulis) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(perm, phase) with P|psi> = phase * psi[perm]; None stands for an identity part.

    Phases multiply; the first flip's cached permutation is XORed with any further flips.
    """
    perm, phase, mask = None, None, 0
    for q, p in paulis:
        if p != "Z":
            if perm is None:
                perm = _x_permutation(num_qubits, q)
            else:
                mask |= 1 << q
        if p != "X":
            factor = _z_sign(num_qubits, q) if p == "Z" else _y_factor(num_qubits, q)
            phase = factor if phase is None else phase * factor
    return (perm ^ mask if mask else perm), phase


def _gate_op(num_qubits: int, gate: Gate, rot_index: int) -> tuple:
    if gate.kind == "CZ":
        return ("cz", _cz_sign(num_qubits, gate.qubits[0], gate.qubits[1]))
    return ("rot", *_pauli_action(num_qubits, ((gate.qubits[0], gate.kind[1]),)), rot_index)


def _evolve(state: np.ndarray, ops, cos_half: np.ndarray, minus_i_sin: np.ndarray) -> None:
    """Apply compiled ops in place to (B, 2**Q) rows; rotation i takes column i of the angles."""
    tmp = np.empty_like(state)
    buf = np.empty_like(state)
    for op in ops:
        if op[0] == "cz":
            np.multiply(state, op[1], out=state)
            continue
        _, perm, phase, i = op
        if perm is None:
            np.multiply(state, phase, out=tmp)
        else:
            np.take(state, perm, axis=1, out=tmp, mode="clip")
            if phase is not None:
                tmp *= phase
        np.multiply(state, cos_half[:, i, None], out=buf)
        np.multiply(tmp, minus_i_sin[:, i, None], out=tmp)
        np.add(buf, tmp, out=state)


def apply_gate(state: np.ndarray, gate: Gate, angle=0.0) -> np.ndarray:
    """Apply one gate in place, returning the state; angle is a scalar or one per row."""
    nq = num_qubits_of(state)
    for q in gate.qubits:
        _check_target(q, nq)
    theta = np.asarray(gate.angle if gate.angle is not None else angle, dtype=float)
    if gate.kind != "CZ" and not np.all(np.isfinite(theta)):
        raise ValueError("rotation angle must be finite")
    half = 0.5 * theta.reshape(-1, 1)
    _evolve(_rows(state), [_gate_op(nq, gate, 0)], np.cos(half), -1j * np.sin(half))
    return state


@lru_cache(maxsize=64)
def _compiled(template) -> tuple:
    """Template resolved to kernel ops (rotation order + slot/fixed angle split)."""
    ops = []  # ("rot", perm, phase, rot_index) | ("cz", sign)
    rot_slots = []   # (rot_index, slot) pairs
    rot_fixed = []   # (rot_index, angle) pairs
    n_rot = 0
    for g in template.gates:
        ops.append(_gate_op(template.num_qubits, g, n_rot))
        if g.kind != "CZ":
            if g.slot is not None:
                rot_slots.append((n_rot, g.slot))
            else:
                rot_fixed.append((n_rot, g.angle))
            n_rot += 1
    slot_pos = np.array([i for i, _ in rot_slots], dtype=np.intp)
    slot_idx = np.array([s for _, s in rot_slots], dtype=np.intp)
    fixed_pos = np.array([i for i, _ in rot_fixed], dtype=np.intp)
    fixed_val = np.array([a for _, a in rot_fixed], dtype=float)
    return tuple(ops), n_rot, slot_pos, slot_idx, fixed_pos, fixed_val


def run_circuit_batch(template, param_rows: np.ndarray) -> np.ndarray:
    """Evaluate the circuit on every parameter row; returns states of shape (B, 2**Q)."""
    param_rows = np.asarray(param_rows, dtype=float)
    if param_rows.ndim != 2 or param_rows.shape[1] != template.num_params:
        raise ValueError(
            f"expected parameter rows of width {template.num_params}, got shape {param_rows.shape}"
        )
    ops, n_rot, slot_pos, slot_idx, fixed_pos, fixed_val = _compiled(template)
    b = param_rows.shape[0]
    angles = np.empty((b, n_rot), dtype=float)
    if slot_pos.size:
        angles[:, slot_pos] = param_rows[:, slot_idx]
    if fixed_pos.size:
        angles[:, fixed_pos] = fixed_val
    half = 0.5 * angles
    state = zero_state(template.num_qubits, batch=b)
    _evolve(state, ops, np.cos(half), -1j * np.sin(half))
    drift = np.max(np.abs(norm_squared(state) - 1.0))
    if drift > NORM_TOL:
        raise RuntimeError(f"statevector norm drifted by {drift:.3e}")
    return state


def run_circuit(template, params: np.ndarray) -> np.ndarray:
    """|psi> = U(params)|0...0>, gates applied in template order."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.shape[0] != template.num_params:
        raise ValueError(
            f"expected {template.num_params} parameters, got shape {params.shape}"
        )
    return run_circuit_batch(template, params[None, :])[0]


def vacuum_projector_expectation(state: np.ndarray) -> np.ndarray | float:
    """|<0...0|psi>|**2: squared magnitude of the first amplitude."""
    a0 = state[..., 0]
    value = a0.real**2 + a0.imag**2
    return value if np.ndim(value) else float(value)


def stateprep_fitness(template, params: np.ndarray) -> float:
    """(1 - vacuum-projector expectation)**2 for the circuit output state."""
    return float((1.0 - vacuum_projector_expectation(run_circuit(template, params))) ** 2)


def stateprep_fitness_batch(template, param_rows: np.ndarray) -> np.ndarray:
    return (1.0 - vacuum_projector_expectation(run_circuit_batch(template, param_rows))) ** 2


def apply_pauli_string(state: np.ndarray, paulis: tuple[tuple[int, str], ...]) -> np.ndarray:
    """P|psi> for a single Pauli string; returns a new array."""
    nq = num_qubits_of(state)
    for q, _ in paulis:
        _check_target(q, nq)
    perm, phase = _pauli_action(nq, paulis)
    out = state.copy() if perm is None else np.take(state, perm, axis=-1)
    if phase is not None:
        out *= phase
    return out


def pauli_expectation_batch(state: np.ndarray, h: PauliSum) -> np.ndarray:
    rows = _rows(state)
    if num_qubits_of(rows) < h.num_qubits:
        raise ValueError("observable acts on more qubits than the state has")
    total = np.zeros(rows.shape[0], dtype=complex)
    conj = np.conj(rows)
    for coeff, paulis in h.terms:
        phi = rows if not paulis else apply_pauli_string(rows, paulis)
        total += coeff * np.sum(conj * phi, axis=-1)
    residue = np.max(np.abs(total.imag)) if total.size else 0.0
    if residue > IMAG_RESIDUE_TOL:
        raise RuntimeError(f"expectation has imaginary residue {residue:.3e}")
    return total.real


def pauli_expectation(state: np.ndarray, h: PauliSum) -> float:
    """<psi|H|psi> for a Hermitian Pauli sum; raises if the value is not real."""
    return float(pauli_expectation_batch(state, h)[0])
