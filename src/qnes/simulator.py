"""Exact statevector simulation of {RX, RY, RZ, CZ} circuits and Pauli-sum observables.

Conventions, used consistently everywhere (including by the Hamiltonian parser):
- qubit 0 is the least significant bit of the amplitude index;
- rotations are half-angle: R_P(theta) = exp(-i * theta * P / 2) for P in {X, Y, Z};
- CZ is diag(1, 1, 1, -1).

Every Pauli string, in a rotation gate or an observable term, is one index permutation,
one sign vector and one scalar (`_pauli`): P|psi> = (-i)**ys * sign * psi[flip], where
flip is i -> i ^ m for the mask m of its X and Y qubits, sign is (-1)**popcount(i & m')
for the mask m' of its Y and Z qubits, and ys counts its Y factors. Both arrays are
cached per mask, so gates and terms that act alike share one. States are either a single
vector of shape (2**Q,) or a batch of shape (B, 2**Q); batched runs evaluate many
parameter vectors of the same circuit at once.

Each is compiled once: a template into kernel ops (`compile_circuit`, kept as
`template.plan`, the leading fixed gates already run into its start state); a Pauli
sum, per state width, into its terms grouped by flip mask (`_observable`), the one
form that both the observable and the Lanczos ground-energy oracle read: one gather
per mask serves all of its terms, as a device measures qubit-wise commuting terms
together. Every call allocates its own temporaries and holds none after it returns, so
threads share no buffer. The kernel runs in place on a fresh (2, B, 2**Q) pair block, the
state and its temporary; it returns the first half, so a held state keeps its temporary
alive. The observable allocates one (3, B, 2**Q) block for its three. A rotation's factors
are one scalar over the whole batch for an angle column that every row shares, and one
multiply of the pair by a (2, B, 1) [cos; coefficient] block for a column whose rows
differ. The sign vectors the hot loops multiply by (a string's signs and the CZ-run
signs) are cached complex, so numpy casts none of them per call; a string's (-i)**ys
goes into the scalar it is multiplied by, which is exact since every factor is +-1 or +-i.

For two or more rows, an RY or RZ on a shared column multiplies once by one fused
vector, its sign vector times the scalar coefficient, which is exact because the signs are
+-1 (the fused rule); with one row, building that vector costs the pass it saves (the
rows rule). The pair blocks, the temporaries and the cached sign vectors start on a
64-byte cache line (`_aligned`): a pass over operands at different 16-byte offsets of
a 32-byte span ran 10-15% slower (10 qubits, 16 rows), and numpy aligns only to 16.

One buffer rule: numpy copies an operand that broadcasts per row through its ufunc
buffer (8192 elements by default) when two or more rows are shorter than that buffer.
`_row_buffer` lowers the buffer to one row for the kernel's sweep and the observable's
term loop when a call has two or more rows of 128 to 8191 amplitudes: there the per-row
multiplies ran 1.2-2.9x slower through the copy, batches that fit the buffer included,
while rows of 32-64 amplitudes gained nothing or lost. Each product and sum is still
rounded per element and each row reduced whole, so no bit changes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

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
    qubits unique within a term; identity factors are omitted, so the identity
    term has an empty tuple. Each term's factors are stored sorted by qubit, so
    sums that differ only in factor order are equal.
    """

    num_qubits: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((coeff, tuple(sorted(paulis)))
                                                for coeff, paulis in self.terms))
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
                    raise ValueError(f"qubit index {q} out of range: it must be >= 0 "
                                     f"and < {self.num_qubits}")
                if q in seen:
                    raise ValueError(f"duplicate qubit {q} within a term")
                seen.add(q)

    @classmethod
    def build(cls, num_qubits: int, terms) -> "PauliSum":
        """Build from (coefficient, {qubit: letter}) pairs."""
        norm = tuple((float(c), tuple((int(q), str(p).upper()) for q, p in dict(m).items()))
                     for c, m in terms)
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
    """Sum of squared amplitudes along the last axis, with no state-sized temporary."""
    parts = np.ascontiguousarray(state, dtype=complex).view(float)
    return np.einsum("...i,...i->...", parts, parts)


def _aligned(shape, values=None) -> np.ndarray:
    """A complex array of `shape`, set to `values` if given, whose data starts on a 64-byte
    cache line: numpy aligns only to 16 bytes, so over-allocate 3 amplitudes and start at
    the boundary."""
    size = math.prod(shape)
    buffer = np.empty(size + 3, dtype=complex)
    lead = -buffer.ctypes.data // 16 % 4
    array = buffer[lead:lead + size].reshape(shape)
    if values is not None:
        array[...] = values
    return array


@lru_cache(maxsize=512)
def _flip(num_qubits: int, mask: int) -> np.ndarray:
    """The index permutation i -> i ^ mask."""
    return np.arange(1 << num_qubits) ^ mask


@lru_cache(maxsize=512)
def _sign(num_qubits: int, mask: int) -> np.ndarray:
    """(-1)**popcount(i & mask) for every index i, as complex."""
    idx = np.arange(1 << num_qubits) & mask
    parity = sum((idx >> q) & 1 for q in range(mask.bit_length()))
    return _aligned(idx.shape, 1.0 - 2.0 * (parity & 1))


def _pauli(num_qubits: int, paulis) -> tuple:
    """(perm, phase, ys) of a Pauli string, P|psi> = (-i)**ys * phase * psi[perm]: perm
    flips the bits of its X and Y qubits (None if there are none), phase is the sign of
    its Y and Z qubits (None if there are none) and ys counts its Y factors, since Y is
    -i Z X on its qubit."""
    flips = sum(1 << q for q, p in paulis if p != "Z")
    signs = sum(1 << q for q, p in paulis if p != "X")
    return (_flip(num_qubits, flips) if flips else None,
            _sign(num_qubits, signs) if signs else None, sum(p == "Y" for _, p in paulis))


@lru_cache(maxsize=512)
def _cz_sign(num_qubits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Diagonal of a run of CZ gates, as complex: -1 where an odd number of pairs have
    both bits set."""
    idx = np.arange(1 << num_qubits)
    both = sum(((idx >> q_a) & (idx >> q_b) & 1) for q_a, q_b in pairs)
    return _aligned(idx.shape, 1.0 - 2.0 * (both & 1))


_UNCHANGED = nullcontext()


def _row_buffer(shape: tuple[int, int]):
    """A context that lowers numpy's ufunc buffer to one row for a (rows, width) call of two
    or more rows of 128 amplitudes up to the buffer's length less one (measured: rows of 32
    to 64 gain nothing), and restores it on the way out, exceptions included. Any other call
    gets one shared no-op context, decided before entering, so it pays for nothing."""
    rows, width = shape
    return _lowered_buffer(width) if rows > 1 and 128 <= width < np.getbufsize() else _UNCHANGED


@contextmanager
def _lowered_buffer(size: int):
    previous = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _sweep(pair, ops, angles) -> None:
    """Apply `ops` in place to the (B, 2**Q) state pair[0] at the (B, C) `angles`, under
    `_row_buffer`; pair[1] is its temporary. A column every row shares (fixed angles always
    do) multiplies by row 0's scalars: cos the state's float view, the coefficient (-i sin,
    or -sin from the table's second half) the temporary. A column whose rows differ ends
    with one `pair *=` its (2, B, 1) [cos; coefficient] block; the blocks are built for such
    ops only, in op order. Each factor is pure real or pure imaginary, so every form rounds
    the same products up to the sign of a zero.

    Fused rule: with two or more rows (the rows rule), a shared RY or RZ multiplies once by
    a fused row, phase * coeff, exact since the phase is +-1; with one row, building it
    costs the pass it saves, so only a multi-row call allocates that row."""
    (state, tmp), rows = pair, len(angles)
    shared = (angles == angles[:1]).all(axis=0).tolist()
    sin = np.sin(0.5 * angles[0])
    cos, coeff = np.cos(0.5 * angles[0]), np.concatenate([-1j * sin, -sin])
    factors = ()
    if rows > 1:
        fused = _aligned(state.shape[1:])
        columns = np.array([c for _, _, c in ops if c is not None and not shared[c]], dtype=int)
        half = 0.5 * angles[:, columns].T[:, :, None]
        factors = np.empty((columns.size, 2, rows, 1), dtype=complex)
        factors[:, 0], sin = np.cos(half), np.sin(half)
        factors[:, 1] = np.where(columns[:, None, None] < 0, -sin, -1j * sin)
    factors, parts = iter(factors), state.view(float)
    with _row_buffer(state.shape):
        for perm, phase, column in ops:
            if column is None:
                state *= phase
                continue
            scale = coeff[column] if shared[column] else None
            if rows > 1 and scale is not None and phase is not None:
                phase, scale = np.multiply(phase, scale, out=fused), None
            if perm is None:
                np.multiply(state, phase, out=tmp)
            else:
                state.take(perm, axis=1, out=tmp, mode="clip")
                if phase is not None:
                    tmp *= phase
            if not shared[column]:
                pair *= next(factors)
            else:
                parts *= cos[column]
                if scale is not None:
                    tmp *= scale
            state += tmp


def compile_circuit(template) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(ops, fixed, start): the template as kernel ops from its first slotted gate on,
    its fixed angles, and the state the ops before that gate make from |0...0>.

    Each op is (perm, phase, column). A rotation is its one-factor Pauli string's perm
    and phase (`_pauli`), reading `column` of the C-column matrix [parameter rows | fixed
    angles]: its slot, or P plus its place among the fixed angles, less C per Y factor,
    which picks the same cos and the -sin coefficient half for RY's -i. A run of
    adjacent CZ gates is one op, column None, phase its sign vector.
    """
    n = template.num_qubits
    width = template.num_params + sum(g.angle is not None for g in template.gates)
    ops, fixed, lead = [], [], len(template.gates)
    for is_cz, gates in groupby(template.gates, key=lambda g: g.kind == "CZ"):
        if is_cz:
            ops.append((None, _cz_sign(n, tuple(g.qubits for g in gates)), None))
            continue
        for gate in gates:
            if gate.slot is not None:
                column, lead = gate.slot, min(lead, len(ops))
            else:
                column = template.num_params + len(fixed)
                fixed.append(gate.angle)
            perm, phase, ys = _pauli(n, ((gate.qubits[0], gate.kind[1]),))
            ops.append((perm, phase, column - width * ys))
    pair = np.array([zero_state(n, batch=1)] * 2)
    angles = np.array([[0.0] * template.num_params + fixed])
    _sweep(pair, ops[:lead], angles)
    return tuple(ops[lead:]), angles[0, template.num_params:], pair[0, 0]


def run_circuit_batch(template, param_rows: np.ndarray) -> np.ndarray:
    """Evaluate the circuit on every parameter row; returns states of shape (B, 2**Q), the
    first half of a fresh (2, B, 2**Q) block whose second half was the sweep's temporary, so
    a held state keeps that temporary alive."""
    param_rows = np.asarray(param_rows, dtype=float)
    if param_rows.ndim != 2 or param_rows.shape[1] != template.num_params or not len(param_rows):
        raise ValueError(f"expected one or more rows of {template.num_params} parameters, "
                         f"got shape {param_rows.shape}")
    if not np.isfinite(param_rows).all():
        raise ValueError("parameter rows must be finite")
    ops, fixed, start = template.plan
    b, p = param_rows.shape
    pair = _aligned((2, b, start.size))
    pair[0] = start
    angles = np.empty((b, p + fixed.size))
    angles[:, :p], angles[:, p:] = param_rows, fixed
    _sweep(pair, ops, angles)
    drift = np.abs(norm_squared(pair[0]) - 1.0).max()
    if not drift <= NORM_TOL:
        raise RuntimeError(f"statevector norm drifted by {drift:.3e}")
    return pair[0]


def run_circuit(template, params: np.ndarray) -> np.ndarray:
    """|psi> = U(params)|0...0>, gates applied in template order."""
    return run_circuit_batch(template, np.asarray(params, dtype=float)[None, ...])[0]


def vacuum_projector_expectation(state: np.ndarray) -> np.ndarray | float:
    """|<0...0|psi>|**2: squared magnitude of the first amplitude."""
    a0 = state[..., 0]
    value = a0.real**2 + a0.imag**2
    return value if np.ndim(value) else float(value)


@lru_cache(maxsize=64)
def _observable(h: PauliSum, num_qubits: int) -> tuple:
    """h compiled for states of num_qubits qubits: per flip mask, in order of first use,
    (perm, ((index, coeff, phase), ...)): term `index` times its coefficient acts as
    coeff * phase * psi[perm], on `_pauli`'s arrays with its (-i)**ys in coeff. perm is
    None for the Z-only and identity terms, and phase is None for a pure flip."""
    groups = {}
    for index, (coeff, paulis) in enumerate(h.terms):
        perm, phase, ys = _pauli(num_qubits, paulis)
        mask = sum(1 << q for q, p in paulis if p != "Z")
        groups.setdefault(mask, (perm, []))[1].append(
            (index, coeff * (1, -1j, -1, 1j)[ys % 4], phase))
    return tuple((perm, tuple(members)) for perm, members in groups.values())


def pauli_expectation_batch(state: np.ndarray, h: PauliSum) -> np.ndarray:
    """<psi|H|psi> per row. conj(psi) * psi[perm] is formed once per flip mask, and each
    of its terms reduces that product times its sign, exact since the sign is +-1, and
    scales the sum by its coefficient. The terms are then added in the sum's order."""
    rows = np.atleast_2d(np.asarray(state, dtype=complex))
    num_qubits = num_qubits_of(rows)
    if num_qubits < h.num_qubits:
        raise ValueError("observable acts on more qubits than the state has")
    values = [None] * len(h.terms)
    conj, phi, prod = _aligned((3, *rows.shape))
    np.conjugate(rows, out=conj)
    with _row_buffer(rows.shape):
        for perm, members in _observable(h, num_qubits):
            flipped = rows if perm is None else rows.take(perm, axis=-1, out=phi, mode="clip")
            np.multiply(conj, flipped, out=prod)
            for index, coeff, phase in members:
                term = prod if phase is None else np.multiply(prod, phase, out=phi)
                values[index] = coeff * np.add.reduce(term, axis=-1)
    total = sum(values, np.zeros(rows.shape[0], dtype=complex))
    residue = np.max(np.abs(total.imag)) if total.size else 0.0
    if residue > IMAG_RESIDUE_TOL:
        raise RuntimeError(f"expectation has imaginary residue {residue:.3e}")
    return total.real


def pauli_expectation(state: np.ndarray, h: PauliSum) -> float:
    """<psi|H|psi> for a Hermitian Pauli sum; raises if the value is not real."""
    return float(pauli_expectation_batch(state, h)[0])
