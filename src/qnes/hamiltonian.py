"""Pauli-sum Hamiltonian files and the dense diagonalization oracle of their ground energy.

The energy loss a VQE run minimizes is `gradients.loss_functions(template, h)`.

File format (UTF-8 text): `#` starts a comment; the first content line is
`qubits <N>`; every other content line is `<coefficient> <P><q> [<P><q> ...]`
with P in {X, Y, Z} and q a decimal qubit index, or `<coefficient> I` for the
identity term. Example:

    # two-site toy model
    qubits 2
    0.5 Z0 Z1
    -1.0 I
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

import numpy as np

from .simulator import PauliSum, _terms

MAX_DENSE_QUBITS = 12

_PAULI_TOKEN = re.compile(r"^([A-Za-z])(\d+)$")


def parse_pauli_file(text: str) -> PauliSum:
    """Parse the Hamiltonian text format; errors carry the 1-based line number."""
    num_qubits = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'qubits <N>' first, got {raw!r}")
            try:
                num_qubits = int(tokens[1])
            except ValueError:
                raise ValueError(f"line {lineno}: invalid qubit count {tokens[1]!r}") from None
            if num_qubits < 1:
                raise ValueError(f"line {lineno}: qubit count must be >= 1")
            continue
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise ValueError(f"line {lineno}: invalid coefficient {tokens[0]!r}") from None
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: term has no Pauli factors")
        if tokens[1:] == ["I"]:
            terms.append((coeff, ()))
            continue
        paulis = []
        seen = set()
        for token in tokens[1:]:
            match = _PAULI_TOKEN.match(token)
            if match is None or match.group(1) not in ("X", "Y", "Z"):
                raise ValueError(f"line {lineno}: unknown Pauli factor {token!r}")
            q = int(match.group(2))
            if q >= num_qubits:
                raise ValueError(
                    f"line {lineno}: qubit index {q} >= declared qubit count {num_qubits}"
                )
            if q in seen:
                raise ValueError(f"line {lineno}: duplicate qubit {q} within a term")
            seen.add(q)
            paulis.append((q, match.group(1)))
        terms.append((coeff, tuple(sorted(paulis))))
    if num_qubits is None:
        raise ValueError("file has no 'qubits <N>' line")
    return PauliSum(num_qubits=num_qubits, terms=tuple(terms))


def load_pauli_file(path) -> PauliSum:
    return parse_pauli_file(Path(path).read_text(encoding="utf-8"))


def dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of the Pauli sum (qubit 0 = least significant bit).

    Row i of a Pauli string P holds phase[i] at column perm[i], since P|psi> = phase * psi[perm].
    """
    if h.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix limited to {MAX_DENSE_QUBITS} qubits, got {h.num_qubits}")
    rows = np.arange(1 << h.num_qubits)
    total = np.zeros((rows.size, rows.size), dtype=complex)
    for coeff, perm, phase in _terms(h, h.num_qubits):
        total[rows, rows if perm is None else perm] += coeff if phase is None else coeff * phase
    return total


def exact_ground_energy(h: PauliSum) -> float:
    """Minimum eigenvalue of the dense Hermitian matrix (feasible up to 12 qubits).

    Real symmetric, and diagonalized as such, when every term has an even number of Y factors.
    """
    m = dense_matrix(h)
    return float(np.linalg.eigvalsh(m.real if not m.imag.any() else m)[0])


def bundled_hamiltonian_path(name: str = "h2") -> Path:
    """Path of a Pauli-sum file shipped with the package."""
    path = resources.files("qnes").joinpath(f"data/{name}.txt")
    with resources.as_file(path) as concrete:
        return Path(concrete)
