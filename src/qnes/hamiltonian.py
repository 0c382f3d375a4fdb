"""Pauli-sum Hamiltonian files and the Lanczos oracle of their ground energy.

The energy loss a VQE run minimizes is `gradients.loss_functions(template, h)`.
`exact_ground_energy(h)` is the reference it is scored against: the lowest
eigenvalue, found by Lanczos iteration (Lanczos 1950; Paige 1976) that applies H
through the loss's own compiled form (`simulator._observable`), each term one cached
flip and sign (`simulator._pauli`): the Z-only terms as one real diagonal, then one
gather per flip mask for that mask's terms. It holds a few state-sized vectors and
never the 2**Q x 2**Q matrix, so it has no qubit ceiling of its own.

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

from .simulator import PauliSum, _observable

LANCZOS_MAX_STEPS = 1000
LANCZOS_RTOL = 1e-13  # relative to sum|coeff|, a bound on the spectral radius

_PAULI_TOKEN = re.compile(r"^([XYZ])(\d+)$")


def parse_pauli_file(text: str) -> PauliSum:
    """Parse the Hamiltonian text format; errors carry the 1-based line number.

    The parser holds the format's own rules: the `qubits <N>` line, the number
    syntax and the `<P><q>` tokens. Each term is then checked by `PauliSum`
    (finite coefficient, qubit in range, no qubit twice), whose message gets the
    term's line number in front.
    """
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
        paulis = []
        if tokens[1:] != ["I"]:
            for token in tokens[1:]:
                match = _PAULI_TOKEN.match(token)
                if match is None:
                    raise ValueError(f"line {lineno}: unknown Pauli factor {token!r}")
                paulis.append((int(match.group(2)), match.group(1)))
        try:
            terms += PauliSum(num_qubits, ((coeff, paulis),)).terms
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if num_qubits is None:
        raise ValueError("file has no 'qubits <N>' line")
    return PauliSum(num_qubits=num_qubits, terms=tuple(terms))


def load_pauli_file(path) -> PauliSum:
    return parse_pauli_file(Path(path).read_text(encoding="utf-8"))


def exact_ground_energy(h: PauliSum) -> float:
    """Lowest eigenvalue of the Pauli sum, by the Lanczos three-term recurrence.

    Identity terms are a constant shift. The rest act as sum(coeff * phase * v[perm]),
    with each term's (-i)**ys in its coeff, on a fixed-seed start vector, in real
    arithmetic when no term has an odd number of Y factors: the Z-only terms as one
    diagonal, and each flip mask's terms from one gather of v. It stops when the lowest
    Ritz pair's residual |beta * y_last|, or beta (an invariant subspace), is at most
    LANCZOS_RTOL * sum|coeff|, and raises RuntimeError rather than return a value
    unconverged after LANCZOS_MAX_STEPS steps.
    """
    shift = sum(coeff for coeff, paulis in h.terms if not paulis)
    if all(not paulis for _, paulis in h.terms):
        return float(shift)
    real = not any(sum(p == "Y" for _, p in paulis) % 2 for _, paulis in h.terms)
    tol = LANCZOS_RTOL * sum(abs(coeff) for coeff, paulis in h.terms if paulis)
    dim = 1 << h.num_qubits
    groups = _observable(h, h.num_qubits)
    diag = sum((coeff * phase.real for perm, members in groups if perm is None
                for _, coeff, phase in members if phase is not None), np.zeros(dim))
    flips = [group for group in groups if group[0] is not None]

    gen = np.random.default_rng(0)
    v = gen.standard_normal(dim)
    if not real:
        v = v + 1j * gen.standard_normal(dim)
    v /= np.linalg.norm(v)
    v_prev, w, tmp, flipped = (np.zeros_like(v) for _ in range(4))
    alphas, betas, beta, next_check = [], [], 0.0, 4
    for step in range(1, LANCZOS_MAX_STEPS + 1):
        np.multiply(v, diag, out=w)  # w = H v
        for perm, members in flips:
            np.take(v, perm, out=flipped, mode="clip")
            for _, coeff, phase in members:
                term = flipped if phase is None else np.multiply(
                    flipped, phase.real if real else phase, out=tmp)
                np.multiply(term, coeff, out=tmp)
                np.add(w, tmp, out=w)
        alpha = np.vdot(v, w).real
        np.subtract(w, np.multiply(v, alpha, out=tmp), out=w)
        np.subtract(w, np.multiply(v_prev, beta, out=tmp), out=w)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta <= tol or step == next_check:
            next_check += max(4, step // 8)  # every 4 steps, then every eighth of the size
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz, vectors = np.linalg.eigh(tridiagonal)
            if beta <= tol or abs(beta * vectors[-1, 0]) <= tol:
                return float(shift + ritz[0])
        betas.append(beta)
        np.divide(w, beta, out=w)
        v_prev, v, w = v, w, v_prev
    raise RuntimeError(f"Lanczos ground energy did not converge in {LANCZOS_MAX_STEPS} steps")


def bundled_hamiltonian_path(name: str = "h2") -> Path:
    """Path of a Pauli-sum file shipped with the package, found through the name this
    package was loaded under, so a copy imported under another name reads its own data."""
    path = resources.files(__package__).joinpath(f"data/{name}.txt")
    with resources.as_file(path) as concrete:
        return Path(concrete)
