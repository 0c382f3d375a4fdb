import importlib
import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_pauli_string, random_template

import qnes
from qnes.ansatz import CircuitTemplate
from qnes.gradients import loss_functions
from qnes import hamiltonian
from qnes.hamiltonian import (
    bundled_hamiltonian_path,
    exact_ground_energy,
    load_pauli_file,
    parse_pauli_file,
)
from qnes.simulator import Gate, PauliSum, _observable


class TestParsePauliFile:
    def test_basic_term(self):
        h = parse_pauli_file("qubits 2\n0.5 Z0 Z1\n")
        assert h.num_qubits == 2
        assert h.terms == ((0.5, ((0, "Z"), (1, "Z"))),)

    def test_identity_term(self):
        h = parse_pauli_file("qubits 1\n-1.0 I\n")
        assert h.terms == ((-1.0, ()),)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nqubits 2  # inline\n\n# term comment\n0.25 X0\n"
        h = parse_pauli_file(text)
        assert h.terms == ((0.25, ((0, "X"),)),)

    def test_scientific_coefficients(self):
        h = parse_pauli_file("qubits 1\n-1.5e-3 Z0\n+2E2 X0\n")
        assert h.terms[0][0] == -1.5e-3
        assert h.terms[1][0] == 200.0

    def test_unknown_letter_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_pauli_file("qubits 2\n0.3 Q0\n")

    def test_malformed_coefficient(self):
        with pytest.raises(ValueError, match="line 2: invalid coefficient"):
            parse_pauli_file("qubits 2\nabc Z0\n")

    def test_duplicate_qubit(self):
        with pytest.raises(ValueError, match="duplicate qubit 0"):
            parse_pauli_file("qubits 2\n1.0 Z0 X0\n")

    def test_index_beyond_declared(self):
        with pytest.raises(ValueError, match="line 2.*>="):
            parse_pauli_file("qubits 2\n1.0 Z2\n")

    def test_missing_qubits_header(self):
        with pytest.raises(ValueError, match="qubits"):
            parse_pauli_file("1.0 Z0\n")

    @pytest.mark.parametrize("coeff", ["inf", "-inf", "nan"])
    def test_non_finite_coefficient_reports_line(self, coeff):
        with pytest.raises(ValueError, match="line 2: coefficients must be finite"):
            parse_pauli_file(f"qubits 2\n{coeff} Z0 Z1\n")

    def test_bare_coefficient_rejected(self):
        with pytest.raises(ValueError, match="no Pauli factors"):
            parse_pauli_file("qubits 1\n1.0\n")


def random_pauli_sum(gen, num_qubits, max_terms=6):
    """1 to max_terms random terms on random supports (the identity included), X, Y and Z."""
    terms = []
    for _ in range(gen.integers(1, max_terms + 1)):
        support = gen.permutation(num_qubits)[: gen.integers(0, num_qubits + 1)]
        factors = tuple(sorted((int(q), "XYZ"[gen.integers(3)]) for q in support))
        terms.append((float(gen.normal()), factors))
    return PauliSum(num_qubits=num_qubits, terms=tuple(terms))


def random_sums(seed, odd_y, per_size=3):
    """per_size random sums for each of 1 to 10 qubits, with or without an odd-Y term."""
    gen = np.random.default_rng(seed)
    sums = []
    for num_qubits in range(1, 11):
        found = 0
        while found < per_size:
            h = random_pauli_sum(gen, num_qubits, max_terms=6 if num_qubits <= 6 else 12)
            if has_odd_y_term(h) == odd_y:
                sums.append(h)
                found += 1
    return sums


def kronecker_sum(h):
    """The referee: sum of coefficient times Kronecker-built Pauli string, term by term."""
    total = np.zeros((2**h.num_qubits, 2**h.num_qubits), dtype=complex)
    for coeff, paulis in h.terms:
        total += coeff * dense_pauli_string(paulis, h.num_qubits)
    return total


def term_table_matrix(h):
    """The compiled sum scattered densely: a term's row i holds coeff * phase[i] at perm[i].
    Terms of different flip masks fill different entries, so each entry adds in term order."""
    rows = np.arange(1 << h.num_qubits)
    total = np.zeros((rows.size, rows.size), dtype=complex)
    for perm, members in _observable(h, h.num_qubits):
        for _, coeff, phase in members:
            total[rows, rows if perm is None else perm] += coeff if phase is None else coeff * phase
    return total


def has_odd_y_term(h):
    return any(sum(p == "Y" for _, p in paulis) % 2 for _, paulis in h.terms)


class TestDenseMatrix:
    """The term table the oracle applies, and the oracle itself, against the Kronecker referee."""

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_bit_identical_to_kronecker_sum(self, num_qubits):
        gen = np.random.default_rng(num_qubits)
        sums = [random_pauli_sum(gen, num_qubits) for _ in range(40)]
        assert any(map(has_odd_y_term, sums))
        for h in sums:
            assert np.array_equal(term_table_matrix(h), kronecker_sum(h))

    def test_even_y_sums_are_real(self):
        # the oracle runs in real arithmetic exactly when no term has an odd number of Y factors
        gen = np.random.default_rng(11)
        for num_qubits in range(1, 7):
            for _ in range(10):
                h = random_pauli_sum(gen, num_qubits)
                assert term_table_matrix(h).imag.any() == has_odd_y_term(h)

    def test_ground_energy_matches_kronecker_on_real_sums(self):
        real = random_sums(5, odd_y=False)
        real.append(PauliSum.build(2, [(0.7, {0: "Y", 1: "Y"}), (-0.3, {0: "X"})]))
        for h in real:
            expected = np.linalg.eigvalsh(kronecker_sum(h).real)[0]
            assert abs(exact_ground_energy(h) - expected) <= 1e-12

    def test_ground_energy_matches_kronecker_on_complex_sum(self):
        odd = random_sums(6, odd_y=True)
        odd.append(PauliSum.build(3, [(0.4, {0: "Y", 2: "X"}), (-0.2, {1: "Z"})]))
        for h in odd:
            expected = np.linalg.eigvalsh(kronecker_sum(h))[0]
            assert abs(exact_ground_energy(h) - expected) <= 1e-12


class TestExactGroundEnergy:
    def test_single_z(self):
        assert np.isclose(exact_ground_energy(PauliSum.build(1, [(1.0, {0: "Z"})])), -1.0)

    def test_x_plus_z(self):
        h = PauliSum.build(1, [(1.0, {0: "X"}), (1.0, {0: "Z"})])
        assert np.isclose(exact_ground_energy(h), -np.sqrt(2.0), atol=1e-12)

    def test_zz_product(self):
        h = PauliSum.build(2, [(0.5, {0: "Z", 1: "Z"})])
        assert np.isclose(exact_ground_energy(h), -0.5)

    def test_degenerate_ground_state(self):
        # -Z0 Z1 on 3 qubits: eigenvalue -1 four times over, reached as an invariant subspace
        h = PauliSum.build(3, [(-1.0, {0: "Z", 1: "Z"})])
        assert abs(exact_ground_energy(h) + 1.0) <= 1e-12

    def test_identity_only_sum(self):
        h = PauliSum.build(2, [(-0.7, {}), (0.25, {})])
        assert exact_ground_energy(h) == -0.7 + 0.25

    def test_empty_sum(self):
        assert exact_ground_energy(PauliSum(num_qubits=3, terms=())) == 0.0

    def test_repeat_call_is_bit_identical(self):
        h = random_sums(7, odd_y=True, per_size=1)[5]
        first = exact_ground_energy(h)
        _observable.cache_clear()
        assert exact_ground_energy(h) == first
        assert exact_ground_energy(h) == first

    def test_fourteen_qubit_noninteracting_sum(self):
        # past the old 12-qubit dense ceiling: sum_q (a_q X_q + b_q Z_q) has ground -sum_q |(a_q, b_q)|
        gen = np.random.default_rng(14)
        a, b = gen.normal(size=14), gen.normal(size=14)
        h = PauliSum.build(14, [(a[q], {q: "X"}) for q in range(14)]
                           + [(b[q], {q: "Z"}) for q in range(14)])
        assert abs(exact_ground_energy(h) + np.hypot(a, b).sum()) <= 1e-10

    def test_unconverged_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "LANCZOS_MAX_STEPS", 3)
        h = random_sums(8, odd_y=False, per_size=1)[5]
        with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
            exact_ground_energy(h)


def energy(template, params, h):
    return loss_functions(template, h)[0](np.asarray(params, dtype=float)[None, :])[0]


class TestVqeFitness:
    def test_vacuum_expectation_of_z(self):
        template = CircuitTemplate(1, [])
        h = PauliSum.build(1, [(1.0, {0: "Z"})])
        assert np.isclose(energy(template, np.zeros(0), h), 1.0)

    def test_flipped_qubit(self):
        template = CircuitTemplate(1, [Gate("RY", (0,), slot=0)])
        h = PauliSum.build(1, [(1.0, {0: "Z"})])
        assert np.isclose(energy(template, np.array([np.pi]), h), -1.0)

    def test_batch_agrees(self, rng):
        template = random_template(rng, 3, 10)
        h = PauliSum.build(3, [(0.3, {0: "Z"}), (0.2, {1: "X", 2: "Y"})])
        rows = rng.uniform(4 * template.num_params, 0, 2 * np.pi).reshape(4, -1)
        batch = loss_functions(template, h)[0](rows)
        assert np.allclose(batch, [energy(template, r, h) for r in rows], atol=1e-12)

    def test_variational_bound(self, rng):
        bundles = [
            load_pauli_file(bundled_hamiltonian_path("h2")),
            PauliSum.build(3, [(0.7, {0: "Z", 1: "Z"}), (-0.4, {2: "X"}), (0.2, {0: "Y", 2: "Y"})]),
        ]
        for h in bundles:
            floor = exact_ground_energy(h)
            for _ in range(25):
                template = random_template(rng, h.num_qubits, 12)
                params = rng.uniform(template.num_params, 0, 2 * np.pi)
                assert energy(template, params, h) >= floor - 1e-9


class TestBundledFile:
    def test_loads_and_matches_dense_oracle(self):
        h = load_pauli_file(bundled_hamiltonian_path("h2"))
        assert h.num_qubits == 2
        energy = exact_ground_energy(h)
        # independent check: dense matrix built by hand from the file's terms
        eye = np.eye(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        coeffs = dict(
            identity=-1.052373245772859,
            z0=0.39793742484318045,
            z1=-0.39793742484318045,
            zz=-0.01128010425623538,
            xx=0.18093119978423156,
        )
        m = (
            coeffs["identity"] * np.kron(eye, eye)
            + coeffs["z0"] * np.kron(eye, z)
            + coeffs["z1"] * np.kron(z, eye)
            + coeffs["zz"] * np.kron(z, z)
            + coeffs["xx"] * np.kron(x, x)
        )
        assert np.isclose(energy, np.linalg.eigvalsh(m)[0], atol=1e-12)

    def test_found_through_a_copy_loaded_under_another_name(self, tmp_path):
        package = tmp_path / "qnes_copy"
        shutil.copytree(Path(qnes.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location(package.name, package / "__init__.py",
                                                      submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[package.name] = module
        try:
            spec.loader.exec_module(module)
            copy = importlib.import_module(f"{package.name}.hamiltonian")
            path = copy.bundled_hamiltonian_path("h2")
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == package.name]:
                del sys.modules[name]
        assert path.resolve().is_relative_to(package.resolve())
        assert load_pauli_file(path) == load_pauli_file(bundled_hamiltonian_path("h2"))
