"""Every exported name resolves, and the names removed from the API stay removed."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import qnes
from qnes.ansatz import AnsatzSpec
from qnes.gradients import VarianceScanConfig
from qnes.nes import FullDistribution, NesConfig, SeparableDistribution

MODULES = ["qnes"] + sorted(f"qnes.{m.name}" for m in pkgutil.iter_modules(qnes.__path__))

REMOVED = {
    "qnes.simulator": ["apply_gate", "stateprep_fitness", "stateprep_fitness_batch",
                       "apply_pauli_string"],
    "qnes.ansatz": ["template_from_text", "FAMILIES", "template_from_gates"],
    "qnes.nes": ["default_population", "estimate_fisher", "apply_fisher_inverse", "_rank_order",
                 "IsotropicDistribution", "canonical_step", "canonical_gradient_estimate"],
    "qnes.numerics": ["scale_from_factor"],
    "qnes.hamiltonian": ["vqe_fitness", "vqe_fitness_batch", "dense_matrix", "MAX_DENSE_QUBITS"],
    "qnes.gradients": ["energy_loss_gradient"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry, or a stale import in qnes/__init__.py, makes this raise
    exec(f"from {name} import *", {})


def test_removed_names_stay_removed():
    for name, attrs in REMOVED.items():
        module = importlib.import_module(name)
        for attr in attrs:
            assert not hasattr(module, attr), f"{name}.{attr}"
            assert not hasattr(qnes, attr), attr
    assert {f.name for f in fields(NesConfig)} == {"population", "max_iterations",
                                                   "stop_threshold"}
    assert not hasattr(NesConfig, "resolved")
    assert "estimator" not in {f.name for f in fields(VarianceScanConfig)}
    assert not hasattr(SeparableDistribution, "min_population")
    assert not hasattr(FullDistribution, "min_population")
    assert not hasattr(FullDistribution, "from_factor")
    assert not hasattr(AnsatzSpec, "num_params")
