"""Every exported name resolves, and the names removed from the API stay removed."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import qnes
from qnes.ansatz import AnsatzSpec
from qnes.gradients import VarianceScanConfig, hybrid_optimize
from qnes.harness import ExperimentConfig
from qnes.nes import (FullDistribution, NesConfig, SeparableDistribution, optimize, snes_step,
                      xnes_step)

MODULES = ["qnes"] + sorted(f"qnes.{m.name}" for m in pkgutil.iter_modules(qnes.__path__))

REMOVED = {
    "qnes.simulator": ["apply_gate", "stateprep_fitness", "stateprep_fitness_batch",
                       "apply_pauli_string", "_terms", "_flip_groups", "_pauli_action",
                       "_scratch", "_ScratchStore", "_SCRATCH", "_x_permutation", "_y_factor",
                       "_z_sign", "_z_phase", "run_circuit", "pauli_expectation"],
    "qnes.ansatz": ["template_from_text", "FAMILIES", "template_from_gates"],
    "qnes.nes": ["default_population", "estimate_fisher", "apply_fisher_inverse", "_rank_order",
                 "IsotropicDistribution", "canonical_step", "canonical_gradient_estimate",
                 "WalkerBatch"],
    "qnes.numerics": ["scale_from_factor"],
    "qnes.hamiltonian": ["vqe_fitness", "vqe_fitness_batch", "dense_matrix", "MAX_DENSE_QUBITS"],
    "qnes.gradients": ["energy_loss_gradient", "stateprep_loss_gradient"],
    "qnes.harness": ["_at_least", "_positive", "_width", "_parse_angle_token", "_path"],
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


def parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_a_step_takes_only_what_it_reads():
    for step in (snes_step, xnes_step):
        assert parameters(step) == ["dist", "samples", "fitnesses"]
    for distribution in (SeparableDistribution, FullDistribution):
        assert parameters(distribution.step) == ["self", "samples", "fitnesses"]
    assert "callback" not in parameters(optimize)
    assert "snapshot_interval" not in parameters(hybrid_optimize)
    assert "hybrid_snapshot_interval" not in {f.name for f in fields(ExperimentConfig)}
    assert len(fields(ExperimentConfig)) == 14
