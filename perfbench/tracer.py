"""Spans around calls into qnes's public functions, installed from outside the package.

qnes binds several functions by name in more than one module (for example
`run_circuit_batch` in simulator, gradients and hamiltonian), so a wrapper is
installed on every binding found in the loaded `qnes` modules. A binding that
escaped patching would show up as a call-count mismatch in the output check,
not as a layer that took no time.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC on Linux, comparable across processes


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) among the loaded qnes modules that holds `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "qnes" or name.startswith("qnes."):
            found.extend((module, attr) for attr, value in vars(module).items()
                         if value is original)
    return found


def on_first_call(original, callback) -> None:
    """Call `callback()` just before the first call of `original`, then unpatch.

    Used by untraced runs to timestamp the first kernel call at no later cost.
    """
    sites = bindings(original)
    if not sites:
        raise LookupError(f"no qnes module binds {original.__qualname__}")

    def once(*args, **kwargs):
        for owner, attr in sites:
            setattr(owner, attr, original)
        callback()
        return original(*args, **kwargs)

    for owner, attr in sites:
        setattr(owner, attr, once)


def _kernel_work(template, param_rows, *_, **__):
    rows = len(param_rows)
    return {"kernel_rows": rows,
            "gate_amps": rows * (1 << template.num_qubits) * len(template.gates)}


def _observable_work(state, h, *_, **__):
    rows = state.shape[0] if state.ndim == 2 else 1
    return {"term_amps": rows * state.shape[-1] * len(h.terms)}


def _write_work(_path, data, encoding=None, *_, **__):
    return {"write_bytes": len(data.encode(encoding or "utf-8"))}


# span name -> (module, function) for every public entry point the traced run times
FUNCTIONS = (
    ("simulator.kernel", "qnes.simulator", "run_circuit_batch", _kernel_work),
    ("simulator.observable", "qnes.simulator", "pauli_expectation_batch", _observable_work),
    ("nes.sample", "qnes.nes", "sample_walkers", None),
    ("nes.step_snes", "qnes.nes", "snes_step", None),
    ("nes.step_xnes", "qnes.nes", "xnes_step", None),
    ("nes.loop", "qnes.nes", "optimize", None),
    ("gradients.shift", "qnes.gradients", "parameter_shift_expectation_gradient", None),
    ("gradients.scan", "qnes.gradients", "surrogate_gradient_variance_scan", None),
    ("batching.loop", "qnes.batching", "batch_optimize", None),
    ("hamiltonian.load", "qnes.hamiltonian", "load_pauli_file", None),
    ("hamiltonian.exact", "qnes.hamiltonian", "exact_ground_energy", None),
    ("harness.load_config", "qnes.harness", "load_config", None),
    ("harness.write", "qnes.harness", "write_trace_csv", None),
    ("harness.write", "qnes.harness", "write_summary_csv", None),
    ("harness.write", "qnes.harness", "write_snapshot_csv", None),
)
# span name -> (module, class, method); Path.write_text catches the harness's inline writes
METHODS = (
    ("ansatz.build", "qnes.ansatz", "AnsatzSpec", "build", None),
    ("harness.write", "pathlib", "Path", "write_text", _write_work),
)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


class Tracer:
    """Nested spans with self time: a span's duration minus its child spans'."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.first_start: dict[str, float] = {}
        self.top_level_s = 0.0
        self.work: Counter = Counter()

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            start = clock()
            self.first_start.setdefault(name, start)
            children = [0.0]
            self._stack.append(children)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
                self.total_s[name] += duration
                self.durations[name].append(duration)
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                if work is not None:
                    self.work.update(work(*args, **kwargs))
        return traced

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every binding of every function in FUNCTIONS and METHODS."""
        for name, module, func, work in FUNCTIONS:
            original = getattr(importlib.import_module(module), func)
            sites = bindings(original)
            if not sites:
                raise LookupError(f"{name}: no qnes module binds {module}.{func}")
            wrapped = self.wrap(name, original, work)
            for owner, attr in sites:
                self._patch(owner, attr, original, wrapped)
        for name, module, cls, method, work in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            original = owner.__dict__[method]
            self._patch(owner, method, original, self.wrap(name, original, work))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def report(self, wall_s: float) -> dict:
        """Per-span calls, self and total time, call-time percentiles, and work counts."""
        spans = {}
        for name in self.calls:
            durations = sorted(self.durations[name])
            spans[name] = {
                "calls": self.calls[name],
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
                "p50_ms": 1e3 * _nearest_rank(durations, 0.50),
                "p99_ms": 1e3 * _nearest_rank(durations, 0.99),
            }
        return {"wall_s": wall_s, "top_level_s": self.top_level_s,
                "spans": spans, "work": dict(self.work)}
