"""Experiment presets: config files, run orchestration, and trace/CSV emission.

Config files are INI-style (sections of key = value pairs); every default
mirrors the experiment conventions used throughout the library (16 walkers,
initialization spread 0.1, stop threshold 1e-8, dimension-derived learning
rates). Traces are CSV with a commented header (schema version, config echo,
seed, code version) and contain no timestamps, so re-running a config with the
same seeds reproduces the files byte for byte.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import AnsatzSpec, template_to_text
from .batching import SIZED_KINDS, STRATEGY_KINDS, PartitionStrategy, batch_optimize, make_partition
from .gradients import (
    GdConfig,
    VarianceScanConfig,
    gradient_descent,
    hybrid_optimize,
    local_cost_observable,
    loss_functions,
    surrogate_gradient_variance_scan,
)
from .hamiltonian import (
    MAX_DENSE_QUBITS,
    bundled_hamiltonian_path,
    exact_ground_energy,
    load_pauli_file,
)
from .nes import (
    FullDistribution,
    IsotropicDistribution,
    NesConfig,
    SeparableDistribution,
    optimize,
)
from .numerics import SeededRng
from .trace import RunTrace

EXPERIMENT_KINDS = ("stateprep", "vqe", "variance_scan", "batch", "hybrid", "compare_gd")
OPTIMIZER_KINDS = ("canonical", "snes", "xnes", "gd")

TRACE_SCHEMA = "iteration,evaluations,loss,spread_max,batch_cursor"
SUMMARY_SCHEMA = "iteration,loss_mean,loss_min,loss_max"
SCAN_SCHEMA = "sigma_init,k,variance_surrogate,variance_exact"
SNAPSHOT_SCHEMA = "iteration,param_index,gradient"


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    experiment: str
    seeds: tuple[int, ...]
    out_dir: Path
    max_iterations: int
    ansatz: AnsatzSpec
    optimizer: str = "snes"
    walkers: int = 16
    sigma_init: float = 0.1
    stop_threshold: float = 1e-8
    workers: int = 0
    gd_learning_rate: float | None = None
    gd_max_iterations: int | None = None
    gd_tolerance: float = 1e-8
    batch_strategy: str = "random"
    batch_size: int | None = None
    scan_num_inits: int = 500
    scan_sigma_values: tuple[float, ...] = ()
    scan_walker_counts: tuple[int, ...] = ()
    hybrid_warmup: int = 5
    hybrid_snapshot_interval: int = 0
    hamiltonian_path: Path | None = None
    echo: dict = field(default_factory=dict)


def _parse_angle_token(token: str) -> float:
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        return math.pi / float(token[3:])
    return float(token)


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()

    def get(section, key, default=None, cast=str):
        value = parser.get(section, key).strip() if parser.has_option(section, key) else default
        if value is None:
            return None
        try:
            return cast(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid value for [{section}] {key}: {value!r} ({exc})") from exc

    def require(section, key, cast=str):
        if not parser.has_option(section, key):
            raise ConfigError(f"missing required config key [{section}] {key}")
        return get(section, key, cast=cast)

    def tokens(cast):
        return lambda value: tuple(cast(token) for token in value.split())

    experiment = require("experiment", "kind")
    if experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {experiment!r}")
    seeds = require("experiment", "seeds", tokens(int))

    if not parser.has_section("ansatz"):
        raise ConfigError("missing [ansatz] section")
    spec = (require("ansatz", "family"), require("ansatz", "qubits", int),
            require("ansatz", "layers", int), get("ansatz", "structure_seed", "0", int))
    try:
        ansatz = AnsatzSpec(*spec)
    except ValueError as exc:
        raise ConfigError(f"[ansatz] {exc}") from exc

    optimizer = get("optimizer", "kind", "snes")
    if optimizer not in OPTIMIZER_KINDS:
        raise ConfigError(f"unknown optimizer kind {optimizer!r}")

    config = ExperimentConfig(
        experiment=experiment,
        seeds=seeds,
        out_dir=base_dir / get("experiment", "out", "runs/out"),
        max_iterations=get("experiment", "max_iterations", "500", int),
        ansatz=ansatz,
        optimizer=optimizer,
        walkers=get("optimizer", "walkers", "16", int),
        sigma_init=get("optimizer", "sigma_init", "0.1", float),
        stop_threshold=get("optimizer", "stop_threshold", "1e-8", float),
        workers=get("optimizer", "workers", "0", int),
        gd_learning_rate=get("gradient_descent", "learning_rate", cast=float),
        gd_max_iterations=get("gradient_descent", "max_iterations", cast=int),
        gd_tolerance=get("gradient_descent", "tolerance", "1e-8", float),
        batch_strategy=get("batch", "strategy", "random"),
        batch_size=get("batch", "size", cast=int),
        scan_num_inits=get("variance_scan", "num_inits", "500", int),
        scan_sigma_values=get("variance_scan", "sigma_values", "pi/8 pi/16 pi/32",
                              tokens(_parse_angle_token)),
        scan_walker_counts=get("variance_scan", "walker_counts", "1 2 4 8", tokens(int)),
        hybrid_warmup=get("hybrid", "warmup", "5", int),
        hybrid_snapshot_interval=get("hybrid", "snapshot_interval", "0", int),
    )
    ham = get("vqe", "hamiltonian")
    if ham is not None:
        if ham.startswith("bundled:"):
            config.hamiltonian_path = bundled_hamiltonian_path(ham.split(":", 1)[1])
        else:
            config.hamiltonian_path = base_dir / ham

    config.echo = {
        f"{section}.{key}": value
        for section in parser.sections()
        for key, value in parser.items(section)
    }
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    if not config.seeds:
        raise ConfigError("[experiment] seeds must be non-empty")
    if min(config.seeds) < 0:
        raise ConfigError(f"[experiment] seeds (or --seed) must be >= 0, got {min(config.seeds)}")
    if config.walkers < 1:
        raise ConfigError("walkers must be >= 1")
    if config.optimizer in ("snes", "xnes") and config.walkers < 2:
        raise ConfigError("snes/xnes need at least 2 walkers")
    if not config.sigma_init > 0:
        raise ConfigError("sigma_init must be positive")
    needs_gd = config.experiment in ("compare_gd", "hybrid") or config.optimizer == "gd"
    if needs_gd and config.gd_learning_rate is None:
        raise ConfigError("[gradient_descent] learning_rate is required for this experiment")
    if config.hamiltonian_path is not None:
        if config.experiment in ("stateprep", "variance_scan"):
            raise ConfigError(f"[vqe] hamiltonian is set, but kind = {config.experiment} "
                              "does not minimize an energy; use kind = vqe")
        if not config.hamiltonian_path.exists():
            raise ConfigError(f"hamiltonian file not found: {config.hamiltonian_path}")
    elif config.experiment == "vqe":
        raise ConfigError("[vqe] hamiltonian is required for the vqe experiment")
    if config.experiment == "batch":
        if config.batch_strategy not in STRATEGY_KINDS:
            raise ConfigError(f"unknown batch strategy {config.batch_strategy!r}")
        if config.batch_strategy in SIZED_KINDS and (config.batch_size or 0) < 1:
            raise ConfigError(f"[batch] size must be >= 1 for {config.batch_strategy}, "
                              f"got {config.batch_size}")
        if config.optimizer not in ("snes", "xnes"):
            raise ConfigError("[optimizer] kind must be snes or xnes for the batch experiment")
    if config.experiment == "hybrid" and config.optimizer != "snes":
        raise ConfigError("[optimizer] kind must be snes for hybrid (its warm-up is separable)")
    if config.experiment == "compare_gd" and config.optimizer == "gd":
        raise ConfigError("[optimizer] kind must be canonical, snes or xnes for compare_gd")
    if config.experiment == "variance_scan":
        if config.scan_num_inits < 2:
            raise ConfigError("variance_scan num_inits must be >= 2")
        if config.ansatz.family != "rpqc":
            raise ConfigError("[ansatz] family must be rpqc for variance_scan, "
                              "which scans the random circuit")


def load_config(path, overrides: dict[str, str] | None = None, seeds=None,
                out_dir=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if overrides:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        for dotted, value in overrides.items():
            if "." not in dotted:
                raise ConfigError(f"override key must look like section.key, got {dotted!r}")
            section, key = dotted.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
        lines = []
        for section in parser.sections():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in parser.items(section))
        text = "\n".join(lines)
    config = parse_config_text(text, base_dir=path.parent)
    if seeds is not None:
        config.seeds = tuple(int(s) for s in seeds)
        config.echo["experiment.seeds"] = " ".join(str(s) for s in config.seeds)
    if out_dir is not None:
        config.out_dir = Path(out_dir)
        config.echo["experiment.out"] = str(out_dir)
    _validate(config)
    return config


def _header_lines(kind: str, config: ExperimentConfig, seed: int | None = None,
                  extra: dict | None = None) -> list[str]:
    lines = [
        f"# qnes-{kind} v1",
        f"# config: {json.dumps(config.echo, sort_keys=True)}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(f"# version: {__version__}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def write_trace_csv(path: Path, trace: RunTrace, config: ExperimentConfig, seed: int,
                    extra: dict | None = None) -> None:
    lines = _header_lines("trace", config, seed, extra)
    lines.append(TRACE_SCHEMA)
    for it, evals, loss, spread, cursor in trace.rows():
        lines.append(f"{it},{evals},{loss!r},{spread!r},{cursor}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_snapshot_csv(path: Path, trace: RunTrace, config: ExperimentConfig, seed: int) -> None:
    lines = _header_lines("gradient-snapshots", config, seed)
    lines.append(SNAPSHOT_SCHEMA)
    for snap in trace.gradient_snapshots:
        for j, g in enumerate(snap.components):
            lines.append(f"{snap.iteration},{j},{float(g)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("iteration"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"trace {path} has no data rows")
    data = np.asarray(rows)
    return {
        "iteration": data[:, 0].astype(int),
        "evaluations": data[:, 1].astype(int),
        "loss": data[:, 2],
        "spread_max": data[:, 3],
        "batch_cursor": data[:, 4].astype(int),
    }


def summarize(trace_paths) -> list[tuple[int, float, float, float]]:
    """Per-iteration mean/min/max of the loss across trace files.

    All traces must share an identical iteration grid.
    """
    traces = [read_trace_csv(p) for p in trace_paths]
    if not traces:
        raise ValueError("summarize needs at least one trace")
    grid = traces[0]["iteration"]
    for t in traces[1:]:
        if not np.array_equal(t["iteration"], grid):
            raise ValueError("traces have mismatched iteration grids")
    losses = np.stack([t["loss"] for t in traces])
    return [
        (int(it), float(m), float(lo), float(hi))
        for it, m, lo, hi in zip(grid, losses.mean(axis=0), losses.min(axis=0), losses.max(axis=0))
    ]


def write_summary_csv(path: Path, rows, config: ExperimentConfig,
                      extra: dict | None = None) -> None:
    lines = _header_lines("summary", config, None, extra)
    lines.append(SUMMARY_SCHEMA)
    for it, mean, lo, hi in rows:
        lines.append(f"{it},{mean!r},{lo!r},{hi!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _truncate_to_common_grid(traces: list[RunTrace]) -> None:
    # early stopping can desynchronize seeds; summaries use the shared prefix
    shortest = min(len(t) for t in traces)
    for t in traces:
        del t.iterations[shortest:], t.evaluations[shortest:], t.losses[shortest:]
        del t.spreads[shortest:], t.batch_cursors[shortest:]


def _nes_config(config: ExperimentConfig) -> NesConfig:
    return NesConfig(
        population=config.walkers,
        max_iterations=config.max_iterations,
        stop_threshold=config.stop_threshold,
    )


def _gd_config(config: ExperimentConfig) -> GdConfig:
    return GdConfig(
        learning_rate=config.gd_learning_rate,
        max_iterations=config.gd_max_iterations or config.max_iterations,
        tolerance=config.gd_tolerance,
    )


def _initial_distribution(config: ExperimentConfig, mu0: np.ndarray):
    if config.optimizer == "snes":
        return SeparableDistribution(mu=mu0, sigma=np.full(mu0.size, config.sigma_init))
    if config.optimizer == "xnes":
        return FullDistribution.isotropic(mu0, config.sigma_init)
    return IsotropicDistribution(mu=mu0, sigma=config.sigma_init)


def _problem(config: ExperimentConfig, template):
    """(fitness, fitness_batch, grad_fn, observable, header_extra) of the configured loss.

    The energy of the [vqe] Hamiltonian when one is set, state preparation otherwise.
    """
    if config.hamiltonian_path is None:
        return (*loss_functions(template), None, {})
    h = load_pauli_file(config.hamiltonian_path)
    extra = {}
    if h.num_qubits <= MAX_DENSE_QUBITS:
        reference = exact_ground_energy(h)
        extra["exact_ground_energy"] = repr(reference)
        print(f"exact_ground_energy = {reference!r}")
    return (*loss_functions(template, h), h, extra)


def _run_nes(config: ExperimentConfig, template, fitness, fitness_batch, seed: int) -> RunTrace:
    rng = SeededRng(seed)
    mu0 = rng.uniform(template.num_params, 0.0, 2.0 * np.pi)
    trace = RunTrace()
    fitness_batch = None if config.workers else fitness_batch
    if config.experiment == "batch":
        strategy = PartitionStrategy(kind=config.batch_strategy, batch_size=config.batch_size)
        schedule = make_partition(template, strategy, rng)
        batch_optimize(fitness, schedule, mu0, config.sigma_init, _nes_config(config), rng,
                       variant=config.optimizer, trace=trace, fitness_batch=fitness_batch,
                       n_workers=config.workers)
    else:
        optimize(fitness, _initial_distribution(config, mu0), _nes_config(config), rng,
                 trace=trace, fitness_batch=fitness_batch, n_workers=config.workers)
    return trace


def _run_gd(config: ExperimentConfig, template, loss_fn, grad_fn, seed: int) -> RunTrace:
    rng = SeededRng(seed)
    x0 = rng.uniform(template.num_params, 0.0, 2.0 * np.pi)
    trace = RunTrace()
    gradient_descent(loss_fn, grad_fn, x0, _gd_config(config), trace)
    return trace


def _run_hybrid(config: ExperimentConfig, template, observable, seed: int) -> RunTrace:
    _, trace = hybrid_optimize(
        template, config.hybrid_warmup, _nes_config(config), _gd_config(config),
        SeededRng(seed), observable=observable, sigma_init=config.sigma_init,
        snapshot_interval=config.hybrid_snapshot_interval or None,
    )
    write_snapshot_csv(config.out_dir / f"trace_seed{seed}_gradients.csv", trace, config, seed)
    return trace


def _run_seeds(config: ExperimentConfig, runner, suffix: str,
               extra: dict) -> dict[int, RunTrace]:
    # traces are written as each seed finishes, so a runtime failure mid-way
    # leaves the completed seeds' files on disk
    traces = {}
    for seed in config.seeds:
        traces[seed] = runner(seed)
        write_trace_csv(config.out_dir / f"trace_seed{seed}{suffix}.csv",
                        traces[seed], config, seed, extra)
    return traces


def _emit_summary(config: ExperimentConfig, traces: dict[int, RunTrace], suffix: str,
                  extra: dict) -> None:
    pool = list(traces.values())
    _truncate_to_common_grid(pool)
    rows = [
        (it, float(np.mean(vals)), float(np.min(vals)), float(np.max(vals)))
        for it, vals in zip(
            pool[0].iterations,
            np.stack([t.losses for t in pool]).T,
        )
    ]
    write_summary_csv(config.out_dir / f"summary{suffix}.csv", rows, config, extra)


def run_experiment(config: ExperimentConfig) -> None:
    """Execute the configured experiment once per seed and write trace/summary CSVs."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    template = config.ansatz.build()
    # provenance: the exact gate list the run used
    (config.out_dir / "circuit.txt").write_text(template_to_text(template), encoding="utf-8")
    if config.experiment == "variance_scan":
        _run_variance_scan(config)
        return
    fitness, fitness_batch, grad_fn, observable, extra = _problem(config, template)

    def nes(seed):
        return _run_nes(config, template, fitness, fitness_batch, seed)

    def gd(seed):
        return _run_gd(config, template, fitness, grad_fn, seed)

    if config.experiment == "compare_gd":
        runners = {"_nes": nes, "_gd": gd}
    elif config.experiment == "hybrid":
        runners = {"": lambda seed: _run_hybrid(config, template, observable, seed)}
    else:
        runners = {"": gd if config.optimizer == "gd" else nes}
    traces = {suffix: _run_seeds(config, runner, suffix, extra)
              for suffix, runner in runners.items()}
    for suffix, seed_traces in traces.items():
        _emit_summary(config, seed_traces, suffix, extra)


def _run_variance_scan(config: ExperimentConfig) -> None:
    ansatz = config.ansatz
    scan = VarianceScanConfig(
        num_qubits=ansatz.num_qubits,
        num_layers=ansatz.num_layers,
        structure_seed=ansatz.structure_seed,
        num_inits=config.scan_num_inits,
        sigma_values=config.scan_sigma_values,
        walker_counts=config.scan_walker_counts,
        observable=local_cost_observable(ansatz.num_qubits),
    )
    rows = surrogate_gradient_variance_scan(scan, SeededRng(config.seeds[0]))
    lines = _header_lines("variance-scan", config, config.seeds[0])
    lines.append(SCAN_SCHEMA)
    for row in rows:
        lines.append(f"{row.sigma_init!r},{row.walkers},"
                     f"{row.variance_surrogate!r},{row.variance_exact!r}")
    (config.out_dir / "variance_scan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
