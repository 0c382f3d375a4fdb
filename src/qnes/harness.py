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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import MAX_GATES, AnsatzSpec, CircuitTemplate, template_to_text
from .batching import PartitionStrategy, batch_optimize, make_partition
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
    bundled_hamiltonian_path,
    exact_ground_energy,
    load_pauli_file,
)
from .nes import NesConfig, initial_distribution, optimize
from .numerics import SeededRng
from .simulator import PauliSum
from .trace import RunTrace

EXPERIMENT_KINDS = ("stateprep", "vqe", "variance_scan", "batch", "hybrid", "compare_gd")
OPTIMIZER_KINDS = ("snes", "xnes", "gd")

TRACE_SCHEMA = "iteration,evaluations,loss,spread_max,batch_cursor"
SUMMARY_SCHEMA = "iteration,loss_mean,loss_min,loss_max"
SCAN_SCHEMA = "sigma_init,k,variance_surrogate,variance_exact"
SNAPSHOT_SCHEMA = "iteration,param_index,gradient"

# Bytes one cached child stream of `SeededRng` holds, its Philox generator included: RSS
# grew by 1,335 bytes per stream over 50,000 streams (numpy 2.4). The strategy loop caches
# one stream per walker.
STREAM_BYTES = 1_400

# Angles are 2 pi-periodic, so a search wider than about 160 turns carries no information;
# a width this large still keeps every walker row finite.
MAX_WIDTH = 1e3


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    """A loaded config: the library's option objects, built and range-checked at load.

    `template` is the circuit the run uses, built once from the [ansatz] keys.
    """

    experiment: str
    seeds: tuple[int, ...]
    out_dir: Path
    template: CircuitTemplate
    optimizer: str
    sigma_init: float
    workers: int
    nes: NesConfig
    gd: GdConfig | None  # None when [gradient_descent] learning_rate is unset
    partition: PartitionStrategy
    scan: VarianceScanConfig
    hybrid_warmup: int
    hamiltonian: PauliSum | None
    echo: dict


def _parse_angle_token(token: str) -> float:
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        return math.pi / float(token[3:])
    return float(token)


def _at_least(low, kind=int):
    """Cast to `kind`, then require a finite value >= low."""
    def cast(value):
        number = kind(value)
        if not (math.isfinite(number) and number >= low):
            raise ValueError(f"must be finite and >= {low}")
        return number
    return cast


def _positive(value) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ValueError("must be finite and > 0")
    return number


def _width(value) -> float:
    number = _positive(value)
    if number > MAX_WIDTH:
        raise ValueError(f"must be <= {MAX_WIDTH:g} radians; angles are 2 pi-periodic")
    return number


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _path(value: str) -> str:
    if not value:
        raise ValueError("must be a non-empty path; . is the config's own directory")
    return value


def _build(section: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), with its ValueError (which names a key) as a ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _hamiltonian(value: str, base_dir: Path) -> PauliSum:
    """The [vqe] hamiltonian: ``bundled:NAME``, or a file path relative to the config."""
    if value.startswith("bundled:"):
        path = bundled_hamiltonian_path(value.split(":", 1)[1])
    else:
        path = base_dir / value
    if not path.exists():
        raise ConfigError(f"[vqe] hamiltonian file not found: {path}")
    try:
        return load_pauli_file(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[vqe] hamiltonian {path}: {exc}") from exc


def parse_config_text(text: str, base_dir: Path | None = None,
                      overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate a config; `overrides` maps ``section.key`` to a value, `%` is literal.

    Each key's range is checked by its cast; the library objects check their own
    arguments again, and `_validate` holds the rules that tie sections together.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override key must look like section.key, got {dotted!r}")
        section, key = dotted.split(".", 1)
        parser.read_dict({section: {key: value.strip()}})
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    read = set()

    def get(section, key, default=None, cast=str):
        read.add((section, key))
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
        raise ConfigError(f"[experiment] kind must be one of {', '.join(EXPERIMENT_KINDS)}, "
                          f"got {experiment!r}")
    seeds = require("experiment", "seeds", tokens(_at_least(0)))

    if not parser.has_section("ansatz"):
        raise ConfigError("missing [ansatz] section")
    spec = _build("ansatz", AnsatzSpec, require("ansatz", "family"),
                  require("ansatz", "qubits", int), require("ansatz", "layers", int),
                  get("ansatz", "structure_seed", "0", _at_least(0)))
    memory = _physical_memory()
    if spec.num_qubits > math.log2(memory / 32):
        raise ConfigError(f"[ansatz] qubits = {spec.num_qubits}: the kernel's state and "
                          f"temporary, 32 * 2**{spec.num_qubits} bytes, exceed the "
                          f"{memory / 2**30:.1f} GiB of physical memory")
    if spec.num_gates > MAX_GATES:
        raise ConfigError(f"[ansatz] layers = {spec.num_layers}: the {spec.family} circuit on "
                          f"{spec.num_qubits} qubits has {spec.num_gates:,} gates, more than "
                          f"the {MAX_GATES:,} a run builds")
    template = spec.build()

    optimizer = get("optimizer", "kind", "snes")
    if optimizer not in OPTIMIZER_KINDS:
        raise ConfigError(f"[optimizer] kind must be one of {', '.join(OPTIMIZER_KINDS)}, "
                          f"got {optimizer!r}")
    max_iterations = get("experiment", "max_iterations", "500", _at_least(0))
    learning_rate = get("gradient_descent", "learning_rate", cast=_positive)
    gd_iterations = get("gradient_descent", "max_iterations", cast=_at_least(0))
    gd_tolerance = get("gradient_descent", "tolerance", "1e-8", _at_least(0.0, float))
    ham = get("vqe", "hamiltonian")
    config = ExperimentConfig(
        experiment=experiment,
        seeds=seeds,
        out_dir=base_dir / get("experiment", "out", "runs/out", _path),
        template=template,
        optimizer=optimizer,
        sigma_init=get("optimizer", "sigma_init", "0.1", _width),
        workers=get("optimizer", "workers", "0", _at_least(0)),
        nes=NesConfig(population=get("optimizer", "walkers", "16", _at_least(2)),
                      max_iterations=max_iterations,
                      stop_threshold=get("optimizer", "stop_threshold", "1e-8",
                                         _at_least(0.0, float))),
        gd=None if learning_rate is None else GdConfig(
            learning_rate=learning_rate, tolerance=gd_tolerance,
            max_iterations=max_iterations if gd_iterations is None else gd_iterations),
        partition=_build("batch", PartitionStrategy, get("batch", "strategy", "random"),
                         get("batch", "size", cast=int)),
        scan=_build("variance_scan", VarianceScanConfig,
                    num_inits=get("variance_scan", "num_inits", "500", _at_least(2)),
                    sigma_values=get("variance_scan", "sigma_values", "pi/8 pi/16 pi/32",
                                     tokens(lambda token: _width(_parse_angle_token(token)))),
                    walker_counts=get("variance_scan", "walker_counts", "1 2 4 8",
                                      tokens(_at_least(1))),
                    observable=local_cost_observable(template.num_qubits)),
        hybrid_warmup=get("hybrid", "warmup", "5", _at_least(0)),
        hamiltonian=None if ham is None else _hamiltonian(ham, base_dir),
        echo={f"{section}.{key}": value
              for section in parser.sections() for key, value in parser.items(section)},
    )
    unknown = [f"[{s}] {k}" for s in parser.sections() for k in parser.options(s)
               if (s, k) not in read]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)}")
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    """The rules that tie one section to another."""
    seeds = config.seeds
    if not seeds:
        raise ConfigError("[experiment] seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"[experiment] seeds (or --seed) must be distinct, got {seeds}")
    if config.experiment == "variance_scan" and len(seeds) != 1:
        raise ConfigError(f"[experiment] seeds (or --seed) must be one seed for variance_scan, "
                          f"got {seeds}")
    needs_gd = config.experiment in ("compare_gd", "hybrid") or config.optimizer == "gd"
    if needs_gd and config.gd is None:
        raise ConfigError("[gradient_descent] learning_rate is required for this experiment")
    h = config.hamiltonian
    if h is not None:
        if config.experiment in ("stateprep", "variance_scan"):
            raise ConfigError(f"[vqe] hamiltonian is set, but kind = {config.experiment} "
                              "does not minimize an energy; use kind = vqe")
        if h.num_qubits > config.template.num_qubits:
            raise ConfigError(f"[vqe] hamiltonian acts on {h.num_qubits} qubits, "
                              f"more than [ansatz] qubits = {config.template.num_qubits}")
    elif config.experiment == "vqe":
        raise ConfigError("[vqe] hamiltonian is required for the vqe experiment")
    if config.experiment == "batch":
        try:
            config.partition.check(config.template.num_params)
        except ValueError as exc:
            raise ConfigError(f"[batch] {exc}".replace("batch_size", "size", 1)) from exc
    if config.experiment in ("batch", "compare_gd") and config.optimizer == "gd":
        raise ConfigError(f"[optimizer] kind must be snes or xnes for {config.experiment}")
    if config.experiment == "hybrid" and config.optimizer != "snes":
        raise ConfigError("[optimizer] kind must be snes for hybrid (its warm-up is separable)")
    if config.experiment == "variance_scan" and config.template.family != "rpqc":
        raise ConfigError("[ansatz] family must be rpqc for variance_scan, "
                          "which scans the random circuit")
    # one generation holds its (k, P) sample and point matrices, and the strategy loop
    # one cached stream per walker; nothing is allocated here
    p, memory = config.template.num_params, _physical_memory()
    for key, k, stream in (("[optimizer] walkers", config.nes.population, STREAM_BYTES),
                           ("[variance_scan] walker_counts", max(config.scan.walker_counts), 0)):
        held = k * (16 * p + stream)
        if held > memory:
            raise ConfigError(f"{key} = {k}: one generation of {k:,} walkers on {p} parameters "
                              f"holds {held / 2**30:.1f} GiB, more than the "
                              f"{memory / 2**30:.1f} GiB of physical memory")
    # the scan keeps one float per initialization for each cell and for its exact column
    scan = config.scan
    held = 8 * scan.num_inits * (len(scan.sigma_values) * len(scan.walker_counts) + 1)
    if held > memory:
        raise ConfigError(f"[variance_scan] num_inits = {scan.num_inits}: its values for every "
                          f"cell and the exact column hold {held / 2**30:.1f} GiB, more than "
                          f"the {memory / 2**30:.1f} GiB of physical memory")


def load_config(path, overrides: dict[str, str] | None = None, seeds=None,
                out_dir=None) -> ExperimentConfig:
    """`seeds` overrides ``experiment.seeds``; `out_dir` replaces the output directory as given."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    overrides = dict(overrides or {})
    if seeds is not None:
        overrides["experiment.seeds"] = " ".join(str(int(s)) for s in seeds)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    config = parse_config_text(text, path.parent, overrides)
    if out_dir is not None:
        if not str(out_dir).strip():
            raise ConfigError("invalid value for [experiment] out: --out must be a non-empty path")
        config.out_dir = Path(out_dir)
        config.echo["experiment.out"] = str(out_dir)
    if not next(p for p in (config.out_dir, *config.out_dir.parents) if p.exists()).is_dir():
        raise ConfigError(f"invalid value for [experiment] out: not a directory: {config.out_dir}")
    return config


def _write_csv(path: Path, kind: str, schema: str, rows, config: ExperimentConfig | None = None,
               seed: int | None = None, extra: dict | None = None) -> None:
    """Rows of Python ints and floats; a config adds its echo, seed, version and `extra`."""
    lines = [f"# qnes-{kind} v1"]
    if config is not None:
        lines.append(f"# config: {json.dumps(config.echo, sort_keys=True)}")
        if seed is not None:
            lines.append(f"# seed: {seed}")
        lines.append(f"# version: {__version__}")
        lines.extend(f"# {key}: {value}" for key, value in (extra or {}).items())
    lines.append(schema)
    lines.extend(",".join(map(repr, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_csv(path: Path, trace: RunTrace, config: ExperimentConfig, seed: int,
                    extra: dict | None = None) -> None:
    _write_csv(path, "trace", TRACE_SCHEMA, trace.rows(), config, seed, extra)


def write_snapshot_csv(path: Path, trace: RunTrace, config: ExperimentConfig, seed: int) -> None:
    rows = [(snap.iteration, j, float(g))
            for snap in trace.gradient_snapshots for j, g in enumerate(snap.components)]
    _write_csv(path, "gradient-snapshots", SNAPSHOT_SCHEMA, rows, config, seed)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    body = [(n, line) for n, line in enumerate(lines, 1) if line and not line.startswith("#")]
    if not body or body[0][1] != TRACE_SCHEMA:
        raise ValueError(f"{path} is not a trace CSV")
    width, rows = TRACE_SCHEMA.count(",") + 1, []
    for number, line in body[1:]:
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        if len(row) != width:
            raise ValueError(f"{path} line {number}: expected {width} fields, got {len(row)}")
        rows.append(row)
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


def _summary_rows(grids, losses) -> list[tuple[int, float, float, float]]:
    """(iteration, mean, min, max) across runs over the iterations every run reached.

    Early stopping can desynchronize runs, so the rows cover the shortest run;
    the runs' iteration grids must agree on it.
    """
    shortest = min(map(len, grids))
    grid = grids[0][:shortest]
    if any(not np.array_equal(g[:shortest], grid) for g in grids):
        raise ValueError("traces have mismatched iteration grids")
    columns = np.asarray([run[:shortest] for run in losses]).T
    return [(int(it), float(np.mean(vals)), float(np.min(vals)), float(np.max(vals)))
            for it, vals in zip(grid, columns)]


def summarize(trace_paths) -> list[tuple[int, float, float, float]]:
    """Per-iteration mean/min/max of the loss across trace files, by the summary.csv rule.

    Given a run's traces in its seed order, the rows equal those of the run's own summary.csv.
    """
    traces = [read_trace_csv(p) for p in trace_paths]
    if not traces:
        raise ValueError("summarize needs at least one trace")
    return _summary_rows([t["iteration"] for t in traces], [t["loss"] for t in traces])


def write_summary_csv(path: Path, rows, config: ExperimentConfig | None = None,
                      extra: dict | None = None) -> None:
    _write_csv(path, "summary", SUMMARY_SCHEMA, rows, config, None, extra)


def _problem(config: ExperimentConfig):
    """(loss, grad_fn, header_extra) of the configured loss.

    The energy of the [vqe] Hamiltonian when one is set, state preparation otherwise.
    """
    h = config.hamiltonian
    extra = {}
    if h is not None:
        reference = exact_ground_energy(h)
        extra["exact_ground_energy"] = repr(reference)
        print(f"exact_ground_energy = {reference!r}")
    return (*loss_functions(config.template, h), extra)


def _start(config: ExperimentConfig, seed: int) -> tuple[SeededRng, np.ndarray]:
    """The seed's generator, after it drew the initial point uniformly in [0, 2*pi)."""
    rng = SeededRng(seed)
    return rng, rng.uniform(config.template.num_params, 0.0, 2.0 * np.pi)


def _run_nes(config: ExperimentConfig, loss, seed: int) -> RunTrace:
    rng, mu0 = _start(config, seed)
    trace = RunTrace()
    if config.experiment == "batch":
        schedule = make_partition(config.template, config.partition, rng)
        batch_optimize(loss, schedule, mu0, config.sigma_init, config.nes, rng,
                       variant=config.optimizer, trace=trace, n_workers=config.workers)
    else:
        optimize(loss, initial_distribution(config.optimizer, mu0, config.sigma_init),
                 config.nes, rng, trace=trace, n_workers=config.workers)
    return trace


def _run_hybrid(config: ExperimentConfig, loss, grad_fn, seed: int) -> RunTrace:
    rng, mu0 = _start(config, seed)
    _, trace = hybrid_optimize(loss, grad_fn, mu0, config.hybrid_warmup, config.nes, config.gd,
                               rng, sigma_init=config.sigma_init)
    write_snapshot_csv(config.out_dir / f"trace_seed{seed}_gradients.csv", trace, config, seed)
    return trace


def _run_seeds(config: ExperimentConfig, runner, suffix: str, extra: dict) -> list[RunTrace]:
    # traces are written as each seed finishes, so a runtime failure mid-way
    # leaves the completed seeds' files on disk
    traces = []
    for seed in config.seeds:
        traces.append(runner(seed))
        write_trace_csv(config.out_dir / f"trace_seed{seed}{suffix}.csv",
                        traces[-1], config, seed, extra)
    return traces


def _emit_summary(config: ExperimentConfig, traces: list[RunTrace], suffix: str,
                  extra: dict) -> None:
    rows = _summary_rows([t.iterations for t in traces], [t.losses for t in traces])
    write_summary_csv(config.out_dir / f"summary{suffix}.csv", rows, config, extra)


def run_experiment(config: ExperimentConfig) -> None:
    """Execute the configured experiment once per seed and write trace/summary CSVs."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    # provenance: the exact gate list the run used
    (config.out_dir / "circuit.txt").write_text(template_to_text(config.template),
                                                encoding="utf-8")
    if config.experiment == "variance_scan":
        _run_variance_scan(config)
        return
    loss, grad_fn, extra = _problem(config)

    def nes(seed):
        return _run_nes(config, loss, seed)

    def gd(seed):
        return gradient_descent(loss, grad_fn, _start(config, seed)[1], config.gd)[1]

    if config.experiment == "compare_gd":
        runners = {"_nes": nes, "_gd": gd}
    elif config.experiment == "hybrid":
        runners = {"": lambda seed: _run_hybrid(config, loss, grad_fn, seed)}
    else:
        runners = {"": gd if config.optimizer == "gd" else nes}
    traces = {suffix: _run_seeds(config, runner, suffix, extra)
              for suffix, runner in runners.items()}
    for suffix, seed_traces in traces.items():
        _emit_summary(config, seed_traces, suffix, extra)


def _run_variance_scan(config: ExperimentConfig) -> None:
    rows = [(row.sigma_init, row.walkers, row.variance_surrogate, row.variance_exact)
            for row in surrogate_gradient_variance_scan(config.template, config.scan,
                                                        SeededRng(config.seeds[0]))]
    _write_csv(config.out_dir / "variance_scan.csv", "variance-scan", SCAN_SCHEMA, rows,
               config, config.seeds[0])
