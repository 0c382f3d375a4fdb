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
from typing import NamedTuple

import numpy as np

from . import __version__
from .ansatz import MAX_GATES, MIN_SIZE, AnsatzSpec, CircuitTemplate, template_to_text
from .batching import STRATEGY_KINDS, PartitionStrategy, batch_optimize, make_partition
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


def _angle(token: str) -> float:
    """A float, ``pi`` or ``pi/x``."""
    head, slash, divisor = token.partition("/")
    return math.pi / float(divisor if slash else 1) if head == "pi" else float(token)


class Key(NamedTuple):
    """One config key: the text it reads when unset, its type and its bounds.

    `default` is that text, REQUIRED, or None (the value is None). `kind` is a tuple of
    choices, `Path` (non-empty text) or a number cast, `int`, `float` or `_angle`: each
    number must be finite, >= `low` (> `low` if `above`) and <= `high`. `many` reads
    one or more distinct numbers, one per whitespace-separated token.
    """

    default: object
    kind: object
    low: float = -math.inf
    high: float = math.inf
    above: bool = False
    many: bool = False


REQUIRED = object()

# Every key a config may set; the [ansatz] family's minimum qubits and layers are AnsatzSpec's.
KEYS = {
    ("experiment", "kind"): Key(REQUIRED, EXPERIMENT_KINDS),
    ("experiment", "seeds"): Key(REQUIRED, int, low=0, many=True),
    ("experiment", "max_iterations"): Key("500", int, low=0),
    ("experiment", "out"): Key("runs/out", Path),
    ("ansatz", "family"): Key(REQUIRED, tuple(MIN_SIZE)),
    ("ansatz", "qubits"): Key(REQUIRED, int),
    ("ansatz", "layers"): Key(REQUIRED, int),
    ("ansatz", "structure_seed"): Key("0", int, low=0),
    ("optimizer", "kind"): Key("snes", OPTIMIZER_KINDS),
    ("optimizer", "sigma_init"): Key("0.1", float, 0, MAX_WIDTH, above=True),
    ("optimizer", "workers"): Key("0", int, low=0),
    ("optimizer", "walkers"): Key("16", int, low=2),  # rank-based fitness shaping needs two
    ("optimizer", "stop_threshold"): Key("1e-8", float, low=0),
    ("gradient_descent", "learning_rate"): Key(None, float, 0, above=True),
    ("gradient_descent", "max_iterations"): Key(None, int, low=0),
    ("gradient_descent", "tolerance"): Key("1e-8", float, low=0),
    ("batch", "strategy"): Key("random", STRATEGY_KINDS),
    ("batch", "size"): Key(None, int, low=1),
    ("variance_scan", "num_inits"): Key("500", int, low=2),
    ("variance_scan", "sigma_values"): Key("pi/8 pi/16 pi/32", _angle, 0, MAX_WIDTH,
                                           above=True, many=True),
    ("variance_scan", "walker_counts"): Key("1 2 4 8", int, low=1, many=True),
    ("hybrid", "warmup"): Key("5", int, low=0),
    ("vqe", "hamiltonian"): Key(None, Path),  # a file relative to the config, or bundled:NAME
}


def _number(key: Key, token: str):
    number = key.kind(token)
    # math.isfinite raises OverflowError for an int beyond the float range
    if not (math.isfinite(number) and (number > key.low if key.above else number >= key.low)):
        raise ValueError(f"must be finite and {'>' if key.above else '>='} {key.low:g}")
    if number > key.high:
        raise ValueError(f"must be <= {key.high:g}")
    return number


def _read(section: str, name: str, text: str):
    """`text` as the value of [section] name, cast and range-checked by its `KEYS` entry."""
    key = KEYS[section, name]
    try:
        if isinstance(key.kind, tuple) and text not in key.kind:
            raise ValueError(f"must be one of {', '.join(key.kind)}")
        if key.kind is Path and not text:
            raise ValueError("must be a non-empty path; . is the config's own directory")
        if not key.many:
            return _number(key, text) if key.kind in (int, float, _angle) else text
        numbers = tuple(_number(key, token) for token in text.split())
        if not numbers or len(set(numbers)) != len(numbers):
            raise ValueError("must be one or more distinct numbers")
        return numbers
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid value for [{section}] {name}: {text!r} ({exc})") from exc


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _fits(key: str, value, held: float, what: str) -> None:
    """Raise a ConfigError naming `key = value` if `what`, `held` bytes (a float), exceed memory."""
    memory = _physical_memory()
    if held > memory:
        raise ConfigError(f"{key} = {value}: {what} need {held / 2**30:,.1f} GiB, more than the "
                          f"{memory / 2**30:.1f} GiB of physical memory")


def _build(section: str, factory, *args):
    """factory(*args), with its ValueError (which names a key) as a ConfigError."""
    try:
        return factory(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _hamiltonian(value: str, base_dir: Path) -> PauliSum:
    """The [vqe] hamiltonian: ``bundled:NAME``, or a file path relative to the config."""
    path = (bundled_hamiltonian_path(value.removeprefix("bundled:"))
            if value.startswith("bundled:") else base_dir / value)
    try:
        return load_pauli_file(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"[vqe] hamiltonian file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[vqe] hamiltonian {path}: {exc}") from exc


def parse_config_text(text: str, base_dir: Path | None = None,
                      overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate a config; `overrides` maps ``section.key`` to a value, `%` is literal.

    Every key is read through its `KEYS` entry; the library objects check their own
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
    values = {section: {} for section, _ in KEYS}
    for (section, name), key in KEYS.items():
        text = parser.get(section, name, fallback=key.default)
        if text is REQUIRED:
            raise ConfigError(f"missing required config key [{section}] {name}")
        values[section][name] = None if text is None else _read(section, name, text.strip())
    unknown = [f"[{s}] {k}" for s in parser.sections() for k in parser.options(s)
               if (s, k) not in KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)}")
    experiment, ansatz, optimizer, gd, batch, scan = (values[section] for section in (
        "experiment", "ansatz", "optimizer", "gradient_descent", "batch", "variance_scan"))
    spec = _build("ansatz", AnsatzSpec, ansatz["family"], ansatz["qubits"], ansatz["layers"],
                  ansatz["structure_seed"])
    q = spec.num_qubits
    # the float power is inf past 2**1023 bytes, which no memory holds
    _fits("[ansatz] qubits", q, 32 * 2.0 ** min(q, 1023),
          f"the kernel's state and temporary, 32 * 2**{q} bytes,")
    if spec.num_gates > MAX_GATES:
        raise ConfigError(f"[ansatz] layers = {spec.num_layers}: the {spec.family} circuit on "
                          f"{q} qubits has {spec.num_gates:,} gates, more than "
                          f"the {MAX_GATES:,} a run builds")
    template = spec.build()
    iterations, ham = experiment["max_iterations"], values["vqe"]["hamiltonian"]
    config = ExperimentConfig(
        experiment=experiment["kind"],
        seeds=experiment["seeds"],
        out_dir=base_dir / experiment["out"],
        template=template,
        optimizer=optimizer["kind"],
        sigma_init=optimizer["sigma_init"],
        workers=optimizer["workers"],
        nes=NesConfig(population=optimizer["walkers"], max_iterations=iterations,
                      stop_threshold=optimizer["stop_threshold"]),
        gd=None if gd["learning_rate"] is None else GdConfig(
            learning_rate=gd["learning_rate"], tolerance=gd["tolerance"],
            max_iterations=iterations if gd["max_iterations"] is None else gd["max_iterations"]),
        partition=_build("batch", PartitionStrategy, batch["strategy"], batch["size"]),
        scan=_build("variance_scan", VarianceScanConfig, scan["num_inits"], scan["sigma_values"],
                    scan["walker_counts"], local_cost_observable(q)),
        hybrid_warmup=values["hybrid"]["warmup"],
        hamiltonian=None if ham is None else _hamiltonian(ham, base_dir),
        echo={f"{section}.{key}": value
              for section in parser.sections() for key, value in parser.items(section)},
    )
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    """The rules that tie one section to another."""
    if config.experiment == "variance_scan" and len(config.seeds) != 1:
        raise ConfigError(f"[experiment] seeds (or --seed) must be one seed for variance_scan, "
                          f"got {config.seeds}")
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
    # one cached stream per walker
    p, scan = config.template.num_params, config.scan
    for key, k, stream in (("[optimizer] walkers", config.nes.population, STREAM_BYTES),
                           ("[variance_scan] walker_counts", max(scan.walker_counts), 0)):
        _fits(key, k, k * (16.0 * p + stream), f"one generation's {k:,} walkers on {p} parameters")
    # the scan keeps one float per initialization for each cell and for its exact column
    _fits("[variance_scan] num_inits", scan.num_inits,
          8.0 * scan.num_inits * (len(scan.sigma_values) * len(scan.walker_counts) + 1),
          "the scan's values for every cell and the exact column")


def load_config(path, overrides: dict[str, str] | None = None, seeds=None,
                out_dir=None) -> ExperimentConfig:
    """`seeds` overrides ``experiment.seeds``; `out_dir` replaces the output directory as given."""
    path = Path(path)
    overrides = dict(overrides or {})
    if seeds is not None:
        overrides["experiment.seeds"] = " ".join(str(int(s)) for s in seeds)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    config = parse_config_text(text, path.parent, overrides)
    if out_dir is not None:
        _read("experiment", "out", str(out_dir).strip())
        config.out_dir = Path(out_dir)
        config.echo["experiment.out"] = str(out_dir)
    try:  # the nearest existing ancestor must be a directory
        if not next(p for p in (config.out_dir, *config.out_dir.parents) if p.exists()).is_dir():
            raise NotADirectoryError(f"not a directory: {config.out_dir}")
    except OSError as exc:  # such as a name too long for the file system
        raise ConfigError(f"invalid value for [experiment] out: {exc}") from exc
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
    """(loss, value_and_grad, header_extra) of the configured loss.

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


def _run_hybrid(config: ExperimentConfig, loss, value_and_grad, seed: int) -> RunTrace:
    rng, mu0 = _start(config, seed)
    _, trace = hybrid_optimize(loss, value_and_grad, mu0, config.hybrid_warmup, config.nes,
                               config.gd, rng, sigma_init=config.sigma_init)
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
    loss, value_and_grad, extra = _problem(config)

    def nes(seed):
        return _run_nes(config, loss, seed)

    def gd(seed):
        return gradient_descent(loss, value_and_grad, _start(config, seed)[1], config.gd)[1]

    if config.experiment == "compare_gd":
        runners = {"_nes": nes, "_gd": gd}
    elif config.experiment == "hybrid":
        runners = {"": lambda seed: _run_hybrid(config, loss, value_and_grad, seed)}
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
