"""Same-process A/B timing of two qnes source trees.

    python3 tools/ab.py A_SRC B_SRC [--case Q:L:B:V ...] [--config PATH ...]
                        [--set KEY=VALUE ...] [--pairs N] [--seed S]

A_SRC and B_SRC are `src` directories (each holds a `qnes` package); B is the
change. Both trees load in this one process, under the package names `qnes_a`
and `qnes_b`, so both sides see the same machine state from pair to pair; a VM
whose speed drifts over minutes cannot tell fresh-process pairs apart when a
kernel moves by a few percent.

- A kernel case Q:L:B:V builds each tree's rpqc template (Q qubits, L layers,
  structure seed 11) and times `run_circuit_batch` on B rows in which V
  columns vary and the rest copy row 0. Every pair draws fresh rows, runs
  enough calls on each side to fill about 20 ms, and swaps which side goes
  first. V = -1 means every column varies.
- A config runs whole, through each tree's `harness.load_config` and
  `run_experiment`, once per side per pair, with `--set` overrides applied.
  The data rows of every CSV it writes (the lines that are not `#` headers)
  must match between the sides.

Per case the script prints each side's fastest time, the median B/A ratio of
the pairs, and how many pairs B ran faster. It exits 1 if any kernel state or
data row differs between the sides.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("a", "b")


def load_tree(src: Path, side: str):
    """The `qnes` package under `src`, imported as `qnes_<side>` with its submodules."""
    name = f"qnes_{side}"
    package = src / "qnes"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {part: importlib.import_module(f"{name}.{part}")
            for part in ("ansatz", "harness", "simulator")}


def case_rows(rng, num_params: int, b: int, varying: int) -> np.ndarray:
    rows = rng.uniform(0.0, 2.0 * np.pi, (b, num_params))
    if 0 <= varying < num_params:
        shared = np.ones(num_params, dtype=bool)
        shared[rng.choice(num_params, varying, replace=False)] = False
        rows[:, shared] = rows[:1, shared]
    return rows


def timed(fn, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def report(label: str, times: dict) -> None:
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    faster = sum(r < 1.0 for r in ratios)
    print(f"{label}: min A {1e3 * min(times['a']):.3f} ms, min B {1e3 * min(times['b']):.3f} ms, "
          f"median B/A {statistics.median(ratios):.3f}, B faster in {faster} of {len(ratios)}")


def kernel_case(trees, spec: str, pairs: int, rng) -> bool:
    q, layers, b, varying = (int(x) for x in spec.split(":"))
    templates = {s: trees[s]["ansatz"].build_rpqc(q, layers, structure_seed=11) for s in SIDES}
    run = {s: trees[s]["simulator"].run_circuit_batch for s in SIDES}
    rows = case_rows(rng, templates["a"].num_params, b, varying)
    same = np.array_equal(run["a"](templates["a"], rows), run["b"](templates["b"], rows))
    repeat = max(1, int(0.02 / timed(lambda: run["a"](templates["a"], rows), 3)))
    times = {s: [] for s in SIDES}
    for i in range(pairs):
        rows = case_rows(rng, templates["a"].num_params, b, varying)
        for s in SIDES[::1 if i % 2 else -1]:
            times[s].append(timed(lambda: run[s](templates[s], rows), repeat))
    report(f"kernel Q={q} L={layers} B={b} varying={varying}"
           f"{'' if same else ' STATES DIFFER'}", times)
    return same


def data_rows(out_dir: Path) -> dict:
    return {p.name: [line for line in p.read_text().splitlines() if not line.startswith("#")]
            for p in sorted(out_dir.glob("*.csv"))}


def config_case(trees, path: Path, overrides: dict, pairs: int, work: Path) -> bool:
    times, rows = {s: [] for s in SIDES}, {}
    for i in range(pairs):
        for s in SIDES[::1 if i % 2 else -1]:
            harness = trees[s]["harness"]
            out = work / f"{path.stem}-{s}-{i}"
            config = harness.load_config(path, overrides, out_dir=out)
            start = time.perf_counter()
            harness.run_experiment(config)
            times[s].append(time.perf_counter() - start)
            rows.setdefault(s, data_rows(out))
    same = rows["a"] == rows["b"] and bool(rows["a"])
    report(f"config {path.name}{'' if same else ' DATA ROWS DIFFER'}", times)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--case", action="append", default=[], metavar="Q:L:B:V")
    parser.add_argument("--config", action="append", default=[], type=Path)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    trees = {s: load_tree(src.resolve(), s) for s, src in zip(SIDES, (args.a_src, args.b_src))}
    rng = np.random.default_rng(args.seed)
    overrides = dict(item.split("=", 1) for item in args.set)
    same = all([kernel_case(trees, spec, args.pairs, rng) for spec in args.case])
    with tempfile.TemporaryDirectory(prefix="qnes-ab-") as work:
        same &= all([config_case(trees, path.resolve(), overrides, args.pairs, Path(work))
                     for path in args.config])
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
