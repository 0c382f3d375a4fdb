"""Run one workload's configs in a fresh process, as `qnes run` does, and report timings.

    python3 perfbench/child.py TRACE CONFIG OUT [CONFIG OUT ...]

Each CONFIG goes through `harness.load_config` and `harness.run_experiment`
with its outputs in OUT. With TRACE 1 every public layer function is wrapped
in a span; with TRACE 0 only the first kernel call is timestamped, by a wrapper
that removes itself. The last stdout line is a JSON record of monotonic-clock
marks, CPU time and peak memory.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from tracer import Tracer, clock, on_first_call

SRC = Path(__file__).resolve().parent.parent / "src"


def execute(jobs, spans: Tracer | None = None) -> dict:
    """Run each (config, out_dir) job; `spans`, if given, must already be installed."""
    from qnes import harness, simulator

    marks = {}
    if spans is None:
        on_first_call(simulator.run_circuit_batch,
                      lambda: marks.setdefault("first_kernel", clock()))
    start = clock()
    for config_path, out_dir in jobs:
        harness.run_experiment(harness.load_config(config_path, out_dir=out_dir))
    end = clock()
    if spans is None:
        return {"first_kernel": marks["first_kernel"], "end": end}
    # a kernel the wrappers never saw fails the run's call-count check
    return {"first_kernel": spans.first_start.get("simulator.kernel", start), "end": end,
            "trace": spans.report(end - start)}


def main(argv: list[str]) -> int:
    trace, rest = argv[0] == "1", argv[1:]
    if not rest or len(rest) % 2:
        print("usage: child.py TRACE CONFIG OUT [CONFIG OUT ...]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qnes

    if Path(qnes.__file__).resolve().parent != SRC / "qnes":
        print(f"imported qnes from {qnes.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spans = None
    if trace:
        spans = Tracer()
        spans.install()
    record = execute(list(zip(rest[::2], rest[1::2])), spans)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["maxrss_kib"] = usage.ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
