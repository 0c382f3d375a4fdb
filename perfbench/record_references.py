"""Re-record the data-row hashes that the default-seed runs are checked against.

    python3 perfbench/record_references.py

Runs every workload once with the default seed, checks its invariants, and
writes perfbench/reference_hashes.json. Re-record only in a change that alters
qnes outputs on purpose and says so; see perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import sys

from run import REFERENCE_FILE, SINGLE_THREAD_ENV, TIME_LIMIT_S, WORK, run_child
from workloads import DEFAULT_SEED, WORKLOADS, dense_ground_energy, make_inputs


def main() -> int:
    os.environ.update(SINGLE_THREAD_ENV)
    hashes = {}
    for name in sorted(WORKLOADS):
        inputs = make_inputs(name, DEFAULT_SEED)
        work = WORK / name
        ground = (dense_ground_energy(inputs.hamiltonian_qubits, inputs.hamiltonian)
                  if inputs.hamiltonian else None)
        run = run_child(inputs, inputs.write(work / "inputs"), work, False, TIME_LIMIT_S,
                        None, ground)
        if run.failures:
            print(f"{name}: " + "; ".join(run.failures), file=sys.stderr)
            return 1
        hashes[name] = run.hashes
        print(f"{name}: {len(hashes[name])} files")
    REFERENCE_FILE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
