#!/usr/bin/env python3
"""Record the reference outputs that run.py checks every pipeline run against.

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once with seed 0 and writes what
``Workload.read`` extracts from its artifacts to ``reference/<name>.json``.
The checked-in files were recorded at the seed commit; rerun this only when
a change is meant to alter results, and say so.
"""

import json
import sys

import run  # pins BLAS/OpenMP threads before numpy loads


def _dump(summary: dict) -> str:
    """JSON with one row of a table per line, for readable diffs."""
    def value(v):
        if isinstance(v, list):
            return "[\n  " + ",\n  ".join(json.dumps(r) for r in v) + "\n ]"
        return json.dumps(v)
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {value(v)}"
                               for k, v in summary.items()) + "\n}\n"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    from resonlab.cli import run_subcommand
    from workloads import REFERENCE, WORKLOADS

    for name in argv or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        cfg = wl.config(0, run.OUT / name / "reference")
        for sub in wl.subcommands:
            run_subcommand(sub, cfg)
        summary = wl.read(run.OUT / name / "reference")
        (REFERENCE / f"{name}.json").write_text(_dump(summary))
        print(f"{name}: {wl.items(summary)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
