#!/usr/bin/env python3
"""Every workload, each in a process of its own, in alternating order.

    python3 perfbench/suite.py [--repeat 3] [--seconds 10]
    python3 perfbench/suite.py --check-counts [--seconds 10]

Repetition r runs the workloads in table order when r is even and in reverse
order when r is odd, each with ``--seed r`` and ``--trace 0``, so that slow
drift of the machine's speed falls on every workload from both sides.  Each
process is one ``run.py`` call; its metrics are shown with the raw times and
the reference-kernel mean it measured.  The table at the end gives each
metric's median over the repetitions, per workload, including failed_frac
(failed operations over attempted ones).

``--check-counts`` instead runs each workload traced (``--trace 1 --seed
0``) in two processes and checks that every count, that is every per-layer
metric not in seconds, repeats exactly across them.  ``run.py`` checks this
within one process only when a second traced run fits its time budget,
which ``froese-sharp`` often does not.  The table at the end gives the
counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_one(name: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{name} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    notes = lines[0].split(f"trace={trace} ", 1)[-1]
    if done.stderr:
        print(done.stderr, end="", file=sys.stderr)
    return json.loads(lines[-1]), notes


def print_table(title: str, names, values, units, cell) -> None:
    print(f"\n{title}")
    print(f"{'metric':30s} {'unit':12s}" + "".join(f"{n:>15s}" for n in names))
    for metric, unit in units.items():
        cells = "".join(
            f"{cell(values[n][metric]):15.10g}" if metric in values[n]
            else f"{'-':>15s}" for n in names)
        print(f"{metric:30s} {unit:12s}{cells}")


def timed_sweep(repeat: int, seconds: float) -> bool:
    names = list(WORKLOADS)
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    units = {"failed_frac": "ratio"}
    all_correct = True
    for rep in range(repeat):
        for name in (names if rep % 2 == 0 else names[::-1]):
            result, notes = run_one(name, rep, seconds, 0)
            all_correct &= result["correct"]
            row = {"failed_frac": result["failed"] / result["attempted"]}
            for metric, m in result["metrics"].items():
                row[metric] = m["value"]
                units[metric] = m["unit"]
            for metric, v in row.items():
                values[name].setdefault(metric, []).append(v)
            shown = " ".join(f"{k}={v:.6g}" for k, v in row.items())
            print(f"rep {rep} {name:13s} correct={result['correct']} "
                  f"{shown}\n    {notes}", flush=True)
    print_table(f"medians over {repeat} repetitions (--seconds {seconds:g})",
                names, values, units, statistics.median)
    return all_correct


def check_counts(seconds: float) -> bool:
    names = list(WORKLOADS)
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    units = {}
    all_correct = True
    for name in names:
        for rep in range(2):
            result, notes = run_one(name, 0, seconds, 1)
            all_correct &= result["correct"]
            for metric, m in result["metrics"].items():
                if m["unit"] != "s":
                    units[metric] = m["unit"]
                    values[name].setdefault(metric, []).append(m["value"])
            print(f"{name:13s} traced process {rep} "
                  f"correct={result['correct']}\n    {notes}", flush=True)
        for metric, (first, second) in values[name].items():
            if first != second:
                all_correct = False
                print(f"{name}: {metric} did not repeat: "
                      f"{first} then {second}", file=sys.stderr)
    print_table("counts (each repeated in two traced processes unless "
                "reported above)", names, values, units, lambda v: v[0])
    return all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args(argv)
    if args.check_counts:
        ok = check_counts(args.seconds)
    else:
        ok = timed_sweep(args.repeat, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
