#!/usr/bin/env python3
"""Run one resonlab benchmark workload in one single-threaded process.

    python3 perfbench/run.py --workload froese-sharp --seed 0 --seconds 10 \
        --trace 0

From the repository root.  The package is imported from ``src/``; nothing is
installed.  After one untimed warm-up pipeline run on a smaller config,
pipeline runs go back to back (closed loop, one client) until ``--seconds``
have passed, at least one run.  Every run's outputs are checked against
``reference/``.

``--trace 0`` prints the end-to-end metrics: median warm wall time, items
per second, set-up time in fresh processes, and peak RSS.  ``--trace 1``
runs the same loop untraced, then one or two traced pipeline runs with a
hook on each layer (see ``tracing.py``) and prints the per-layer metrics,
the traced wall time and the tracing overhead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are for people.

The machine this was written on shares its cores with other tenants, and
its speed drifts by up to 40% over minutes.  So while pipeline runs go, a
timer runs a fixed reference kernel four times a second, and wall times are
reported at a fixed reference speed: each raw time is scaled by
``KERNEL_REF_S`` over the mean kernel time sampled during the timed loop
(the traced wall too; set-up processes time the kernel right after their
import).  The raw times and the kernel mean are printed beside them.  Span
busy and self times are raw.
"""

import os
import sys

# One thread for every BLAS/OpenMP pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 3
# The reference kernel's time at the reference speed, and how often it runs
KERNEL_REF_S = 0.002
KERNEL_EVERY_S = 0.25
# A second traced run, the repeat check, starts only if it should end by
# then, which keeps the slowest workload inside a 180 s run.
TRACE_BUDGET_S = 140.0

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import resonlab
resonlab.ExperimentConfig.load({config!r}).potential()
setup = time.perf_counter() - t0
from run import reference_kernel
print(setup, sum(reference_kernel() for _ in range(50)) / 50)
"""


def reference_kernel() -> float:
    """Seconds for a fixed loop of numpy calls on a 64-element array.

    The mix is the library's own, Python calling numpy on small arrays, so
    the kernel slows down with the machine about as the workloads do; a
    pure-Python loop or a large-array kernel tracked them less well.
    """
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64) + 0j
    for _ in range(300):
        a = np.exp(-1j * a) * 0.5 + np.abs(a)
    return time.perf_counter() - t0


class SpeedProbe:
    """The reference kernel on a timer, in this process, while runs go."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(reference_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference speed over the mean speed measured while it ran."""
        return KERNEL_REF_S / statistics.mean(self.samples)


def setup_seconds(config: Path) -> tuple[float, float]:
    """Time to import resonlab and build config plus potential.

    Each fresh process times the reference kernel right after; returns the
    medians of the raw times and of the times at the reference speed.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = SETUP_CODE.format(config=str(config))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=HERE.parent, capture_output=True, text=True,
                              check=True, timeout=120)
        setup, kernel = (float(t) for t in done.stdout.split())
        raw.append(setup)
        scaled.append(setup * KERNEL_REF_S / kernel)
    return statistics.median(raw), statistics.median(scaled)


class Tally:
    """Operations attempted and failed over all runs of the process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pipeline(wl, cfg, ref, call, tally: Tally) -> tuple[float, int]:
    """One pipeline run through call(subcommand, config), then its check.

    Returns the raw wall time and the items (certified zeros or grid
    momenta) the run delivered.
    """
    ops = wl.ops(ref)
    t0 = time.perf_counter()
    try:
        for sub in wl.subcommands:
            call(sub, cfg)
        wall = time.perf_counter() - t0
        got = wl.read(Path(cfg.out_dir))
        failed = wl.failed_ops(got, ref, cfg)
        items = wl.items(got)
    except Exception as exc:  # noqa: BLE001 - a failed run is data
        wall = time.perf_counter() - t0
        print(f"perfbench: {wl.name} run failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        failed, items = ops, 0
    if failed:
        print(f"perfbench: {wl.name}: {failed} of {ops} operations missed "
              "the reference", file=sys.stderr)
    tally.attempted += ops
    tally.failed += failed
    return wall, items


def measure(wl, cfg, ref, seconds: float, tally: Tally):
    """Untraced back-to-back runs for at least seconds.

    Returns per-run (raw wall, items) and the speed probe that ran beside
    them.  One scale for the whole loop: a short run sees too few kernel
    samples to fix its own.
    """
    from resonlab.cli import run_subcommand

    runs = []
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        while not runs or time.perf_counter() - t0 < seconds:
            runs.append(run_pipeline(wl, cfg, ref, run_subcommand, tally))
    return runs, probe


def artifact_bytes(out: Path) -> int:
    # The run's bookkeeping is left out: timing.log holds the wall time, and
    # manifest.txt echoes the versions and the absolute out_dir.
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name not in ("timing.log", "manifest.txt"))


def traced_runs(wl, cfg, ref, tally: Tally, started: float):
    """One traced pipeline run, and a second if time allows.

    Returns (tracer, raw wall) per run.  The speed probe runs here too, so
    traced and untraced walls carry the same probe work (about 1% of the
    traced busy times); its samples are not used.
    """
    from resonlab.cli import run_subcommand
    from tracing import Tracer

    tracers = []
    while True:
        tracer = Tracer()
        with tracer.installed(), SpeedProbe():
            wall, _ = run_pipeline(
                wl, cfg, ref, tracer.wrap(run_subcommand, "cli.run"), tally)
        tracer.counts["cli.artifact_bytes"] = artifact_bytes(
            Path(cfg.out_dir))
        tracers.append((tracer, wall))
        elapsed = time.perf_counter() - started
        if len(tracers) == 2 or elapsed + 1.2 * wall > TRACE_BUDGET_S:
            return tracers


def trace_problems(wl, tracers) -> list[str]:
    """Hook coverage and count repeatability; empty when both hold."""
    problems = []
    spans = tracers[0][0].span_counts()
    for name, n in spans.items():
        if name in wl.spans and n == 0:
            problems.append(f"hook {name} recorded no work")
        elif name not in wl.spans and n != 0:
            problems.append(f"hook {name} recorded {n} spans, expected none")
    if len(tracers) == 2:
        first, second = (
            {k: v for k, (v, unit) in t.metrics().items() if unit != "s"}
            for t, _ in tracers)
        for key in first:
            if first[key] != second[key]:
                problems.append(f"{key} did not repeat: "
                                f"{first[key]} then {second[key]}")
    return problems


def main(argv=None) -> int:
    if not (SRC / "resonlab" / "__init__.py").is_file():
        print(f"perfbench: no resonlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from resonlab.cli import run_subcommand
    from workloads import CONFIGS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    wl = WORKLOADS[args.workload]
    ref = wl.reference()
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    cfg = wl.config(args.seed, out / "run")
    if not args.trace:
        setup_raw, setup_s = setup_seconds(CONFIGS / f"{wl.name}.ini")

    warm = wl.config(args.seed, out / "warm", warm=True)
    for sub in wl.subcommands:
        run_subcommand(sub, warm)

    tally = Tally()
    runs, probe = measure(wl, cfg, ref, args.seconds, tally)
    raw_wall = statistics.median(w for w, _ in runs)
    wall_s = raw_wall * probe.scale()
    notes = [f"timed_runs={len(runs)}", f"raw_wall_s={raw_wall:.6g}",
             f"ref_kernel_mean_s={statistics.mean(probe.samples):.6g}",
             f"ref_kernel_samples={len(probe.samples)}"]
    problems = []
    if args.trace:
        tracers = traced_runs(wl, cfg, ref, tally, started)
        problems = trace_problems(wl, tracers)
        tracer = tracers[0][0]
        tracer.save(out / "spans.npz")
        # One scale, the untraced loop's, for both walls: a traced run is
        # too short to fix its own, and the overhead should not carry the
        # difference between two noisy scales.
        traced_wall = statistics.median(w for _, w in tracers) * probe.scale()
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        notes += [f"traced_runs={len(tracers)}",
                  f"spans={len(tracer.start)}"]
    else:
        notes.append(f"raw_setup_s={setup_raw:.6g}")
        metrics = {
            "wall_s": (wall_s, "s"),
            "items_per_s": (statistics.median(n / w for w, n in runs)
                            / probe.scale(), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for problem in problems:
        print(f"perfbench: {wl.name}: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(f"# perfbench {wl.name} seed={args.seed} trace={args.trace} "
          + " ".join(notes))
    print(f"# failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.10g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
