"""The benchmark's workloads, and the check of their outputs.

A workload is one or more resonlab subcommands run back to back on one
config from ``configs/``; one such sequence is a pipeline run.  Outputs are
read back from the artifact files with a parser of the benchmark's own and
compared with ``reference/<workload>.json``, recorded at the seed commit by
``record_reference.py``.  Counts must match exactly; zero locations must lie
within the scan's ``root_tol`` (relative to max(1, |z|)) and scattering
coefficients within ``SCATTER_TOL_FACTOR * ode_rtol`` (relative to
max(1, |value|)) of the reference.  Byte equality is not asked for: a
correct faster propagator or scan moves the last digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

# T, R and L come out of ODE solves held to ode_rtol per step; the
# accumulated error of a correct solver stays well inside this factor
SCATTER_TOL_FACTOR = 100.0


def _rows(path: Path, ncols: int) -> list[list[float]]:
    out = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            cols = [float(t) for t in line.split()]
            if len(cols) != ncols:
                raise ValueError(f"{path.name}: malformed line {line!r}")
            out.append(cols)
    return out


def _header_int(path: Path, prefix: str) -> int:
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix):])
    raise ValueError(f"{path.name}: no line starting {prefix!r}")


def _zeros(path: Path) -> list[list[float]]:
    """A zeroset file as [re, im, multiplicity] rows."""
    return _rows(path, 3)


def _pair(got: np.ndarray, ref: np.ndarray):
    """Minimum-cost pairing of two equal-size complex arrays."""
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return rows, cols, cost[rows, cols]


def zeros_match(got, ref, tol: float) -> bool:
    """Same entries and multiplicities, locations within tol * max(1, |z|)."""
    if len(got) != len(ref):
        return False
    if sum(int(m) for *_, m in got) != sum(int(m) for *_, m in ref):
        return False
    if not ref:
        return True
    expand = lambda zs: np.array([complex(re, im) for re, im, m in zs
                                  for _ in range(int(m))])
    a, b = expand(got), expand(ref)
    _, cols, dist = _pair(a, b)
    return bool(np.all(dist <= tol * np.maximum(1.0, np.abs(b[cols]))))


# ------------------------------------------------------------- froese-sharp

def _read_froese(out: Path) -> dict:
    return {"resonances": _zeros(out / "froese_resonances.txt"),
            "fourier_zeros": _zeros(out / "froese_fourier_zeros.txt")}


def _check_froese(got: dict, ref: dict, cfg) -> int:
    ok = all(zeros_match(got[k], ref[k], cfg.root_tol)
             for k in ("resonances", "fourier_zeros"))
    return 0 if ok else 1


def _items_zero_sets(got: dict) -> int:
    return sum(int(m) for zs in got.values() if isinstance(zs, list)
               for *_, m in zs)


# --------------------------------------------------------------- recon-bump

def _read_recon(out: Path) -> dict:
    rows = []
    for line in (out / "stability.txt").read_text().splitlines()[1:]:
        if line.startswith("# failed:"):
            rows[-1]["failed"] = True
        elif line.strip():
            delta, sup, nd = line.split(",")[:3]
            rows.append({"delta": float(delta), "sup_diff": float(sup),
                         "n_diff": None if nd == "nan" else int(nd),
                         "failed": False})
    zero_row = [r for r in rows if r["delta"] == 0.0]
    return {"reconstruct_zeros": _zeros(out / "reconstruct_zeros.txt"),
            "stability_zeros": _zeros(out / "stability_zeros.txt"),
            "stability_rows": len(rows),
            "zero_row": ({"sup_diff": zero_row[0]["sup_diff"],
                          "n_diff": zero_row[0]["n_diff"]}
                         if zero_row else None),
            "rows_failed": sum(r["failed"] for r in rows)}


def _check_recon(got: dict, ref: dict, cfg) -> int:
    # ops: the reconstruct run, the stability run, and each stability row.
    # Only seed-independent parts are compared: the base zero set and the
    # delta = 0 row, whose product is the base product exactly.
    failed = 0
    for key in ("reconstruct_zeros", "stability_zeros"):
        failed += not zeros_match(got[key], ref[key], cfg.root_tol)
    missing = max(0, ref["stability_rows"] - got["stability_rows"])
    zero_row_ok = got["zero_row"] == {"sup_diff": 0.0, "n_diff": 0}
    return min(failed + missing + got["rows_failed"] + (not zero_row_ok),
               _ops_recon(ref))


def _ops_recon(ref: dict) -> int:
    return 2 + ref["stability_rows"]


# ------------------------------------------------------------- scatter-grid

def _read_scatter(out: Path) -> dict:
    # columns: k t_re t_im r_re r_im l_re l_im unitarity_defect
    return {"rows": [r[:7] for r in _rows(out / "scatter_matrix.txt", 8)]}


def _check_scatter(got: dict, ref: dict, cfg) -> int:
    # one op per grid momentum: k must be the grid value, T, R, L close
    tol = SCATTER_TOL_FACTOR * cfg.ode_rtol
    failed = 0
    got_by_k = {r[0]: r for r in got["rows"]}
    for r in ref["rows"]:
        g = got_by_k.get(r[0])
        if g is None:
            failed += 1
            continue
        vals = np.array(g[1:7]).reshape(3, 2) @ [1.0, 1j]
        want = np.array(r[1:7]).reshape(3, 2) @ [1.0, 1j]
        failed += bool(np.any(np.abs(vals - want)
                              > tol * np.maximum(1.0, np.abs(want))))
    return failed


def _items_scatter(got: dict) -> int:
    return len(got["rows"])


# ------------------------------------------------------------- dickson-wide

def _read_dickson(out: Path) -> dict:
    member = out / "dickson_membership.txt"
    exc = out / "dickson_exceptions.txt"
    return {"membership": _rows(member, 4),
            "unclassified": _header_int(
                member, "# zeros of modulus <= 1 (not classified): "),
            "exceptions": _header_int(
                exc, "# zeros of modulus > 1 outside every strip: ")}


def _check_dickson(got: dict, ref: dict, cfg) -> int:
    if (len(got["membership"]) != len(ref["membership"])
            or got["unclassified"] != ref["unclassified"]
            or got["exceptions"] != ref["exceptions"]):
        return 1
    a = np.array([complex(r[0], r[1]) for r in got["membership"]])
    b = np.array([complex(r[0], r[1]) for r in ref["membership"]])
    rows, cols, dist = _pair(a, b)
    if np.any(dist > cfg.root_tol * np.maximum(1.0, np.abs(b[cols]))):
        return 1
    same_strip = all(got["membership"][i][2:] == ref["membership"][j][2:]
                     for i, j in zip(rows, cols))
    return 0 if same_strip else 1


def _items_dickson(got: dict) -> int:
    return len(got["membership"])


# ---------------------------------------------------------------- the table

@dataclass(frozen=True)
class Workload:
    name: str
    subcommands: tuple[str, ...]
    warm: dict              # config overrides for the untimed warm-up run
    seeded: bool            # whether --seed reaches [run] seed
    spans: frozenset        # hooks that must record work; all others none
    read: Callable          # output dir -> summary (what the reference holds)
    failed_ops: Callable    # (summary, reference, config) -> failed ops
    ops: Callable           # reference -> ops attempted per pipeline run
    items: Callable         # summary -> certified zeros or grid momenta

    def config(self, seed: int, out_dir: Path, warm: bool = False):
        from resonlab.cli import ExperimentConfig

        cfg = ExperimentConfig.load(CONFIGS / f"{self.name}.ini")
        cfg = replace(cfg, out_dir=str(out_dir), **(self.warm if warm else {}))
        return replace(cfg, seed=seed) if self.seeded else cfg

    def reference(self) -> dict:
        return json.loads((REFERENCE / f"{self.name}.json").read_text())


_ONE = lambda ref: 1

WORKLOADS = {w.name: w for w in (
    Workload("froese-sharp", ("froese",),
             dict(re_max=8.0, im_min=-3.0), False,
             frozenset({"cli.run", "potential", "quadrature", "ftransform",
                        "rootscan.scan", "rootscan.f", "scatter.jost",
                        "scatter.ode"}),
             _read_froese, _check_froese, _ONE, _items_zero_sets),
    Workload("recon-bump", ("reconstruct", "stability"),
             dict(re_max=12.0, radius=12.5, grid_stop=10.0, grid_points=201), True,
             frozenset({"cli.run", "potential", "quadrature", "ftransform",
                        "rootscan.scan", "rootscan.f", "hadamard.eval",
                        "hadamard.fit", "hadamard.count"}),
             _read_recon, _check_recon, _ops_recon, _items_zero_sets),
    Workload("scatter-grid", ("scatter-matrix",),
             dict(grid_points=5), False,
             frozenset({"cli.run", "potential", "quadrature",
                        "scatter.smatrix", "scatter.jost", "scatter.ode"}),
             _read_scatter, _check_scatter,
             lambda ref: len(ref["rows"]), _items_scatter),
    Workload("dickson-wide", ("dickson-check",),
             dict(re_min=-20.0, re_max=20.0), False,
             frozenset({"cli.run", "rootscan.scan", "rootscan.f",
                        "dickson.window", "dickson.strip"}),
             _read_dickson, _check_dickson, _ONE, _items_dickson),
)}
