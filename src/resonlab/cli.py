"""Batch experiment runner with reproducible configs and artifacts.

Every pipeline is a subcommand over the same flat INI config:

    resonlab <subcommand> --config <path> [--out <dir>] [--seed <int>]

Each subcommand writes each of its results once, as plain columnar text:
`#` header lines, then one row per line in 15 significant digits.  Zero
sets and the stability table serialize themselves (ZeroSet.to_text,
StabilityTable.to_text); every other table goes through one row writer.
A run manifest echoes the config and library versions.  Wall time lives
in a separate timing.log so that everything else is byte-identical across
runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dickson import (containment_exceptions, curvilinear_count,
                      dickson_geometry, model_zeros, recommended_H,
                      recommended_alpha0, strip_membership, two_cosine_model)
from .ftransform import pair_function
# perfbench/tracing.py hooks eval_product and fit_prefactor by this module's
# name and fails when a name is missing; fit_prefactor is no longer called
from .hadamard import (PERTURB_MODES, build_product, convergence_curve,
                       eval_product, fit_prefactor, mirrored_reconstruction,
                       stability_experiment, tail_factor)
from .potential import (Potential, load_table, make_poly_bump,
                        make_truncated_gaussian)
from .rootscan import Rectangle, ZeroSet, locate_zeros
from .scatter import froese_compare, resonances, scattering_matrix

__all__ = ["ExperimentConfig", "SUBCOMMANDS", "run_subcommand", "main"]

FMT = "%.15g"


def _g(x: float) -> str:
    return FMT % x


def _zero_potential(cfg: ExperimentConfig) -> Potential:
    xs = np.linspace(0.0, cfg.support_length, 5)
    return load_table(np.column_stack([xs, np.zeros_like(xs)]),
                      cfg.support_length)


def _table_potential(cfg: ExperimentConfig) -> Potential:
    if not cfg.table_path:
        raise ValueError("family = table requires table_path")
    return load_table(np.loadtxt(cfg.table_path), cfg.support_length)


_FAMILIES = {
    "poly-bump": lambda c: make_poly_bump(c.support_length),
    "gaussian-sharp": lambda c: make_truncated_gaussian(c.support_length, True),
    "gaussian-smooth": lambda c: make_truncated_gaussian(c.support_length, False),
    "zero": _zero_potential,
    "table": _table_potential,
}
POTENTIAL_FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class ExperimentConfig:
    """One flat configuration shared by every subcommand.

    Defaults describe the polynomial bump scanned on [0.5, 12] x i[-4, 4]
    with a truncation radius just past the scanned zeros.  Fields map to
    the INI sections written by to_text; every field keeps its default
    when the config file omits it.
    """

    # [potential]
    family: str = "poly-bump"        # one of POTENTIAL_FAMILIES
    support_length: float = 1.0
    table_path: str = ""             # sample table, used when family = table

    # [rectangle]
    re_min: float = 0.5
    re_max: float = 12.0
    im_min: float = -4.0
    im_max: float = 4.0

    # [tolerances]
    quad_rtol: float = 1e-12         # Fourier-transform quadrature
    ode_rtol: float = 1e-10          # Jost integration
    ode_atol: float = 1e-12
    root_tol: float = 1e-9           # zero-location residual target

    # [reconstruction]
    radius: float = 12.5             # product truncation radius R
    strip_height: float = 1.0        # K of the counting strip S_R
    deltas: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    perturb_mode: str = "random-in-disk"

    # [grid]
    grid_start: float = 0.0
    grid_stop: float = 10.0
    grid_points: int = 201

    # [run]
    seed: int = 0
    out_dir: str = "runs"

    _SECTIONS = (
        ("potential", ("family", "support_length", "table_path")),
        ("rectangle", ("re_min", "re_max", "im_min", "im_max")),
        ("tolerances", ("quad_rtol", "ode_rtol", "ode_atol", "root_tol")),
        ("reconstruction", ("radius", "strip_height", "deltas",
                            "perturb_mode")),
        ("grid", ("grid_start", "grid_stop", "grid_points")),
        ("run", ("seed", "out_dir")),
    )

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}; "
                             f"expected one of {POTENTIAL_FAMILIES}")
        if self.perturb_mode not in PERTURB_MODES:
            raise ValueError(f"unknown perturb_mode {self.perturb_mode!r}; "
                             f"expected one of {PERTURB_MODES}")
        # DOP853 never accepts a step at a NaN tolerance, and quad_rtol =
        # inf ends in an error that does not name it
        for key in ("quad_rtol", "ode_rtol", "ode_atol", "support_length",
                    "radius"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and positive, "
                                 f"got {getattr(self, key)!r}")
        for key in ("root_tol", "strip_height"):
            if not getattr(self, key) > 0.0:
                raise ValueError(
                    f"{key} must be positive, got {getattr(self, key)!r}")
        if not all(d >= 0.0 for d in self.deltas):
            raise ValueError(f"deltas must be nonnegative, got {self.deltas!r}")
        # a NaN grid end makes every momentum NaN, and an infinite bound
        # ends the winding sweep in an error that does not name it
        for key in ("re_min", "re_max", "im_min", "im_max", "grid_start",
                    "grid_stop"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, "
                                 f"got {getattr(self, key)!r}")
        # the pipelines would stop on these only once they reach them
        try:
            self.rectangle()
        except ValueError:
            raise ValueError(
                "[rectangle] needs re_min < re_max and im_min < im_max, got "
                f"re {self.re_min!r}..{self.re_max!r}, "
                f"im {self.im_min!r}..{self.im_max!r}") from None
        self.grid()

    def to_text(self) -> str:
        """Serialize to INI; parse(to_text()) reproduces the config exactly."""
        out = []
        for section, keys in self._SECTIONS:
            out.append(f"[{section}]")
            for key in keys:
                val = getattr(self, key)
                if isinstance(val, tuple):
                    val = " ".join(repr(float(d)) for d in val)
                elif isinstance(val, float):
                    val = repr(val)
                out.append(f"{key} = {val}")
            out.append("")
        return "\n".join(out)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=(";", "#"))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"config parse error: {exc}") from exc

        known = {section: keys for section, keys in cls._SECTIONS}
        kwargs = {}
        for section in parser.sections():
            if section not in known:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in known[section]:
                    raise ValueError(
                        f"unknown config key '{key}' in section [{section}]")
                default = getattr(cls, key)
                try:
                    kwargs[key] = (tuple(float(t) for t in raw.split())
                                   if isinstance(default, tuple)
                                   else type(default)(raw))
                except ValueError as exc:
                    raise ValueError(
                        f"bad value for [{section}] {key}: {raw!r}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    def potential(self) -> Potential:
        return _FAMILIES[self.family](self)

    def rectangle(self) -> Rectangle:
        return Rectangle(self.re_min, self.re_max, self.im_min, self.im_max)

    def grid(self) -> np.ndarray:
        if self.grid_points < 1:
            raise ValueError("grid_points must be at least 1, got "
                             f"{self.grid_points!r}")
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)


# ------------------------------------------------------------ subcommands

def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _table(path: Path, header, rows=()) -> Path:
    """Header lines, then one line per row: numbers in FMT, a str as is."""
    lines = list(header)
    lines += [row if isinstance(row, str) else " ".join(map(_g, row))
              for row in rows]
    return _write(path, "\n".join(lines) + "\n")


def _zeros(path: Path, zs: ZeroSet, kind: str, cfg: ExperimentConfig,
           **provenance) -> Path:
    return _write(path, zs.to_text({"kind": kind, "family": cfg.family,
                                    **provenance}))


def _run_resonances(cfg: ExperimentConfig, out: Path) -> list[Path]:
    zs = resonances(cfg.potential(), cfg.rectangle(), cfg.root_tol,
                    rtol=cfg.ode_rtol, atol=cfg.ode_atol)
    rect = (f"[{_g(cfg.re_min)}, {_g(cfg.re_max)}] x "
            f"i[{_g(cfg.im_min)}, {_g(cfg.im_max)}]")
    return [_zeros(out / "resonances.txt", zs, "resonances", cfg,
                   rectangle=rect, tol=_g(cfg.root_tol))]


def _run_fourier_zeros(cfg: ExperimentConfig, out: Path) -> list[Path]:
    f = pair_function(cfg.potential(), cfg.quad_rtol)
    zs = locate_zeros(f, cfg.rectangle(), cfg.root_tol)
    return [_zeros(out / "fourier_zeros.txt", zs, "fourier-pair zeros", cfg,
                   tol=_g(cfg.root_tol))]


def _run_froese(cfg: ExperimentConfig, out: Path) -> list[Path]:
    cmp = froese_compare(cfg.potential(), cfg.rectangle(), cfg.root_tol,
                         rtol=cfg.ode_rtol, atol=cfg.ode_atol,
                         fourier_rtol=cfg.quad_rtol)
    header = [
        "# resonance / fourier-zero pairing",
        f"# resonance count: {len(cmp.resonance_set)}",
        f"# fourier zero count: {len(cmp.fourier_set)}",
        f"# median distance, first third: {_g(cmp.median_first_third)}",
        f"# median distance, last third: {_g(cmp.median_last_third)}",
        "# relative medians, first/last third: "
        f"{_g(cmp.relative_median_first_third)} "
        f"{_g(cmp.relative_median_last_third)}",
        "# columns: res_re res_im fz_re fz_im distance relative",
    ]
    rows = [(p.resonance.real, p.resonance.imag, p.fourier_zero.real,
             p.fourier_zero.imag, p.distance, p.relative) for p in cmp.pairs]
    return [
        _table(out / "froese_pairs.txt", header, rows),
        _zeros(out / "froese_resonances.txt", cmp.resonance_set,
               "resonances", cfg),
        _zeros(out / "froese_fourier_zeros.txt", cmp.fourier_set,
               "fourier-pair zeros", cfg),
    ]


def _run_dickson_check(cfg: ExperimentConfig, out: Path) -> list[Path]:
    f = two_cosine_model()
    g = dickson_geometry(f)
    alpha0 = recommended_alpha0(f)
    H = recommended_H(f, alpha0)
    rect = cfg.rectangle()
    zs = locate_zeros(f, rect, cfg.root_tol, lambda: model_zeros(f, rect))
    exceptions = containment_exceptions(g, zs, H, r_min=1.0)

    big = [z for z, _ in zs if abs(z) > 1.0]
    membership = _table(
        out / "dickson_membership.txt",
        [f"# strip membership at H = {_g(H)}",
         f"# zeros of modulus <= 1 (not classified): {len(zs) - len(big)}",
         "# columns: re im side strip"],
        [(z.real, z.imag, *(strip_membership(g, z, H) or (-1, -1)))
         for z in big])

    exc_path = _table(out / "dickson_exceptions.txt",
                      ["# zeros of modulus > 1 outside every strip: "
                       f"{len(exceptions)}", "# columns: re im"],
                      [(z.real, z.imag) for z in exceptions])

    s = np.pi / 2.0
    alphas = [20.0 * np.pi + t * s for t in range(20)]
    counts = [curvilinear_count(f, g, 0, 0, alpha, s, H, alpha_floor=alpha0)
              for alpha in alphas]
    windows = _table(out / "dickson_windows.txt",
                     [f"# window counts along strip (0, 0), s = {_g(s)}, "
                      f"H = {_g(H)}, alpha floor = {_g(alpha0)}",
                      "# columns: alpha count bound_ok"],
                     [(alpha, res.count, int(bool(res.bound_ok)))
                      for alpha, res in zip(alphas, counts)])
    return [membership, exc_path, windows]


def _convergence_radii(zeros: ZeroSet, R: float) -> list:
    """Up to four radii, the last R, each retaining strictly more zeros.

    Moduli within 1e-9 relative form one level, since conjugate and mirrored
    zeros share a modulus. The candidates lie halfway between consecutive
    levels below R, then R itself; four of them are taken, evenly spaced
    and always the first and the last.
    """
    mods = np.sort(np.abs(zeros.locations()))
    mods = mods[mods < R]
    gaps = np.flatnonzero(np.diff(mods) > 1e-9 * mods[1:])
    radii = np.append(0.5 * (mods[gaps] + mods[gaps + 1]), R)
    pick = np.linspace(0, radii.size - 1, min(4, radii.size))
    return [float(r) for r in radii[pick.round().astype(int)]]


def _run_reconstruct(cfg: ExperimentConfig, out: Path) -> list[Path]:
    v = cfg.potential()
    f = pair_function(v, cfg.quad_rtol)
    z1, c = mirrored_reconstruction(f, cfg.rectangle(), cfg.root_tol)
    product = build_product(z1, cfg.radius, c)

    grid = cfg.grid()
    targets = f(grid.astype(complex))
    values = (eval_product(product, grid)
              * tail_factor(grid, v.support_length, cfg.radius))
    # m and kappa stay in the header so the file format is unchanged
    recon = _table(
        out / "reconstruction.txt",
        ["# truncated-product reconstruction on the real axis",
         f"# prefactor: c = {_g(c.real)} + {_g(c.imag)}i, m = 0, kappa = 0",
         f"# tail factor: exp(-2 L x^2 / (pi R)), L = {_g(v.support_length)}",
         f"# truncation radius: {_g(cfg.radius)}; retained zeros: "
         f"{product.zeros.total_multiplicity()}",
         "# columns: x recon_re recon_im target_re target_im abs_err"],
        [(x, val.real, val.imag, t.real, t.imag, abs(val - t))
         for x, val, t in zip(grid, values, targets)])

    probe = complex(0.5 * (cfg.grid_start + cfg.grid_stop))
    curve = convergence_curve(z1, c, probe,
                              _convergence_radii(z1, cfg.radius))
    conv = _table(out / "convergence.txt",
                  [f"# pointwise convergence at z = {_g(probe.real)}",
                   "# columns: radius value_re value_im"],
                  [(r, val.real, val.imag)
                   for r, val in zip(curve.radii, curve.values)])

    return [recon, conv, _zeros(out / "reconstruct_zeros.txt", z1,
                                "fourier-pair zeros, mirrored", cfg)]


def _run_stability(cfg: ExperimentConfig, out: Path) -> list[Path]:
    # delta = 0 is the reference row
    deltas = tuple(cfg.deltas) + (() if 0.0 in cfg.deltas else (0.0,))
    table = stability_experiment(
        cfg.potential(), cfg.rectangle(), deltas, cfg.radius, cfg.grid(),
        K=cfg.strip_height, mode=cfg.perturb_mode, seed=cfg.seed,
        scan_tol=cfg.root_tol, quad_rtol=cfg.quad_rtol)
    return [_write(out / "stability.txt", table.to_text()),
            _zeros(out / "stability_zeros.txt", table.base_zeros,
                   "fourier-pair zeros, mirrored", cfg)]


def _run_scatter_matrix(cfg: ExperimentConfig, out: Path) -> list[Path]:
    grid = cfg.grid()
    entries = scattering_matrix(cfg.potential(), grid, rtol=cfg.ode_rtol,
                                atol=cfg.ode_atol)
    # a rejected momentum keeps its row
    rows = [f"# failed: {sm}" if isinstance(sm, ValueError) else
            (k, sm.t.real, sm.t.imag, sm.r_right.real, sm.r_right.imag,
             sm.l_left.real, sm.l_left.imag, sm.unitarity_defect)
            for k, sm in zip(grid, entries)]
    return [_table(out / "scatter_matrix.txt",
                   ["# scattering matrix on the real momentum grid",
                    "# columns: k t_re t_im r_re r_im l_re l_im "
                    "unitarity_defect"], rows)]


_RUNNERS = {
    "resonances": _run_resonances,
    "fourier-zeros": _run_fourier_zeros,
    "froese": _run_froese,
    "dickson-check": _run_dickson_check,
    "reconstruct": _run_reconstruct,
    "stability": _run_stability,
    "scatter-matrix": _run_scatter_matrix,
}
SUBCOMMANDS = tuple(_RUNNERS)


def _versions() -> str:
    import scipy

    from . import __version__

    py = ".".join(str(p) for p in sys.version_info[:3])
    return (f"python {py}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, resonlab {__version__}")


def run_subcommand(name: str, config: ExperimentConfig) -> int:
    """Run one pipeline, write its artifacts plus manifest, return 0.

    Pipeline failures propagate as exceptions so the caller can report
    them with their module of origin; partial artifacts are left in place
    for inspection.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown subcommand {name!r}; "
                         f"expected one of {SUBCOMMANDS}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    artifacts = _RUNNERS[name](config, out)
    elapsed = time.perf_counter() - start

    _table(out / "manifest.txt",
           ["# resonlab run manifest", f"subcommand: {name}",
            f"versions: {_versions()}", "artifacts:",
            *[f"  {p.name}" for p in sorted(artifacts)],
            "timing: see timing.log", "config: |",
            *[f"  {line}" for line in config.to_text().splitlines()]])
    # wall time is the one run-dependent quantity; it lives alone so every
    # other artifact is byte-identical for identical config and seed
    _write(out / "timing.log", f"wall_time_seconds: {elapsed:.6f}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resonlab",
        description="resonance, zero-scan, and reconstruction experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(SUBCOMMANDS) + "}")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return exc.code if isinstance(exc.code, int) else 2

    try:
        cfg = ExperimentConfig.load(args.config)
    except ValueError as exc:
        print(f"resonlab: config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    try:
        return run_subcommand(args.subcommand, cfg)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"resonlab: {args.subcommand} failed\n"
              f"  type: {type(exc).__name__}\n"
              f"  module: {type(exc).__module__}\n"
              f"  message: {exc}", file=sys.stderr)
        return 1
