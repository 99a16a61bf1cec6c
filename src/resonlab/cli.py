"""Batch experiment runner with reproducible configs and artifacts.

Every pipeline is a subcommand over the same flat INI config:

    resonlab <subcommand> --config <path> [--out <dir>] [--seed <int>]

Artifacts are plain columnar text with 15 significant digits plus a run
manifest echoing the config and library versions.  Wall time lives in a
separate timing.log so that everything else is byte-identical across runs
with the same config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dickson import (containment_exceptions, curvilinear_count,
                      dickson_geometry, recommended_H, recommended_alpha0,
                      strip_membership, two_cosine_model)
from .ftransform import pair_function
# perfbench/tracing.py hooks eval_product and fit_prefactor by this module's
# name and fails when a name is missing; fit_prefactor is no longer called
from .hadamard import (StabilityTable, build_product, convergence_curve,
                       eval_product, fit_prefactor, mirrored_reconstruction,
                       stability_experiment, tail_factor)
from .potential import (Potential, load_table, make_poly_bump,
                        make_truncated_gaussian)
from .rootscan import Rectangle, ZeroSet, locate_zeros
from .scatter import froese_compare, resonances, scattering_matrix

__all__ = ["ExperimentConfig", "SUBCOMMANDS", "emit_plot_data",
           "run_subcommand", "main"]

FMT = "%.15g"

POTENTIAL_FAMILIES = ("poly-bump", "gaussian-sharp", "gaussian-smooth",
                      "zero", "table")


def _g(x: float) -> str:
    return FMT % x


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
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for section in parser.sections():
            if section not in known:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in known[section]:
                    raise ValueError(
                        f"unknown config key '{key}' in section [{section}]")
                try:
                    if key == "deltas":
                        kwargs[key] = tuple(float(t) for t in raw.split())
                    elif types[key] == "float":
                        kwargs[key] = float(raw)
                    elif types[key] == "int":
                        kwargs[key] = int(raw)
                    else:
                        kwargs[key] = raw
                except ValueError as exc:
                    raise ValueError(
                        f"bad value for [{section}] {key}: {raw!r}") from exc
        cfg = cls(**kwargs)
        if cfg.family not in POTENTIAL_FAMILIES:
            raise ValueError(f"unknown potential family {cfg.family!r}; "
                             f"expected one of {POTENTIAL_FAMILIES}")
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    def potential(self) -> Potential:
        if self.family == "poly-bump":
            return make_poly_bump(self.support_length)
        if self.family == "gaussian-sharp":
            return make_truncated_gaussian(self.support_length, True)
        if self.family == "gaussian-smooth":
            return make_truncated_gaussian(self.support_length, False)
        if self.family == "zero":
            xs = np.linspace(0.0, self.support_length, 5)
            return load_table(np.column_stack([xs, np.zeros_like(xs)]),
                              self.support_length)
        if self.family == "table":
            if not self.table_path:
                raise ValueError("family = table requires table_path")
            return load_table(np.loadtxt(self.table_path),
                              self.support_length)
        raise ValueError(f"unknown potential family {self.family!r}")

    def rectangle(self) -> Rectangle:
        return Rectangle(self.re_min, self.re_max, self.im_min, self.im_max)

    def grid(self) -> np.ndarray:
        if self.grid_points < 1:
            raise ValueError("grid needs at least one point")
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)


# ------------------------------------------------------------ plot emission

def emit_plot_data(obj, out_dir, stem: str = "plot") -> list[Path]:
    """Columnar text series for external plotting tools.

    ZeroSet -> one re/im scatter file; StabilityTable -> one series per
    measured column (failed rows are skipped).  Empty inputs are an error:
    there is nothing to plot.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, ZeroSet):
        if len(obj) == 0:
            raise ValueError("nothing to plot: empty zero set")
        path = out_dir / f"{stem}_zeros.dat"
        lines = ["# columns: re im multiplicity"]
        lines += [f"{_g(z.real)} {_g(z.imag)} {m:d}" for z, m in obj]
        path.write_text("\n".join(lines) + "\n")
        return [path]
    if isinstance(obj, StabilityTable):
        rows = [r for r in obj.rows if r.error is None]
        if not rows:
            raise ValueError("nothing to plot: no successful rows")
        sup = out_dir / f"{stem}_delta_sup.dat"
        sup.write_text("\n".join(
            ["# columns: delta sup_diff"]
            + [f"{_g(r.delta)} {_g(r.sup_diff)}" for r in rows]) + "\n")
        zdist = out_dir / f"{stem}_delta_zerodist.dat"
        zdist.write_text("\n".join(
            ["# columns: delta zero_sup_distance"]
            + [f"{_g(r.delta)} {_g(r.zero_sup_distance)}" for r in rows])
            + "\n")
        return [sup, zdist]
    raise TypeError(f"no plot emission for {type(obj).__name__}")


# ------------------------------------------------------------ subcommands

def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _run_resonances(cfg: ExperimentConfig, out: Path) -> list[Path]:
    zs = resonances(cfg.potential(), cfg.rectangle(), cfg.root_tol,
                    rtol=cfg.ode_rtol, atol=cfg.ode_atol)
    prov = {"kind": "resonances", "family": cfg.family,
            "rectangle": f"[{_g(cfg.re_min)}, {_g(cfg.re_max)}] x "
                         f"i[{_g(cfg.im_min)}, {_g(cfg.im_max)}]",
            "tol": _g(cfg.root_tol)}
    written = [_write(out / "resonances.txt", zs.to_text(prov))]
    if len(zs):
        written += emit_plot_data(zs, out, "resonances")
    return written


def _run_fourier_zeros(cfg: ExperimentConfig, out: Path) -> list[Path]:
    f = pair_function(cfg.potential(), cfg.quad_rtol)
    zs = locate_zeros(f, cfg.rectangle(), cfg.root_tol)
    prov = {"kind": "fourier-pair zeros", "family": cfg.family,
            "tol": _g(cfg.root_tol)}
    written = [_write(out / "fourier_zeros.txt", zs.to_text(prov))]
    if len(zs):
        written += emit_plot_data(zs, out, "fourier_zeros")
    return written


def _run_froese(cfg: ExperimentConfig, out: Path) -> list[Path]:
    cmp = froese_compare(cfg.potential(), cfg.rectangle(), cfg.root_tol,
                         rtol=cfg.ode_rtol, atol=cfg.ode_atol,
                         fourier_rtol=cfg.quad_rtol)
    lines = [
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
    for p in cmp.pairs:
        lines.append(" ".join(_g(x) for x in (
            p.resonance.real, p.resonance.imag, p.fourier_zero.real,
            p.fourier_zero.imag, p.distance, p.relative)))
    written = [
        _write(out / "froese_pairs.txt", "\n".join(lines) + "\n"),
        _write(out / "froese_resonances.txt",
               cmp.resonance_set.to_text({"kind": "resonances",
                                          "family": cfg.family})),
        _write(out / "froese_fourier_zeros.txt",
               cmp.fourier_set.to_text({"kind": "fourier-pair zeros",
                                        "family": cfg.family})),
    ]
    return written


def _run_dickson_check(cfg: ExperimentConfig, out: Path) -> list[Path]:
    f = two_cosine_model()
    g = dickson_geometry(f)
    alpha0 = recommended_alpha0(f)
    H = recommended_H(f, alpha0)
    zs = locate_zeros(f, cfg.rectangle(), cfg.root_tol)
    exceptions = containment_exceptions(g, zs, H, r_min=1.0)

    small = sum(1 for z, _ in zs if abs(z) <= 1.0)
    lines = [f"# strip membership at H = {_g(H)}",
             f"# zeros of modulus <= 1 (not classified): {small}",
             "# columns: re im side strip"]
    for z, _ in zs:
        if abs(z) <= 1.0:
            continue
        hit = strip_membership(g, z, H)
        k, j = hit if hit is not None else (-1, -1)
        lines.append(f"{_g(z.real)} {_g(z.imag)} {k:d} {j:d}")
    membership = _write(out / "dickson_membership.txt",
                        "\n".join(lines) + "\n")

    exc_lines = [f"# zeros of modulus > 1 outside every strip: "
                 f"{len(exceptions)}", "# columns: re im"]
    exc_lines += [f"{_g(z.real)} {_g(z.imag)}" for z in exceptions]
    exc_path = _write(out / "dickson_exceptions.txt",
                      "\n".join(exc_lines) + "\n")

    s = np.pi / 2.0
    alpha_start = 20.0 * np.pi
    win_lines = [
        f"# window counts along strip (0, 0), s = {_g(s)}, H = {_g(H)}, "
        f"alpha floor = {_g(alpha0)}",
        "# columns: alpha count bound_ok",
    ]
    for t in range(20):
        alpha = alpha_start + t * s
        res = curvilinear_count(f, g, 0, 0, alpha, s, H, alpha_floor=alpha0)
        win_lines.append(f"{_g(alpha)} {res.count:d} {int(bool(res.bound_ok))}")
    windows = _write(out / "dickson_windows.txt", "\n".join(win_lines) + "\n")
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
    z1, prefactor = mirrored_reconstruction(f, cfg.rectangle(), cfg.root_tol)
    c, m, kappa = prefactor
    product = build_product(z1, cfg.radius, c, m, kappa)

    grid = cfg.grid()
    targets = f(grid.astype(complex))
    values = (eval_product(product, grid)
              * tail_factor(grid, v.support_length, cfg.radius))
    lines = ["# truncated-product reconstruction on the real axis",
             f"# prefactor: c = {_g(c.real)} + {_g(c.imag)}i, m = {m:d}, "
             f"kappa = {_g(kappa)}",
             f"# tail factor: exp(-2 L x^2 / (pi R)), "
             f"L = {_g(v.support_length)}",
             f"# truncation radius: {_g(cfg.radius)}; retained zeros: "
             f"{product.zeros.total_multiplicity()}",
             "# columns: x recon_re recon_im target_re target_im abs_err"]
    for x, val, t in zip(grid, values, targets):
        lines.append(" ".join(_g(u) for u in (
            x, val.real, val.imag, t.real, t.imag, abs(val - t))))
    recon = _write(out / "reconstruction.txt", "\n".join(lines) + "\n")

    probe = complex(0.5 * (cfg.grid_start + cfg.grid_stop))
    curve = convergence_curve(z1, prefactor, probe,
                              _convergence_radii(z1, cfg.radius))
    conv_lines = [f"# pointwise convergence at z = {_g(probe.real)}",
                  "# columns: radius value_re value_im"]
    for r, val in zip(curve.radii, curve.values):
        conv_lines.append(f"{_g(r)} {_g(val.real)} {_g(val.imag)}")
    conv = _write(out / "convergence.txt", "\n".join(conv_lines) + "\n")

    zfile = _write(out / "reconstruct_zeros.txt",
                   z1.to_text({"kind": "fourier-pair zeros, mirrored",
                               "family": cfg.family}))
    return [recon, conv, zfile]


def _run_stability(cfg: ExperimentConfig, out: Path) -> list[Path]:
    deltas = tuple(cfg.deltas)
    if 0.0 not in deltas:
        deltas = deltas + (0.0,)  # reference row
    table = stability_experiment(
        cfg.potential(), cfg.rectangle(), deltas, cfg.radius, cfg.grid(),
        K=cfg.strip_height, mode=cfg.perturb_mode, seed=cfg.seed,
        scan_tol=cfg.root_tol, quad_rtol=cfg.quad_rtol)
    written = [
        _write(out / "stability.txt", table.to_text()),
        _write(out / "stability_zeros.txt",
               table.base_zeros.to_text({"kind": "fourier-pair zeros, "
                                         "mirrored", "family": cfg.family})),
    ]
    written += emit_plot_data(table, out, "stability")
    return written


def _run_scatter_matrix(cfg: ExperimentConfig, out: Path) -> list[Path]:
    v = cfg.potential()
    lines = ["# scattering matrix on the real momentum grid",
             "# columns: k t_re t_im r_re r_im l_re l_im unitarity_defect"]
    for k in cfg.grid():
        try:
            sm = scattering_matrix(v, float(k), rtol=cfg.ode_rtol,
                                   atol=cfg.ode_atol)
        except ValueError as exc:  # a rejected momentum keeps its row
            lines.append(f"# failed: {exc}")
            continue
        lines.append(" ".join(_g(x) for x in (
            k, sm.t.real, sm.t.imag, sm.r_right.real, sm.r_right.imag,
            sm.l_left.real, sm.l_left.imag, sm.unitarity_defect)))
    return [_write(out / "scatter_matrix.txt", "\n".join(lines) + "\n")]


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

    manifest = ["# resonlab run manifest",
                f"subcommand: {name}",
                f"versions: {_versions()}",
                "artifacts:"]
    manifest += [f"  {p.name}" for p in sorted(artifacts)]
    manifest += ["timing: see timing.log", "config: |"]
    manifest += [f"  {line}" for line in config.to_text().splitlines()]
    _write(out / "manifest.txt", "\n".join(manifest) + "\n")
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
