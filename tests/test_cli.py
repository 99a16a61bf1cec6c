"""Config round trips, subcommand runners, and the command line."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonlab
from resonlab import ZeroSet
from resonlab.cli import ExperimentConfig, main, run_subcommand


# --------------------------------------------------------------- config

def test_defaults_from_empty_text():
    assert ExperimentConfig.from_text("") == ExperimentConfig()


def test_partial_text_keeps_other_defaults():
    cfg = ExperimentConfig.from_text("[grid]\ngrid_points = 11\n")
    assert cfg.grid_points == 11
    assert cfg.family == "poly-bump"
    assert cfg.deltas == (1e-1, 1e-2, 1e-3)


def test_round_trip_defaults():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


# a tolerance or a radius must be finite and > 0; subnormals included
positive = st.floats(allow_nan=False, allow_infinity=False,
                     min_value=0.0, max_value=1e12, exclude_min=True)
# re_min stays below the default re_max, and each delta is >= 0
below_re_max = st.floats(allow_nan=False, min_value=-1e12,
                         max_value=ExperimentConfig.re_max, exclude_max=True)
nonnegative = st.floats(allow_nan=False, min_value=0.0, max_value=1e12)


@settings(max_examples=25, deadline=None)
@given(re_min=below_re_max, radius=positive, quad_rtol=positive,
       deltas=st.lists(nonnegative, min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=2**31),
       grid_points=st.integers(min_value=1, max_value=10**6))
def test_round_trip_is_lossless(re_min, radius, quad_rtol, deltas, seed,
                                grid_points):
    # repr-serialized floats must survive the text round trip bit for bit
    cfg = ExperimentConfig(re_min=re_min, radius=radius, quad_rtol=quad_rtol,
                           deltas=tuple(deltas), seed=seed,
                           grid_points=grid_points)
    back = ExperimentConfig.from_text(cfg.to_text())
    assert back == cfg


def test_inline_comments_stripped():
    cfg = ExperimentConfig.from_text(
        "[potential]\nfamily = zero   ; the trivial case\n"
        "[grid]\ngrid_points = 7  # coarse\n")
    assert cfg.family == "zero"
    assert cfg.grid_points == 7


def test_unknown_section_named_in_error():
    with pytest.raises(ValueError, match=r"\[turbulence\]"):
        ExperimentConfig.from_text("[turbulence]\nx = 1\n")


def test_unknown_key_named_with_section():
    with pytest.raises(ValueError, match=r"'colour'.*\[grid\]"):
        ExperimentConfig.from_text("[grid]\ncolour = red\n")


def test_bad_value_diagnostic_names_field():
    with pytest.raises(ValueError, match=r"\[grid\] grid_points: 'many'"):
        ExperimentConfig.from_text("[grid]\ngrid_points = many\n")


def test_malformed_ini_reported_as_parse_error():
    with pytest.raises(ValueError, match="config parse error"):
        ExperimentConfig.from_text("grid_points = 3\n")  # key before section


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown potential family"):
        ExperimentConfig.from_text("[potential]\nfamily = delta-comb\n")


def test_load_reports_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read config"):
        ExperimentConfig.load(tmp_path / "absent.ini")


def test_potential_factory_covers_families(tmp_path):
    for family in ("poly-bump", "gaussian-sharp", "gaussian-smooth", "zero"):
        v = ExperimentConfig(family=family).potential()
        assert v.support_length == 1.0
    xs = np.linspace(0.0, 1.0, 6)
    table = tmp_path / "v.dat"
    np.savetxt(table, np.column_stack([xs, 1.0 + xs]))
    v = ExperimentConfig(family="table", table_path=str(table)).potential()
    assert v(0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="table_path"):
        ExperimentConfig(family="table").potential()


def test_zero_family_is_identically_zero():
    v = ExperimentConfig(family="zero").potential()
    assert np.all(v(np.linspace(0.0, 1.0, 17)) == 0.0)


# --------------------------------------------------------------- runners

def test_resonances_zero_potential_empty_file(tmp_path):
    cfg = ExperimentConfig(family="zero", out_dir=str(tmp_path))
    assert run_subcommand("resonances", cfg) == 0
    zs, meta = ZeroSet.from_text((tmp_path / "resonances.txt").read_text())
    assert len(zs) == 0
    assert meta["kind"] == "resonances"
    assert (tmp_path / "manifest.txt").exists()
    assert (tmp_path / "timing.log").exists()


def test_fourier_zeros_conjugate_pairs(tmp_path):
    cfg = ExperimentConfig(im_min=-3.0, im_max=3.0, out_dir=str(tmp_path))
    assert run_subcommand("fourier-zeros", cfg) == 0
    zs, _ = ZeroSet.from_text((tmp_path / "fourier_zeros.txt").read_text())
    locs = zs.locations()
    assert len(zs) == 6
    for z in locs:
        assert np.min(np.abs(locs - np.conj(z))) < 1e-7


def test_stability_appends_reference_row(tmp_path):
    cfg = ExperimentConfig(grid_points=41, out_dir=str(tmp_path))
    assert run_subcommand("stability", cfg) == 0
    lines = (tmp_path / "stability.txt").read_text().splitlines()
    assert lines[0] == "delta,sup_diff,n_diff,zero_sup_distance,R,K,grid_size"
    body = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(body) == 4  # three requested deltas plus the 0 reference
    deltas = [float(l.split(",")[0]) for l in body]
    assert deltas == [1e-1, 1e-2, 1e-3, 0.0]
    assert float(body[-1].split(",")[1]) == 0.0


def test_dickson_check_windows_and_exceptions(tmp_path):
    cfg = ExperimentConfig(re_min=-8.0, re_max=8.0, im_min=-2.0, im_max=2.0,
                           out_dir=str(tmp_path))
    assert run_subcommand("dickson-check", cfg) == 0
    windows = [l.split() for l in
               (tmp_path / "dickson_windows.txt").read_text().splitlines()
               if not l.startswith("#")]
    assert len(windows) == 20
    assert all(int(w[2]) == 1 for w in windows)  # bound holds every window
    exc = (tmp_path / "dickson_exceptions.txt").read_text()
    assert "outside every strip: 0" in exc


def test_scatter_matrix_grid_and_unitarity(tmp_path):
    cfg = ExperimentConfig(grid_start=0.5, grid_stop=4.5, grid_points=9,
                           out_dir=str(tmp_path))
    assert run_subcommand("scatter-matrix", cfg) == 0
    rows = [l.split() for l in
            (tmp_path / "scatter_matrix.txt").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 9
    assert all(float(r[7]) < 1e-8 for r in rows)


def test_scatter_matrix_default_grid_records_failed_row(tmp_path):
    # the default grid starts at k = 0, which scattering_matrix rejects
    cfg = ExperimentConfig(out_dir=str(tmp_path))
    assert run_subcommand("scatter-matrix", cfg) == 0
    lines = (tmp_path / "scatter_matrix.txt").read_text().splitlines()
    failed = [l for l in lines if l.startswith("# failed:")]
    assert failed == [
        "# failed: k = 0: the transmission coefficient divides by ik"]
    assert len([l for l in lines if not l.startswith("#")]) == 200


def test_stability_honors_quad_rtol(tmp_path):
    # stability and reconstruct scan the same F, so at any quad_rtol they
    # must write the same zeros
    cfg = ExperimentConfig(quad_rtol=1e-5, grid_points=21)
    zero_rows = {}
    for name in ("reconstruct", "stability"):
        out = tmp_path / name
        assert run_subcommand(name, replace(cfg, out_dir=str(out))) == 0
        text = (out / f"{name}_zeros.txt").read_text()
        zero_rows[name] = [l for l in text.splitlines()
                           if not l.startswith("#")]
    assert zero_rows["reconstruct"]
    assert zero_rows["stability"] == zero_rows["reconstruct"]


def test_reconstruction_converges_with_the_radius(tmp_path):
    # sup |P_R(x) - F(x)| / F(0) over the default grid [0, 10], scanning
    # [0.5, R - 0.5] x i[-5.5, 5.5] on the default poly-bump
    errs = []
    for R in (12.5, 25.0, 48.0):
        out = tmp_path / f"R{R:g}"
        cfg = ExperimentConfig(re_max=R - 0.5, im_min=-5.5, im_max=5.5,
                               radius=R, out_dir=str(out))
        assert run_subcommand("reconstruct", cfg) == 0
        rows = np.loadtxt(out / "reconstruction.txt")
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 10.0
        errs.append(np.max(rows[:, 5]) / rows[0, 3])
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_convergence_rows_each_retain_more_zeros(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path))
    assert run_subcommand("reconstruct", cfg) == 0
    rows = np.loadtxt(tmp_path / "convergence.txt", ndmin=2)
    zeros = np.loadtxt(tmp_path / "reconstruct_zeros.txt", ndmin=2)
    moduli = np.hypot(zeros[:, 0], zeros[:, 1])
    kept = [int(np.sum(zeros[moduli < r, 2])) for r in rows[:, 0]]
    assert len(rows) >= 3 and rows[-1, 0] == cfg.radius
    assert all(a < b for a, b in zip(kept, kept[1:]))
    values = [tuple(r[1:]) for r in rows]
    assert len(set(values)) == len(values)


def test_unknown_subcommand_name_rejected():
    with pytest.raises(ValueError, match="unknown subcommand"):
        run_subcommand("transmogrify", ExperimentConfig())


def test_runner_artifacts_listed_in_manifest(tmp_path):
    cfg = ExperimentConfig(family="zero", out_dir=str(tmp_path))
    run_subcommand("resonances", cfg)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "resonances.txt" in manifest
    assert "timing" not in manifest.split("timing: see timing.log")[0]
    assert "[potential]" in manifest  # config echo included


def test_stability_rerun_byte_identical(tmp_path):
    cfg = ExperimentConfig(grid_points=31, seed=11, out_dir=str(tmp_path))
    run_subcommand("stability", cfg)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()
             if p.name != "timing.log"}
    run_subcommand("stability", cfg)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()
              if p.name != "timing.log"}
    assert first == second


# --------------------------------------------------------------- main()

def test_main_unknown_subcommand_usage(capsys):
    rc = main(["transmogrify", "--config", "x.ini"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "transmogrify" in err


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "resonlab" in capsys.readouterr().out


def test_main_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["resonances", "--config", str(tmp_path / "none.ini")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_main_bad_config_field_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\ngrid_points = soon\n")
    rc = main(["resonances", "--config", str(path)])
    assert rc == 2
    assert "grid_points" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("[reconstruction]\nperturb_mode = uniform\n", "perturb_mode"),
    ("[tolerances]\nroot_tol = 0\n", "root_tol"),
    ("[reconstruction]\nstrip_height = -1\n", "strip_height"),
    ("[reconstruction]\nstrip_height = nan\n", "strip_height"),
    ("[tolerances]\node_atol = nan\n", "ode_atol"),
    ("[tolerances]\node_rtol = nan\n", "ode_rtol"),
    ("[tolerances]\nquad_rtol = inf\n", "quad_rtol"),
    ("[grid]\ngrid_points = 0\n", "grid_points"),
    ("[rectangle]\nre_min = 12\nre_max = 0.5\n", "re_min"),
    ("[rectangle]\nim_min = 4\nim_max = 4\n", "im_min"),
    ("[rectangle]\nre_max = inf\n", "re_max"),
    ("[grid]\ngrid_start = nan\n", "grid_start"),
    ("[potential]\nsupport_length = -1\n", "support_length"),
    ("[reconstruction]\nradius = -1\n", "radius"),
    ("[reconstruction]\ndeltas = 0.1 -0.01\n", "deltas"),
], ids=["unknown-perturb-mode", "zero-root-tol", "negative-strip-height",
        "nan-strip-height", "nan-ode-atol", "nan-ode-rtol", "inf-quad-rtol",
        "no-grid-points", "inverted-rectangle", "flat-rectangle",
        "inf-rectangle-bound", "nan-grid-start",
        "negative-support-length", "negative-radius", "negative-delta"])
def test_main_rejects_a_value_that_would_break_the_run(tmp_path, capsys,
                                                       text, key):
    # an unknown perturb_mode or a strip_height that is not > 0 fails every
    # stability row, a Newton step can never be accepted at root_tol = 0,
    # DOP853 accepts no step at a NaN ODE tolerance or a NaN momentum (a
    # NaN grid end), and quad_rtol = inf or an infinite rectangle bound
    # ends in an error that does not name it; the grid, rectangle,
    # support, radius and delta values stop a pipeline only once it reaches
    # them (and scatter-matrix never reads the rectangle)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "artifacts"
    rc = main(["stability", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_main_runs_and_honors_out_and_seed(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[potential]\nfamily = zero\n")
    out = tmp_path / "artifacts"
    rc = main(["resonances", "--config", str(path), "--out", str(out),
               "--seed", "5"])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 5" in manifest
    assert (out / "resonances.txt").exists()


def test_main_runs_every_pipeline_on_the_default_config(tmp_path):
    # scatter-matrix has its own default-config test above
    path = tmp_path / "empty.ini"
    path.write_text("")
    for name in ("resonances", "fourier-zeros", "froese", "dickson-check",
                 "reconstruct", "stability"):
        out = tmp_path / name
        assert main([name, "--config", str(path), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        listed = manifest.split("artifacts:\n")[1].split("timing:")[0]
        written = {p.name for p in out.iterdir()} - {"manifest.txt",
                                                      "timing.log"}
        assert written and sorted(listed.split()) == sorted(written)


def test_main_pipeline_error_reports_module(tmp_path, capsys):
    path = tmp_path / "c.ini"
    # a mirrored reconstruction needs a scan at positive real parts
    path.write_text("[rectangle]\nre_min = -1.0\n")
    rc = main(["reconstruct", "--config", str(path), "--out",
               str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "reconstruct failed" in err
    assert "module:" in err
    assert "positive real parts" in err


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(resonlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name", ["fourier-zeros", "reconstruct", "stability"])
def test_main_names_an_identically_zero_f(tmp_path, capsys, name):
    # F of the zero potential is 0 everywhere, so no winding number exists;
    # the error must say so rather than quote a floor of 0 * 0
    path = tmp_path / "c.ini"
    path.write_text("[potential]\nfamily = zero\n")
    rc = main([name, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "f is 0 at every one of its 64 boundary samples" in err
    assert "below floor" not in err


def test_python_dash_m_resonlab_runs_a_pipeline(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    out = tmp_path / "r"
    proc = subprocess.run(
        [sys.executable, "-m", "resonlab", "reconstruct", "--config",
         str(path), "--out", str(out)],
        capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (out / "reconstruction.txt").stat().st_size > 0


_COLD_IMPORTS = """
import sys
from dataclasses import replace

import resonlab
bare = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not bare, f"a bare import resonlab loaded {sorted(bare)}"
from resonlab.cli import ExperimentConfig, run_subcommand

cfg = ExperimentConfig(out_dir=sys.argv[1])
for family in ("poly-bump", "gaussian-sharp", "gaussian-smooth"):
    replace(cfg, family=family).potential()
run_subcommand("dickson-check", cfg)
run_subcommand("reconstruct", cfg)
loaded = [m for m in ("scipy.integrate", "scipy.interpolate", "scipy.linalg")
          if m in sys.modules]
assert not loaded, f"loaded before any DOP853 solve or table: {loaded}"
resonlab.scatter.spectral_resonances(resonlab.make_poly_bump(), "full")
assert "scipy.linalg" not in sys.modules, "the eigen-solve loaded scipy.linalg"

resonlab.jost_solve(resonlab.make_poly_bump(), 1.0)
assert "scipy.integrate" in sys.modules, "no DOP853 solve loaded scipy"
"""


def test_scipy_integrate_and_interpolate_load_on_first_use(tmp_path):
    # a fresh interpreter, since this one has imported every module already
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORTS, str(tmp_path)],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reconstruction.txt").stat().st_size > 0
