"""Config round trips, subcommand runners, and the plot-data emitter."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonlab import ZeroSet
from resonlab.cli import (ExperimentConfig, SUBCOMMANDS, emit_plot_data,
                          main, run_subcommand)
from resonlab.hadamard import StabilityRow, StabilityTable


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


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


@settings(max_examples=25, deadline=None)
@given(re_min=finite, radius=finite, quad_rtol=finite,
       deltas=st.lists(finite, min_size=1, max_size=5),
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


# --------------------------------------------------------------- plotting

def test_emit_zero_set_one_row_per_zero(tmp_path):
    zs = ZeroSet.from_pairs([(1 + 1j, 1), (2 - 1j, 1), (3.0, 2),
                             (-4 + 0.5j, 1), (5j, 1)], resolution=0.0)
    paths = emit_plot_data(zs, tmp_path, "scan")
    assert [p.name for p in paths] == ["scan_zeros.dat"]
    rows = [l for l in paths[0].read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 5


def test_emit_empty_zero_set_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        emit_plot_data(ZeroSet(()), tmp_path)


def test_emit_stability_columns_sorted(tmp_path):
    rows = tuple(StabilityRow(d, s, 0, 10 * s, 5.0, 1.0, 7)
                 for d, s in ((1e-1, 0.3), (1e-2, 0.03), (1e-3, 0.003)))
    rows += (StabilityRow(1.0, float("nan"), None, float("nan"), 5.0, 1.0, 7,
                          error="boom"),)
    table = StabilityTable(rows, ZeroSet(()), (1.0, 0, 0.0))
    paths = emit_plot_data(table, tmp_path, "st")
    assert [p.name for p in paths] == ["st_delta_sup.dat",
                                       "st_delta_zerodist.dat"]
    body = [l.split() for l in paths[0].read_text().splitlines()
            if not l.startswith("#")]
    assert [float(r[0]) for r in body] == [1e-1, 1e-2, 1e-3]  # failed row out
    assert [float(r[1]) for r in body] == [0.3, 0.03, 0.003]


def test_emit_all_failed_rows_is_an_error(tmp_path):
    row = StabilityRow(0.1, float("nan"), None, float("nan"), 5.0, 1.0, 7,
                       error="boom")
    with pytest.raises(ValueError, match="nothing to plot"):
        emit_plot_data(StabilityTable((row,), ZeroSet(()), (1.0, 0, 0.0)),
                       tmp_path)


def test_emit_rejects_unplottable_type(tmp_path):
    with pytest.raises(TypeError):
        emit_plot_data({"delta": 0.1}, tmp_path)


# --------------------------------------------------------------- runners

def test_resonances_zero_potential_empty_file(tmp_path):
    cfg = ExperimentConfig(family="zero", out_dir=str(tmp_path))
    assert run_subcommand("resonances", cfg) == 0
    zs, meta = ZeroSet.from_text((tmp_path / "resonances.txt").read_text())
    assert len(zs) == 0
    assert meta["kind"] == "resonances"
    assert (tmp_path / "manifest.txt").exists()
    assert (tmp_path / "timing.log").exists()
    assert not (tmp_path / "resonances_zeros.dat").exists()


def test_fourier_zeros_conjugate_pairs(tmp_path):
    cfg = ExperimentConfig(im_min=-3.0, im_max=3.0, out_dir=str(tmp_path))
    assert run_subcommand("fourier-zeros", cfg) == 0
    zs, _ = ZeroSet.from_text((tmp_path / "fourier_zeros.txt").read_text())
    locs = zs.locations()
    assert len(zs) == 6
    for z in locs:
        assert np.min(np.abs(locs - np.conj(z))) < 1e-7
    scatter = (tmp_path / "fourier_zeros_zeros.dat").read_text()
    assert len([l for l in scatter.splitlines()
                if not l.startswith("#")]) == 6


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
