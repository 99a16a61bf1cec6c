"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single PASS/FAIL line (visible under -s, or in the
captured output on failure) and asserts the same condition, so the suite
doubles as a printable scorecard.
"""

import math

import numpy as np
import pytest

from resonlab import (ExperimentConfig, Rectangle, ZeroSet,
                      containment_exceptions, convergence_curve,
                      conj_symmetry_residual, count_difference,
                      curvilinear_count, dickson_geometry, froese_compare,
                      asymptotic_residual, load_table, locate_zeros,
                      make_poly_bump, make_truncated_gaussian,
                      match_zero_sets, recommended_H, recommended_alpha0,
                      scattering_matrix, stability_experiment,
                      two_cosine_model, wind_count, xhat_function)
from resonlab.cli import main


def _report(num: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:>2} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def _zero_potential():
    xs = np.linspace(0.0, 1.0, 5)
    return load_table(np.column_stack([xs, np.zeros_like(xs)]))


# 1 ---------------------------------------------------------------- free field

def test_acceptance_01_free_field_exactness():
    v = _zero_potential()
    rng = np.random.default_rng(101)
    ks = rng.uniform(-10.0, 10.0, 160) + 1j * rng.uniform(-5.0, 5.0, 160)
    ks = ks[np.abs(ks) > 0.05][:100]
    assert ks.size == 100
    xh = xhat_function(v)(ks)
    field_ok = bool(np.all(np.abs(xh - 1j * ks) <= 1e-12 * np.abs(ks)))

    matrix_ok = True
    for k in rng.uniform(0.3, 15.0, 8):
        sm = scattering_matrix(v, float(k))
        matrix_ok &= abs(sm.t - 1.0) <= 1e-12
        matrix_ok &= abs(sm.r_right) <= 1e-12 and abs(sm.l_left) <= 1e-12
    assert _report(1, "free-field exactness", field_ok and matrix_ok)


# 2 ---------------------------------------------------------- conjugate symmetry

def test_acceptance_02_conjugate_symmetry():
    rng = np.random.default_rng(202)
    ks = rng.uniform(-20.0, 20.0, 100)
    worst = 0.0
    for v in (make_poly_bump(), make_truncated_gaussian(sharp_edge=True),
              make_truncated_gaussian(sharp_edge=False)):
        worst = max(worst, max(conj_symmetry_residual(v, k) for k in ks))
    assert _report(2, f"conjugate symmetry (max residual {worst:.2e})",
                   worst <= 1e-10)


# 3 ------------------------------------------------------------ winding oracle

def _corpus():
    two_cos = two_cosine_model()
    root = math.acos(-0.25) / 2.0
    sq3 = math.sqrt(3.0)
    return [
        ("z", lambda z: z, Rectangle(-1, 1, -1, 1), [(0j, 1)]),
        ("z^2", lambda z: z ** 2, Rectangle(-1, 1, -1, 1), [(0j, 2)]),
        ("z^3", lambda z: z ** 3, Rectangle(-1, 1, -1, 1), [(0j, 3)]),
        ("shifted quadratic", lambda z: (z - 0.3) * (z + 0.7j),
         Rectangle(-1, 1, -1, 1), [(0.3 + 0j, 1), (-0.7j, 1)]),
        ("double root", lambda z: (z - 1.5) ** 2,
         Rectangle(0.5, 2.5, -1, 1), [(1.5 + 0j, 2)]),
        ("cos", np.cos, Rectangle(-2, 2, -1, 1),
         [(-np.pi / 2 + 0j, 1), (np.pi / 2 + 0j, 1)]),
        ("sin", np.sin, Rectangle(-4, 4, -1, 1),
         [(-np.pi + 0j, 1), (0j, 1), (np.pi + 0j, 1)]),
        ("2cos(2z)+1/2", two_cos, Rectangle(-2, 2, -1, 1),
         [(-root + 0j, 1), (root + 0j, 1)]),
        ("exp", np.exp, Rectangle(-1, 1, -1, 1), []),
        ("z exp(z)", lambda z: z * np.exp(z), Rectangle(-1, 1, -1, 1),
         [(0j, 1)]),
        ("cubic", lambda z: z ** 3 - 3.0 * z, Rectangle(-2.5, 2.5, -1, 1),
         [(-sq3 + 0j, 1), (0j, 1), (sq3 + 0j, 1)]),
        ("(z^2+1)(z-2)", lambda z: (z ** 2 + 1.0) * (z - 2.0),
         Rectangle(-3, 3, -2, 2), [(1j, 1), (-1j, 1), (2.0 + 0j, 1)]),
    ]


def test_acceptance_03_winding_oracle_equivalence():
    corpus = _corpus()
    assert len(corpus) >= 10
    ok = True
    for name, f, rect, known in corpus:
        want = ZeroSet.from_pairs(known, resolution=0.0)
        counts_match = wind_count(f, rect) == want.total_multiplicity()
        zs = locate_zeros(f, rect, 1e-12)
        if len(want) == 0:
            located_match = len(zs) == 0
        else:
            located_match = (
                zs.total_multiplicity() == want.total_multiplicity()
                and match_zero_sets(zs, want).sup_distance <= 1e-10)
        if not (counts_match and located_match):
            print(f"  corpus entry failed: {name}")
            ok = False
    assert _report(3, f"winding oracle on {len(corpus)} functions", ok)


# 4 ------------------------------------------------------------- tail residual

def test_acceptance_04_transform_tail_residual():
    v = make_poly_bump()
    zs = (50.0, 100.0, 200.0, 400.0)
    res = [asymptotic_residual(v, z) for z in zs]
    # measured z*residual tops out near 0.058; 0.1 is the recorded bound
    bounded = all(z * r <= 0.1 for z, r in zip(zs, res))
    decreasing = all(b < a for a, b in zip(res, res[1:]))
    assert _report(4, "squared-transform tail residual", bounded and decreasing)


# 5 --------------------------------------------------------- zero-strip bound

def test_acceptance_05_strip_containment_and_window_bound():
    f = two_cosine_model()
    g = dickson_geometry(f)
    alpha0 = recommended_alpha0(f)
    H = recommended_H(f, alpha0)

    zs = locate_zeros(f, Rectangle(-8.0, 8.0, -2.0, 2.0), 1e-10)
    contained = containment_exceptions(g, zs, H, r_min=1.0) == []

    strip = g.sides[0].strips[0]
    s = np.pi / 2.0
    expected = s * abs(strip.delta_omega) / (2.0 * np.pi)
    windows_ok = True
    alpha = 20.0 * np.pi                      # >= alpha0 = 60
    assert alpha >= alpha0
    for _ in range(20):
        res = curvilinear_count(f, g, 0, 0, alpha, s, H, alpha_floor=alpha0)
        windows_ok &= bool(res.bound_ok)
        windows_ok &= abs(res.count - expected) < 1.5
        alpha += s
    assert _report(5, "zero-strip containment and window count bound",
                   contained and windows_ok)


# 6 --------------------------------------------------------- resonance pairing

@pytest.fixture(scope="module")
def froese_run():
    v = make_truncated_gaussian(sharp_edge=True)
    return froese_compare(v, Rectangle(0.5, 72.0, -11.0, -0.05), 1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "for a compactly supported potential the resonance curve dives like "
    "(2/L) log|k| below the transform-zero line, so the absolute pair "
    "distances grow with |k|; the relative distances and the counting "
    "functions carry the correspondence (companion test)"))
def test_acceptance_06_pair_distance_trend(froese_run):
    cmp = froese_run
    assert len(cmp.pairs) >= 20
    ok = cmp.median_last_third < cmp.median_first_third
    _report(6, f"absolute pair-distance trend "
               f"({cmp.median_first_third:.3g} -> {cmp.median_last_third:.3g})",
            ok)
    assert ok


def test_acceptance_06_companion_relative_trend(froese_run):
    cmp = froese_run
    counting_ok = len(cmp.resonance_set) == len(cmp.fourier_set)
    relative_ok = (cmp.relative_median_last_third
                   < cmp.relative_median_first_third)
    assert _report(
        6, f"relative pair-distance trend "
           f"({cmp.relative_median_first_third:.3g} -> "
           f"{cmp.relative_median_last_third:.3g}) and counting agreement",
        counting_ok and relative_ok)


# 7 -------------------------------------------------------- product convergence

def test_acceptance_07_product_convergence():
    zeros = ZeroSet.from_pairs(
        [(float(n), 1) for n in range(1, 211)]
        + [(-float(n), 1) for n in range(1, 211)], resolution=0.0)
    curve = convergence_curve(zeros, 1.0, 0.5,
                              (25.0, 50.0, 100.0, 200.0))
    errs = [abs(val - 2.0 / np.pi) for val in curve.values]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    assert _report(7, f"product convergence to 2/pi (final error {errs[-1]:.2e})",
                   decreasing and errs[-1] <= 1e-2)


# 8 ---------------------------------------------------------- contour integers

def test_acceptance_08_contour_count_integrality():
    rng = np.random.default_rng(880)
    R, K = 8.0, 2.0
    box = Rectangle(0.0, R, -K, K)

    def draw(n):
        pts = rng.uniform(0.5, 7.4, n) + 1j * rng.uniform(-1.8, 1.8, n)
        return ZeroSet.from_pairs([(complex(z), 1) for z in pts],
                                  resolution=0.0)

    def inside(zs):
        a = zs.locations(expand=True)
        return int(np.count_nonzero(
            (np.abs(a) < R) & (a.real > box.re_min) & (a.real < box.re_max)
            & (a.imag > box.im_min) & (a.imag < box.im_max)))

    mismatches = 0
    crossings = 0
    for _ in range(50):
        z1 = draw(int(rng.integers(3, 12)))
        z2 = draw(int(rng.integers(3, 12)))
        n = count_difference(z1, z2, R, K)
        if type(n) is not int or n != inside(z1) - inside(z2):
            mismatches += 1

        # shift z1 rigidly by less than its gap to the contour and |z| = R
        locs = z1.locations(expand=True)
        gap = min(min(_interior_gap(complex(z), box) for z in locs),
                  float(np.min(R - np.abs(locs))))
        step = 0.4 * gap * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        z1s = ZeroSet.from_pairs([(complex(z + step), 1) for z in locs],
                                 resolution=0.0)
        if count_difference(z1, z1s, R, K) != 0:
            crossings += 1
    assert _report(8, f"contour counts exact integers "
                      f"({mismatches} mismatches against a point count, "
                      f"{crossings} spurious crossings)",
                   mismatches == 0 and crossings == 0)


def _interior_gap(z, box):
    # distance from an interior point to the contour: min edge distance
    return min(z.real - box.re_min, box.re_max - z.real,
               z.imag - box.im_min, box.im_max - z.imag)


# 9 ------------------------------------------------------------ stability curve

def test_acceptance_09_stability_curve():
    v = make_poly_bump()
    table = stability_experiment(
        v, Rectangle(0.5, 15.8, -4.5, 4.5), (1e-1, 1e-2, 1e-3), 16.0,
        np.linspace(0.0, 10.0, 200), K=1.0, seed=20260817)

    moduli = np.sort(np.abs(table.base_zeros.locations(expand=True)))
    radius_ok = moduli.size >= 15 and 16.0 >= moduli[14]
    sups = [r.sup_diff for r in table.rows]
    clean = all(r.error is None for r in table.rows)
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    # regression baselines from the first validated run:
    #   1.00e-2, 1.03e-3, 1.04e-4 at delta = 1e-1, 1e-2, 1e-3
    assert _report(9, f"stability curve (sup at 1e-3: {sups[-1]:.2e})",
                   radius_ok and clean and decreasing and sups[-1] < 1e-2)


# 10 ----------------------------------------------------------------- determinism

def test_acceptance_10_determinism(tmp_path):
    cfg = tmp_path / "stability.ini"
    cfg.write_text("[grid]\ngrid_points = 41\n[run]\nseed = 11\n"
                   f"out_dir = {tmp_path / 'out'}\n")

    def run_and_snapshot():
        assert main(["stability", "--config", str(cfg)]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
                if p.name != "timing.log"}

    first = run_and_snapshot()
    second = run_and_snapshot()
    assert _report(10, "byte-identical rerun", first == second and first)
