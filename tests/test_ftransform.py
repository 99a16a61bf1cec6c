import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from resonlab.ftransform import (
    asymptotic_residual, conj_symmetry_residual, erdelyi_expansion, fourier,
    fourier_many, fourier_pair, fourier_pair_many, indicator_estimate,
    pair_function,
)
from resonlab.potential import load_table, make_poly_bump, make_truncated_gaussian


def mp_transform(profile, z, length=1.0):
    """Direct high-precision oracle for the transform convention."""
    mpmath.mp.dps = 40
    return complex(mpmath.quad(
        lambda t: profile(t) * mpmath.exp(-1j * z * t), [0, length]))


def bump_profile(t):
    return (1 - t * t) ** 3


def gauss_profile(t):
    return mpmath.exp(-t * t)


BUMP = make_poly_bump(1.0)
GAUSS_SHARP = make_truncated_gaussian(1.0, sharp_edge=True)
GAUSS_SMOOTH = make_truncated_gaussian(1.0, sharp_edge=False)


def test_transform_at_zero_is_mass():
    ev = fourier(BUMP, 0.0)
    assert abs(ev.value - 16.0 / 35.0) < 1e-12


def test_transform_matches_oracle_direct_route():
    for z in [3.0, -17.5, 2.0 + 1.5j, -8.0 - 2.0j, 40.0 + 0.3j]:
        ev = fourier(BUMP, z)
        ref = mp_transform(bump_profile, z)
        assert abs(ev.value - ref) <= max(5.0 * ev.abs_error_estimate, 1e-13)


def test_transform_matches_oracle_boundary_route():
    for z in [80.0, -120.0, 200.0 + 1.0j]:
        ev = fourier(GAUSS_SHARP, z)
        ref = mp_transform(gauss_profile, z)
        assert abs(ev.value - ref) <= max(10.0 * ev.abs_error_estimate, 1e-12)


def test_routes_agree_near_switch():
    # both routes evaluate z just past the threshold consistently
    va, ea, _ = fourier_many(BUMP, [55.0 + 0.5j])
    ref = mp_transform(bump_profile, 55.0 + 0.5j)
    assert abs(va[0] - ref) <= max(10.0 * ea[0], 1e-13)


def smooth_gauss_profile(t):
    if t <= 0.5:
        return mpmath.exp(-t * t)
    s = 2 * (t - 0.5)
    return mpmath.exp(-t * t) * (1 - s ** 3 * (10 - 15 * s + 6 * s * s))


def mp_spline_transform(spline, z):
    """Exact transform of a cubic spline, integrated by parts in mpmath."""
    mpmath.mp.dps = 50
    d = -1j * mpmath.mpc(z)
    total = mpmath.mpc(0)
    for i in range(spline.c.shape[1]):
        x0 = mpmath.mpf(spline.x[i])
        h = mpmath.mpf(spline.x[i + 1]) - x0
        edge = mpmath.exp(d * h)
        moment = (edge - 1) / d  # integral_0^h s^k e^{d s} ds, k = 0
        piece = mpmath.mpf(spline.c[3, i]) * moment
        for k in (1, 2, 3):
            moment = (h ** k * edge - k * moment) / d
            piece += mpmath.mpf(spline.c[3 - k, i]) * moment
        total += mpmath.exp(d * x0) * piece
    return complex(total)


# real and complex points on both sides of |Re z| = 50 L, where the
# transform once switched between two quadrature routes
ORACLE_POINTS = [0.3, 7.5, -31.0, 49.0, 2.0 + 1.5j, -8.0 - 2.0j, 40.0 + 3.0j,
                 51.0, -80.0, 120.0 + 1.0j, -150.0 + 4.0j, 75.0 - 10.0j,
                 -60.0 + 20.0j]


def test_transform_matches_mpmath_on_every_family():
    xs = np.linspace(0.0, 1.0, 65)
    samples = np.cos(3.0 * xs) * (1.0 - xs * xs)
    table = load_table(np.column_stack([xs, samples]), 1.0)
    spline = CubicSpline(xs, samples, bc_type="not-a-knot")
    cuts = mpmath.linspace(0, 1, 41)
    families = [
        (BUMP, lambda z: mp_transform(bump_profile, z)),
        (GAUSS_SHARP, lambda z: mp_transform(gauss_profile, z)),
        (GAUSS_SMOOTH, lambda z: complex(mpmath.quad(
            lambda t: smooth_gauss_profile(t) * mpmath.exp(-1j * z * t),
            cuts))),
        (table, lambda z: mp_spline_transform(spline, z)),
    ]
    for v, oracle in families:
        vals, errs, _ = fourier_many(v, ORACLE_POINTS)
        for z, val, err in zip(ORACLE_POINTS, vals, errs):
            scale = v.abs_moments[0] * math.exp(max(0.0, complex(z).imag))
            gap = abs(val - oracle(z))
            assert gap <= 1e-13 * scale, (v.kind, z, gap / scale)
            assert gap <= err, (v.kind, z, gap, err)


def test_pair_function_bits_do_not_depend_on_the_batch():
    # the froese rectangle [0.5, 72] x i[-11, -0.05] on the sharp Gaussian
    rng = np.random.default_rng(7)
    zs = rng.uniform(0.5, 72.0, 300) + 1j * rng.uniform(-11.0, -0.05, 300)
    f = pair_function(GAUSS_SHARP, 1e-12)
    batch = f(zs)
    alone = np.array([f(np.array([z]))[0] for z in zs])
    assert np.array_equal(alone, batch)
    shuffled = rng.permutation(300)
    assert np.array_equal(f(zs[shuffled]), batch[shuffled])
    assert np.array_equal(f(zs.reshape(20, 15)).ravel(), batch)


def test_zero_potential_transforms_to_zero():
    xs = np.linspace(0.0, 1.0, 9)
    vzero = load_table(np.column_stack([xs, np.zeros(9)]), 1.0)
    for z in [0.0, 5.0, 1.0 + 1.0j, 120.0]:
        ev = fourier(vzero, z)
        assert ev.value == 0.0


def test_pair_evenness():
    z = 1.3 + 0.4j
    a = fourier_pair(BUMP, z)
    b = fourier_pair(BUMP, -z)
    assert abs(a.value - b.value) < 1e-10


def test_pair_real_axis_nonnegative():
    for x in [0.0, 0.7, 2.3, 11.0]:
        f = fourier_pair(GAUSS_SMOOTH, x)
        assert abs(f.value.imag) < 1e-12
        assert f.value.real >= -1e-12


def test_pair_conjugation():
    z = 2.2 + 0.9j
    a = fourier_pair(GAUSS_SHARP, z)
    b = fourier_pair(GAUSS_SHARP, np.conj(z))
    assert abs(np.conj(b.value) - a.value) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
@example(5e-324)  # spherical_jn returns nan at subnormal arguments
def test_conj_symmetry_residual_small(k):
    assert conj_symmetry_residual(BUMP, k) < 1e-10


def test_conj_symmetry_all_families():
    ks = np.linspace(-19.7, 19.7, 21)
    for v in (BUMP, GAUSS_SHARP, GAUSS_SMOOTH):
        worst = max(conj_symmetry_residual(v, k) for k in ks)
        assert worst < 1e-10


def test_erdelyi_constant_profile_is_exact():
    xs = np.linspace(0.0, 1.0, 9)
    vone = load_table(np.column_stack([xs, np.ones(9)]), 1.0)
    for x in [7.0, -30.0, 112.0]:
        res = erdelyi_expansion(vone, x, 1)
        exact = (np.exp(1j * x) - 1.0) / (1j * x)
        assert abs(res.value - exact) < 1e-12
        assert res.remainder_bound < 1e-10


def test_erdelyi_first_order_gaussian():
    # B_1 carries the edge value e^{-1} with the e^{50i} phase
    res = erdelyi_expansion(GAUSS_SHARP, 50.0, 1)
    expected_upper = -1j * math.exp(-1.0) * np.exp(50.0j) / 50.0
    assert abs(res.upper_term - expected_upper) < 1e-14
    quad = mp_transform(gauss_profile, -50.0)  # integral of V e^{+50 i t}
    assert abs(quad - res.value) <= res.remainder_bound * 1.01


def test_erdelyi_second_order_bump():
    # V(0)=1, V'(0)=0 and a C2 right edge leave only the i/x term
    res = erdelyi_expansion(BUMP, 100.0, 2)
    assert abs(res.value - 1j / 100.0) < 1e-15
    quad = mp_transform(bump_profile, -100.0)
    assert abs(quad - res.value) <= res.remainder_bound * 1.01


def test_erdelyi_remainder_bound_holds_for_all_families():
    for v in (BUMP, GAUSS_SHARP, GAUSS_SMOOTH):
        for x in [50.0, -50.0, 75.0, 150.0]:
            for order in (1, 2):
                res = erdelyi_expansion(v, x, order)
                vals, errs, _ = fourier_many(v, [-x])
                assert abs(vals[0] - res.value) <= res.remainder_bound * 1.01 + errs[0]


def test_erdelyi_validation():
    with pytest.raises(ValueError):
        erdelyi_expansion(BUMP, 0.5, 1)
    with pytest.raises(ValueError):
        erdelyi_expansion(BUMP, 10.0, 3)


def test_asymptotic_residual_decays_for_normalized_potential():
    zs = [50.0, 100.0, 200.0, 400.0]
    residuals = [asymptotic_residual(BUMP, z) for z in zs]
    for a, b in zip(residuals, residuals[1:]):
        assert b < a
    assert all(z * r < 10.0 for z, r in zip(zs, residuals))
    # the residual is dominated by 3/z^2 for this family
    assert residuals[0] == pytest.approx(3.0 / 50.0 ** 2, rel=0.25)


def test_asymptotic_residual_detects_wrong_normalization():
    xs = np.linspace(0.0, 1.0, 65)
    v2 = load_table(np.column_stack([xs, 2.0 * (1 - xs * xs) ** 3]), 1.0)
    assert not v2.unit_normalized
    res = asymptotic_residual(v2, 200.0)
    assert abs(res - 3.0) < 1e-2  # 4 z^2 F -> V(0)^2 = 4


def test_asymptotic_residual_validation():
    with pytest.raises(ValueError):
        asymptotic_residual(BUMP, 0.3)


def test_indicator_slope_along_imaginary_axis():
    # The asymptotic slope is the type 2L = 2; at finite radii an algebraic
    # -5 log(r) correction (cubic edge contact of the bump) is still visible,
    # so the tight check is against an oracle slope from direct quadrature.
    radii = [15.0, 20.0, 25.0, 30.0]
    slope = indicator_estimate(BUMP, math.pi / 2.0, radii)
    assert abs(slope - 2.0) < 0.25
    logs = []
    for r in radii:
        f = mp_transform(bump_profile, 2j * r) * mp_transform(bump_profile, -2j * r)
        logs.append(math.log(abs(f)))
    oracle = np.polyfit(radii, logs, 1)[0]
    assert abs(slope - oracle) < 1e-8


def test_indicator_ray_ratio():
    radii = [15.0, 20.0, 25.0, 30.0]
    s90 = indicator_estimate(BUMP, math.pi / 2.0, radii)
    s45 = indicator_estimate(BUMP, math.pi / 4.0, radii)
    assert abs(s90 / s45 - math.sqrt(2.0)) < 0.1 * math.sqrt(2.0)


def test_indicator_real_axis_flat():
    slope = indicator_estimate(BUMP, 0.0, [30.0, 40.0, 50.0, 60.0])
    assert abs(slope) < 0.1


def test_pair_error_propagation_scales():
    f = fourier_pair(BUMP, 30.0 + 4.0j)
    assert f.abs_error_estimate > 0.0
    assert f.abs_error_estimate < 1e-6 * max(1.0, abs(f.value))
