import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import spherical_jn

from resonlab import ftransform
from resonlab.ftransform import (
    _spherical_jn_all, asymptotic_residual, conj_symmetry_residual,
    erdelyi_expansion, fourier_many, pair_function,
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
    vals, _, _ = fourier_many(BUMP, [0.0])
    assert abs(vals[0] - 16.0 / 35.0) < 1e-12


def test_transform_matches_oracle_direct_route():
    zs = [3.0, -17.5, 2.0 + 1.5j, -8.0 - 2.0j, 40.0 + 0.3j]
    vals, errs, _ = fourier_many(BUMP, zs)
    for z, val, err in zip(zs, vals, errs):
        ref = mp_transform(bump_profile, z)
        assert abs(val - ref) <= max(5.0 * err, 1e-13)


def test_transform_matches_oracle_boundary_route():
    zs = [80.0, -120.0, 200.0 + 1.0j]
    vals, errs, _ = fourier_many(GAUSS_SHARP, zs)
    for z, val, err in zip(zs, vals, errs):
        ref = mp_transform(gauss_profile, z)
        assert abs(val - ref) <= max(10.0 * err, 1e-12)


def test_routes_agree_near_switch():
    # z just past |Re z| = 50 L, where two quadrature routes once met
    va, ea, _ = fourier_many(BUMP, [55.0 + 0.5j])
    ref = mp_transform(bump_profile, 55.0 + 0.5j)
    assert abs(va[0] - ref) <= max(10.0 * ea[0], 1e-13)


def mp_gauss_poly_transform(coeffs, a, b, z):
    """Exact integral of p(t) e^{-t^2 - izt} over [a, b] in mpmath, where
    p(t) = sum_m coeffs[m] t^m.

    With t = u - c, c = iz/2, the integrand is e^{-z^2/4} p(u - c) e^{-u^2};
    each moment J_k(u) = integral of u^k e^{-u^2} follows from the erf by
    J_k = -u^{k-1} e^{-u^2}/2 + (k-1)/2 J_{k-2}.
    """
    mpmath.mp.dps = 60
    z = mpmath.mpc(z)
    c = 1j * z / 2
    n = len(coeffs)
    q = [mpmath.fsum(mpmath.mpf(coeffs[m]) * mpmath.binomial(m, k)
                     * (-c) ** (m - k) for m in range(k, n))
         for k in range(n)]  # p(u - c) = sum_k q[k] u^k

    def antiderivative(u):
        e = mpmath.exp(-u * u)
        moments = [mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(u), -e / 2]
        for k in range(2, n):
            moments.append(-u ** (k - 1) * e / 2
                           + (k - 1) * moments[k - 2] / 2)
        return mpmath.fsum(qk * jk for qk, jk in zip(q, moments))

    return mpmath.exp(-z * z / 4) * (antiderivative(b + c)
                                     - antiderivative(a + c))


# the smooth Gaussian's taper 1 - s^3 (10 - 15 s + 6 s^2), s = 2t - 1, on
# [1/2, 1], as integer coefficients in t
_S = np.polynomial.Polynomial([-1, 2])
TAPER = (1 - 10 * _S ** 3 + 15 * _S ** 4 - 6 * _S ** 5).coef


def mp_smooth_gauss_transform(z):
    """Exact transform of the smooth Gaussian on [0, 1], piece by piece."""
    return complex(mp_gauss_poly_transform([1], 0, 0.5, z)
                   + mp_gauss_poly_transform(TAPER, 0.5, 1, z))


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
ORACLE_POINTS = [0.3, 3.0, 7.5, -17.5, -31.0, 49.0, 2.0 + 1.5j, -8.0 - 2.0j,
                 40.0 + 0.3j, 40.0 + 3.0j, 51.0, 55.0 + 0.5j, -80.0,
                 120.0 + 1.0j, -150.0 + 4.0j, 200.0 + 1.0j, 75.0 - 10.0j,
                 -60.0 + 20.0j]


def test_transform_matches_mpmath_on_every_family():
    xs = np.linspace(0.0, 1.0, 65)
    samples = np.cos(3.0 * xs) * (1.0 - xs * xs)
    table = load_table(np.column_stack([xs, samples]), 1.0)
    spline = CubicSpline(xs, samples, bc_type="not-a-knot")
    families = [
        (BUMP, lambda z: mp_transform(bump_profile, z)),
        (GAUSS_SHARP, lambda z: mp_transform(gauss_profile, z)),
        (GAUSS_SMOOTH, mp_smooth_gauss_transform),
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


@pytest.mark.parametrize("v", [GAUSS_SHARP, GAUSS_SMOOTH],
                         ids=["one-piece", "two-pieces"])
def test_blocks_change_no_bits(monkeypatch, v):
    # more points than one default block, with |w| = |z| h on both sides of
    # the order count 15, on and off the real axis
    rng = np.random.default_rng(11)
    n = ftransform._BLOCK + 500
    zs = rng.uniform(-70.0, 70.0, n) + 1j * rng.uniform(-15.0, 15.0, n)
    zs[:100] = zs[:100].real
    vals, errs, _ = fourier_many(v, zs)
    monkeypatch.setattr(ftransform, "_BLOCK", 3)
    small_vals, small_errs, _ = fourier_many(v, zs)
    assert np.array_equal(small_vals, vals)
    assert np.array_equal(small_errs, errs)


def mp_spherical_jn(n, w):
    """j_n(w) = J_{n+1/2}(w) sqrt(pi / (2w)) at 30 digits.

    The two principal branches disagree in sign across the negative real
    axis, so Re w < 0 goes through j_n(w) = (-1)^n j_n(-w).
    """
    if w.real < 0.0:
        return (-1) ** n * mp_spherical_jn(n, -w)
    mpmath.mp.dps = 30
    w = mpmath.mpc(w)
    return complex(mpmath.besselj(n + 0.5, w) * mpmath.sqrt(mpmath.pi / (2 * w)))


@pytest.mark.parametrize("count", [7, 16])
def test_spherical_recurrence_matches_mpmath_at_its_edges(count):
    edge = [count * s * np.exp(1j * phase)
            for s in (1.0 - 1e-9, 1.0 + 1e-9)  # the upward/Miller switch
            for phase in (0.0, 0.4, 0.8, 0.5 * math.pi, math.pi)]
    scaling = [math.pi, 2.0 * math.pi, -math.pi]  # j_0 = 0: chain from j_1
    denominators = [4.493409457909064, 5.763459196894550]  # j_1, j_2 = 0
    series = [1e-4 * s * u for s in (1.0 - 1e-6, 1.0 + 1e-6)
              for u in (1.0, -1.0, 1j, np.exp(0.7j))]
    negative = [-0.5, -3.0, -9.75, -20.0]
    strip = [3.0 + 12.0j, 3.0 - 12.0j, -5.0 + 12.0j, 12.0j, -12.0j,
             15.0 - 12.0j, -25.0 + 12.0j]
    w = np.array(edge + scaling + denominators + series + negative + strip,
                 dtype=complex)
    got = _spherical_jn_all(w.reshape(-1, 1), count)
    assert got.shape == (count, w.size, 1)
    for i, wi in enumerate(w):
        scale = math.exp(abs(wi.imag)) / max(1.0, abs(wi))
        for n in range(count):
            gap = abs(got[n, i, 0] - mp_spherical_jn(n, wi))
            assert gap <= 1e-13 * scale, (n, wi, gap / scale)


@pytest.mark.parametrize("count", [40, 64])
def test_spherical_recurrence_off_the_axis_at_many_orders(count):
    # near |w| = count with a large |Im w| the upward recurrence lost up to
    # 1e-4 of exp(|Im w|) / |w| at count = 64, and 1e-9 at 40
    steep = [count * s * np.exp(1j * math.radians(deg))
             for s in (1.0, 1.3, 2.0, 3.0)
             for deg in (30.0, 60.0, 90.0, -90.0, 150.0)]
    # the switch count^2 |Im w| = 8 |w|^2 at |w| = 1.5 count, from both sides
    theta = math.asin(12.0 / count)
    switch = [1.5 * count * s * np.exp(1j * theta)
              for s in (1.0 - 1e-9, 1.0 + 1e-9)]
    w = np.array(steep + switch, dtype=complex)
    got = _spherical_jn_all(w, count)
    orders = [*range(0, count, 5), count - 1]
    for i, wi in enumerate(w):
        scale = math.exp(abs(wi.imag)) / abs(wi)
        for n in orders:
            gap = abs(got[n, i] - mp_spherical_jn(n, wi))
            assert gap <= 1e-13 * scale, (n, wi, gap / scale)


def test_transform_with_few_or_no_orders():
    zs = np.array([0.0, 3.0, -17.5, 2.0 + 1.5j, 40.0 - 0.3j])
    tails = np.cumsum(np.abs(BUMP.legendre[0, ::-1]))[::-1]
    unit = BUMP.abs_moments[0] / BUMP.support_length
    # above the whole tail no order is kept; between two tails, exactly kept
    for kept, rtol in ((0, 2.0 * tails[0] / unit),
                       (1, math.sqrt(tails[0] * tails[1]) / unit),
                       (2, math.sqrt(tails[1] * tails[2]) / unit)):
        vals, errs, mask = fourier_many(BUMP, zs, rtol)
        w = 0.5 * zs
        want = 0.5 * np.exp(-0.5j * zs) * sum(
            2.0 * (-1j) ** n * BUMP.legendre[0, n] * spherical_jn(n, w)
            for n in range(kept))
        grow = np.exp(np.maximum(0.0, zs.imag))
        assert np.all(np.abs(vals - want) <= 1e-14 * grow), kept
        dropped = 2.0 * 0.5 * tails[kept]
        np.testing.assert_allclose(
            errs, (dropped + 1e-14 * BUMP.abs_moments[0]) * grow, rtol=1e-15)
        assert not mask.any()
    vals, errs, mask = fourier_many(BUMP, [])
    assert vals.shape == errs.shape == mask.shape == (0,)
    assert pair_function(BUMP, 1e-12)(np.zeros((0, 3))).shape == (0, 3)


def test_zero_potential_transforms_to_zero():
    xs = np.linspace(0.0, 1.0, 9)
    vzero = load_table(np.column_stack([xs, np.zeros(9)]), 1.0)
    vals, _, _ = fourier_many(vzero, [0.0, 5.0, 1.0 + 1.0j, 120.0])
    assert np.all(vals == 0.0)


def test_pair_evenness():
    z = 1.3 + 0.4j
    a, b = pair_function(BUMP, 1e-12)(np.array([z, -z]))
    assert abs(a - b) < 1e-10


def test_pair_real_axis_nonnegative():
    vals = pair_function(GAUSS_SMOOTH, 1e-12)(np.array([0.0, 0.7, 2.3, 11.0]))
    assert np.all(np.abs(vals.imag) < 1e-12)
    assert np.all(vals.real >= -1e-12)


def test_pair_conjugation():
    z = 2.2 + 0.9j
    a, b = pair_function(GAUSS_SHARP, 1e-12)(np.array([z, np.conj(z)]))
    assert abs(np.conj(b) - a) < 1e-10


def test_pair_function_matches_mpmath_up_the_imaginary_axis():
    # F(ir) = Vhat(2ir) Vhat(-2ir): one factor grows like e^{2r}, the other
    # falls like 1/r, so F is the product of very unequal halves
    rs = [15.0, 20.0, 25.0, 30.0]
    zs = 1j * np.array(rs)
    halves, _, _ = fourier_many(BUMP, np.concatenate([2.0 * zs, -2.0 * zs]))
    for w, val in zip(np.concatenate([2.0 * zs, -2.0 * zs]), halves):
        bound = 1e-13 * BUMP.abs_moments[0] * math.exp(max(0.0, w.imag))
        assert abs(val - mp_transform(bump_profile, w)) <= bound, w
    values = pair_function(BUMP, 1e-12)(zs)
    for z, val in zip(zs, values):
        oracle = (mp_transform(bump_profile, 2.0 * z)
                  * mp_transform(bump_profile, -2.0 * z))
        assert abs(val - oracle) <= 1e-11 * abs(oracle), z


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
