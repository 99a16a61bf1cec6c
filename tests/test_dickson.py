"""Strip geometry, window counts and closed-form zeros for exponential
polynomials."""

import math

import numpy as np
import pytest

from resonlab.dickson import (
    ExpPolynomial, curvilinear_count, containment_exceptions,
    dickson_geometry, model_zeros, recommended_alpha0, recommended_H,
    strip_membership, two_cosine_model, _invert_zeta, _zeta,
)
from resonlab.rootscan import (
    START_MARGIN, Rectangle, RootScanError, locate_zeros,
)
from test_rootscan import no_search

X0 = math.acos(-0.25) / 2.0       # first positive zero of 2cos(2x) + 1/2


def model_zero_count(lo, hi):
    """Real zeros of 2cos(2x)+1/2 in [lo, hi] by direct enumeration."""
    count = 0
    for n in range(math.floor(lo / math.pi) - 1,
                   math.ceil(hi / math.pi) + 2):
        for off in (X0, math.pi - X0):
            if lo <= n * math.pi + off <= hi:
                count += 1
    return count


# ----------------------------------------------------------- construction

def test_expoly_validation():
    with pytest.raises(ValueError):
        ExpPolynomial([(1.0, 0, 0.0)])                      # one term
    with pytest.raises(ValueError):
        ExpPolynomial([(1.0, 0, 1j), (2.0, 0, 1j)])         # repeated omega
    with pytest.raises(ValueError):
        ExpPolynomial([(0.0, 0, 1j), (1.0, 0, 0.0)])        # zero coefficient
    with pytest.raises(ValueError):
        ExpPolynomial([(1.0, -1, 1j), (1.0, 0, 0.0)])       # negative power


def test_model_evaluates_to_shifted_cosine():
    f = two_cosine_model()
    zs = np.array([0.3, 1.0 + 0.5j, -2.0, 4.7j])
    np.testing.assert_allclose(f(zs), 2.0 * np.cos(2.0 * zs) + 0.5,
                               rtol=1e-14)


def test_correction_factor_enters_evaluation():
    f = ExpPolynomial([(1.0, 0, 1j, lambda z: 0.5 / z), (1.0, 0, -1j)])
    z = 2.0 + 0.0j
    expected = np.exp(2j) * (1.0 + 0.25) + np.exp(-2j)
    np.testing.assert_allclose(f(np.array([z]))[0], expected, rtol=1e-14)


# -------------------------------------------------------------- geometry

def test_model_geometry_vertical_segment():
    g = dickson_geometry(two_cosine_model())
    assert g.vertices == (-2j, 2j)
    assert len(g.sides) == 2
    assert g.sides[0].phi == pytest.approx(-math.pi / 2)
    assert g.sides[0].e == pytest.approx(-1j)
    assert g.sides[1].phi == pytest.approx(math.pi / 2)
    assert g.sides[1].e == pytest.approx(1j)
    for side in g.sides:
        assert len(side.points) == 3
        assert len(side.strips) == 2
        for strip in side.strips:
            assert strip.mu == 0.0
            assert strip.delta_omega == pytest.approx(2.0)


def test_real_frequency_triple():
    p = ExpPolynomial([(1.0, 0, -2.0), (0.5, 0, 0.0), (1.0, 0, 2.0)])
    g = dickson_geometry(p)
    assert g.vertices == (-2 + 0j, 2 + 0j)
    assert g.sides[0].phi == pytest.approx(math.pi)
    assert g.sides[0].e == pytest.approx(-1.0)
    assert g.sides[1].phi == pytest.approx(0.0)
    assert g.sides[1].e == pytest.approx(1.0)
    for side in g.sides:
        assert [s.mu for s in side.strips] == [0.0, 0.0]


def test_vertical_pair_hull():
    g = dickson_geometry(ExpPolynomial([(1.0, 0, 0.0), (1.0, 0, 1j)]))
    assert g.vertices == (-1j, 0j)
    es = {complex(round(s.e.real, 12), round(s.e.imag, 12)) for s in g.sides}
    assert es == {1j, -1j}
    for side in g.sides:
        assert len(side.strips) == 1
        assert side.strips[0].mu == 0.0


def test_power_difference_gives_unit_slopes():
    g = dickson_geometry(ExpPolynomial([(1.0, 1, 0.0), (1.0, 0, 1.0)]))
    slopes = sorted(side.strips[0].mu for side in g.sides)
    assert slopes == [-1.0, 1.0]
    # slope oracle: mu equals the power drop per unit length along the side
    for side in g.sides:
        for s in side.strips:
            assert s.mu == pytest.approx((s.m_start - s.m_end) / s.delta_omega)


def test_tau_chain_keeps_peak_and_drops_pit():
    peak = ExpPolynomial([(1.0, 0, 0.0), (1.0, 5, 1.0), (1.0, 0, 2.0)])
    g = dickson_geometry(peak)
    for side in g.sides:
        assert len(side.strips) == 2
        assert sorted(s.mu for s in side.strips) == [-5.0, 5.0]
        for s in side.strips:
            assert s.mu == pytest.approx((s.m_start - s.m_end) / s.delta_omega)

    pit = ExpPolynomial([(1.0, 5, 0.0), (1.0, 0, 1.0), (1.0, 5, 2.0)])
    g2 = dickson_geometry(pit)
    for side in g2.sides:
        assert len(side.strips) == 1
        assert side.strips[0].mu == 0.0
        assert side.strips[0].delta_omega == pytest.approx(2.0)


def test_non_collinear_frequencies_are_rejected():
    p = ExpPolynomial([(1.0, 0, 0.0), (1.0, 0, 1.0), (1.0, 0, 1j)])
    # evaluation stays general; only the strip geometry needs a segment
    expected = 1.0 + np.exp(0.5) + np.exp(0.5j)
    np.testing.assert_allclose(p(np.array([0.5])), [expected], rtol=1e-14)
    with pytest.raises(ValueError, match="collinear"):
        dickson_geometry(p)


@pytest.mark.parametrize("n, L", [(0, 1.0), (3, 1.0), (0, 2.0), (3, 2.0)])
def test_half_line_model_slopes(n, L):
    # (2i)^{n+2} z^{n+2} + n! c e^{2iLz}: frequencies {0, 2iL}, one strip
    # per side, of slope -+(n+2)/(2L) across a segment of length 2L
    c = 0.75
    p = ExpPolynomial([((2j) ** (n + 2), n + 2, 0.0),
                       (math.factorial(n) * c, 0, 2j * L)])
    g = dickson_geometry(p)
    assert g.vertices == (-2j * L, 0j)
    assert [len(side.strips) for side in g.sides] == [1, 1]
    slope = (n + 2) / (2.0 * L)
    assert [side.strips[0].mu for side in g.sides] == [
        pytest.approx(-slope, rel=1e-14), pytest.approx(slope, rel=1e-14)]
    for side in g.sides:
        assert side.strips[0].delta_omega == 2.0 * L


# ------------------------------------------------------------ membership

def test_strip_membership_model():
    g = dickson_geometry(two_cosine_model())
    assert strip_membership(g, 50.0, 2.0) == (0, 0)
    assert strip_membership(g, -50.0, 2.0) == (1, 0)
    assert strip_membership(g, 50.0j, 2.0) is None
    assert strip_membership(g, 3.0 + 1.0j, 2.0) == (0, 0)
    assert strip_membership(g, 3.0 + 2.5j, 2.0) is None
    with pytest.raises(ValueError):
        strip_membership(g, 0.5, 2.0)


def test_strip_membership_logarithmic_offset():
    g = dickson_geometry(ExpPolynomial([(1.0, 1, 0.0), (1.0, 0, 1.0)]))
    # the side with e = +1 carries mu = -1: offset Re z - log|z|
    k = next(i for i, s in enumerate(g.sides) if abs(s.e - 1.0) < 1e-12)
    assert strip_membership(g, 3.0 + 0.1j, 2.0) == (k, 0)
    assert strip_membership(g, 20.0 + 1.0j, 2.0) is None


# ------------------------------------------------------- window counting

def test_zeta_inversion_round_trip():
    cases = [(1.0 + 0j, -1.0, 0.0), (-1j, 0.5, -math.pi / 2),
             (-1.0 + 0j, 1.0, math.pi)]
    re, im = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(25, 28, 5))
    w = (re + 1j * im).ravel()
    for e, mu, phi in cases:
        z = _invert_zeta(w, e, mu, phi)
        np.testing.assert_allclose(_zeta(z, e, mu, phi), w,
                                   rtol=0, atol=1e-10 * float(np.max(np.abs(w))))
        assert np.all((z / e).imag > 0)


def half_line_model():
    """The n = 3, L = 1, c = 0.75 half-line model, strips of mu = -+2.5."""
    return ExpPolynomial([((2j) ** 5, 5, 0.0),
                          (math.factorial(3) * 0.75, 0, 2j)])


def test_zeta_inversion_does_not_depend_on_the_batch():
    # 0.01 + 0.001i needs more Newton steps than 1 + 40i, which must stop
    # at the step that passes its own test, as it does alone
    side = dickson_geometry(half_line_model()).sides[0]
    args = (side.e, side.strips[0].mu, side.phi)
    w = np.array([1 + 40j, 0.01 + 0.001j, 2.5 + 31j, -3 + 57j])
    batch = _invert_zeta(w, *args)
    alone = np.concatenate([_invert_zeta(w[i:i + 1], *args)
                            for i in range(w.size)])
    assert alone.tobytes() == batch.tobytes()
    assert _invert_zeta(w.reshape(2, 2), *args).tobytes() == batch.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zeta_inversion_names_the_point_that_does_not_converge():
    side = dickson_geometry(half_line_model()).sides[0]
    w = np.array([1 + 40j, complex(math.nan, 1.0), complex(2.0, math.nan)])
    with pytest.raises(RootScanError, match=r"did not converge at w = nan\+1j"):
        _invert_zeta(w, side.e, side.strips[0].mu, side.phi)


def test_model_window_counts_match_enumeration():
    f = two_cosine_model()
    g = dickson_geometry(f)
    alpha0 = recommended_alpha0(f)
    H = recommended_H(f, alpha0)
    assert alpha0 == pytest.approx(60.0)
    assert H == pytest.approx(2.0)
    s = math.pi / 2
    for t in range(6):
        alpha = 20.0 * math.pi + t * s
        res = curvilinear_count(f, g, 0, 0, alpha, s, H,
                                alpha_floor=alpha0)
        assert res.count == model_zero_count(alpha, alpha + s) == 1
        assert res.bound_ok is True


def test_model_window_double_width():
    f = two_cosine_model()
    g = dickson_geometry(f)
    res = curvilinear_count(f, g, 0, 1, 20.0 * math.pi, math.pi, 2.0,
                            alpha_floor=60.0)
    assert res.count == 2
    assert res.bound_ok is True      # |2 - 1| < 1.5


def test_model_window_mirror_side():
    f = two_cosine_model()
    g = dickson_geometry(f)
    alpha = 20.0 * math.pi
    res = curvilinear_count(f, g, 1, 0, alpha, math.pi / 2, 2.0,
                            alpha_floor=60.0)
    # the mirror strip covers the negative real axis; zeros are symmetric
    assert res.count == model_zero_count(alpha, alpha + math.pi / 2) == 1
    assert res.bound_ok is True


def test_window_below_floor_reports_no_bound():
    f = two_cosine_model()
    g = dickson_geometry(f)
    res = curvilinear_count(f, g, 0, 0, 5.0, math.pi / 2, 2.0,
                            alpha_floor=60.0)
    assert res.count == model_zero_count(5.0, 5.0 + math.pi / 2)
    assert res.bound_ok is None


def test_curved_windows_count_the_located_zeros():
    # the n = 3, L = 1 half-line model of test_half_line_model_slopes: its
    # strips have mu = -+2.5, so the window boundaries go through the
    # Newton inversion of zeta; each count must equal the located zeros
    # whose zeta falls in the window, the mirrors -conj(z) included
    p = half_line_model()
    g = dickson_geometry(p)
    z = locate_zeros(p, Rectangle(1.0, 80.0, -15.0, 15.0)).locations()
    z = np.concatenate([z, -z.conj()])
    H, s = 3.0, math.pi / 2
    counts = []
    for k, side in enumerate(g.sides):
        strip, = side.strips
        assert strip.mu == pytest.approx(-2.5 if k == 0 else 2.5, rel=1e-14)
        zeta = _zeta(z, side.e, strip.mu, side.phi)
        for alpha in range(30, 60, 5):
            inside = ((np.abs(zeta.real) <= H) & (zeta.imag >= alpha)
                      & (zeta.imag <= alpha + s))
            res = curvilinear_count(p, g, k, 0, alpha, s, H)
            assert res.count == np.count_nonzero(inside)
            counts.append(res.count)
    assert counts[:6] == [1, 0, 1, 1, 0, 1]


def test_window_validation():
    f = two_cosine_model()
    g = dickson_geometry(f)
    with pytest.raises(ValueError):
        curvilinear_count(f, g, 0, 0, 10.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        curvilinear_count(f, g, 0, 0, -4.0, 1.0, 2.0)


# ------------------------------------------------------------ containment

def test_model_zeros_contained_in_strips():
    f = two_cosine_model()
    g = dickson_geometry(f)
    zs = locate_zeros(f, Rectangle(0.5, 30.0, -1.5, 1.5), tol=1e-10)
    assert len(zs) == model_zero_count(0.5, 30.0) > 15
    assert containment_exceptions(g, zs, H=2.0, r_min=1.0) == []


def test_containment_flags_off_strip_point():
    g = dickson_geometry(two_cosine_model())
    fake = [(30.0j, 1), (12.3, 1)]
    assert containment_exceptions(g, fake, H=2.0) == [30.0j]


# ------------------------------------------------------ closed-form zeros

WIDE = Rectangle(-300.0, 300.0, -2.0, 2.0)      # the dickson-wide box
NARROW = Rectangle(0.5, 30.0, -1.5, 1.5)


@pytest.mark.parametrize("rect", [WIDE, NARROW])
def test_two_cosine_starts_match_the_enumeration(rect):
    starts = model_zeros(two_cosine_model(), rect)
    near = rect.inflated(START_MARGIN * rect.diameter)
    assert starts.size == model_zero_count(near.re_min, near.re_max)
    assert np.all(np.abs(starts.imag) <= 1e-12)
    # each start is n pi + X0 or n pi - X0
    off = np.mod(starts.real, math.pi)
    miss = np.minimum(np.abs(off - X0), np.abs(off - (math.pi - X0)))
    assert np.all(miss <= 1e-12 * np.maximum(1.0, np.abs(starts)))


@pytest.mark.parametrize("rect", [WIDE, NARROW])
def test_certified_zeros_equal_the_search(rect):
    # the bound on the moved dickson_membership.txt of dickson-check
    f = two_cosine_model()
    g = dickson_geometry(f)
    H = recommended_H(f, recommended_alpha0(f))
    certified = locate_zeros(f, rect, 1e-9, lambda: model_zeros(f, rect))
    searched = locate_zeros(f, rect, 1e-9)
    assert len(certified) == len(searched) \
        == model_zero_count(rect.re_min, rect.re_max)
    for (a, m), (b, n) in zip(certified, searched):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assert m == n == 1
        if abs(b) > 1.0:
            assert strip_membership(g, a, H) == strip_membership(g, b, H)


def test_a_double_model_root_gets_multiplicity_two(monkeypatch):
    # e^{2iz} - 2 e^{iz} + 1 = (u - 1)^2 with u = e^{iz}: a double zero at
    # each 2 pi n
    no_search(monkeypatch)
    p = ExpPolynomial([(1.0, 0, 2j), (-2.0, 0, 1j), (1.0, 0, 0.0)])
    rect = Rectangle(1.0, 20.0, -1.0, 1.0)
    assert model_zeros(p, rect).size == 6
    zs = locate_zeros(p, rect, 1e-10, lambda: model_zeros(p, rect))
    assert [m for _, m in zs] == [2, 2, 2]
    for n, (z, _) in enumerate(zs, start=1):
        assert abs(z - 2.0 * math.pi * n) <= 1e-8


@pytest.mark.parametrize("terms, named", [
    ([(1.0, 0, 2j), (1.0, 1, 0.0)], "term 1 has power 1"),
    ([(1.0, 0, 2j), (1.0, 0, 0.0, lambda z: 0.1 / z)],
     "term 1 has a correction"),
    ([(1.0, 0, 0.0), (1.0, 0, 1j), (1.0, 0, math.sqrt(2.0) * 1j)],
     "term 2 has frequency"),
])
def test_model_zeros_rejects_other_models(terms, named):
    with pytest.raises(ValueError, match=named):
        model_zeros(ExpPolynomial(terms), NARROW)


def test_the_wide_box_is_certified_from_its_model_starts(monkeypatch):
    # dickson-check's scan: 21,470 points, against 223,085 for the search
    no_search(monkeypatch)
    f, points = two_cosine_model(), []

    def counting(z):
        points.append(np.size(z))
        return f(z)

    zs = locate_zeros(counting, WIDE, 1e-9, lambda: model_zeros(f, WIDE))
    assert len(zs) == model_zero_count(-300.0, 300.0) == 382
    assert sum(points) <= 25_000
