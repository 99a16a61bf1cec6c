"""The Magnus cell exponential behind the scanned X, and its cached table.

exp(Omega0) is checked against a 50-digit mpmath exponential of Omega0 built
from the unexpanded commutator formula, so the expansion into polynomials in
p1 = (h/2) 2ik, the Taylor route for |u| <= 1 and the e^s route beyond it are
all tested against the same independent value.
"""

import gc

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from resonlab import scatter
from resonlab.potential import make_poly_bump, make_truncated_gaussian
from resonlab.rootscan import Rectangle
from resonlab.scatter import (_GAUSS3, _bit_reversed, _cell_coefficients,
                              _cell_propagators, _magnus_m, _x_and_y,
                              resonances, xhat_function)

# the froese-sharp rectangle: 0.5 <= Re k <= 72, -11 <= Im k <= -0.05
FROESE = (0.5, 72.0, -11.0, -0.05)
# each entry of exp(Omega0) agrees with the 50-digit value within this
# fraction of the largest entry; the e^s route loses about |s| eps, and
# |s| stays below 20 on the froese rectangle from level 2 on
ORACLE_BOUND = 1e-14


def cell_samples(v, level):
    """V at the Gauss nodes of each cell of [0, L] on one level, and h."""
    cells = 1 << level
    nodes = (_bit_reversed(cells)[:, None] + _GAUSS3) / cells
    length = v.support_length
    return v(length - nodes * length), -length / cells


def omega0_exp(vs, h, k):
    """exp(Omega0) at 50 digits from the commutator form of Omega0."""
    with mpmath.workdps(50):
        h, w = mpmath.mpf(h), 2j * mpmath.mpc(k)
        a = [mpmath.matrix([[w / 2, 1], [mpmath.mpf(x), -w / 2]]) for x in vs]
        com = lambda x, y: x * y - y * x
        a1 = h * a[1]
        a2 = (mpmath.sqrt(15) * h / 3) * (a[2] - a[0])
        a3 = (10 * h / 3) * (a[2] - 2 * a[1] + a[0])
        c1 = com(a1, a2)
        c2 = -com(a1, 2 * a3 + c1) / 60
        omega = a1 + a3 / 12 + com(-20 * a1 - a3 + c1, a2 + c2) / 240
        e = mpmath.expm(omega)
        return [e[0, 0], e[0, 1], e[1, 0], e[1, 1]]


def u_polynomial(coef, cell):
    """u = p^2 + q r of one cell as a polynomial in p1."""
    p, q, r = (np.polynomial.Polynomial(c[:, cell, 0].real) for c in coef)
    return p * p + q * r


def assert_matches_oracle(vs, h, coef, cell, ks):
    x = (0.5 * h) * (2j * np.asarray(ks))
    got = np.array(_cell_propagators(coef, x[None, :]))[:, cell, :]
    for j, k in enumerate(ks):
        exact = omega0_exp(vs[cell], h, k)
        scale = max(abs(e) for e in exact)
        err = max(abs(mpmath.mpc(g) - e) for g, e in zip(got[:, j], exact))
        assert err <= ORACLE_BOUND * scale, (h, cell, k, float(err / scale))


@pytest.mark.parametrize("level", range(2, 9))
def test_cell_exponential_matches_mpmath(level):
    v = make_truncated_gaussian(sharp_edge=True)
    vs, h = cell_samples(v, level)
    coef = _cell_coefficients(vs, h)
    rng = np.random.default_rng(level)
    re_min, re_max, im_min, im_max = FROESE
    ks = list(rng.uniform(re_min, re_max, 5)
              + 1j * rng.uniform(im_min, im_max, 5))
    ks += [re_max + 1j * im_min, re_min + 1j * im_max, re_max + 1j * im_max]
    cells = [0, vs.shape[0] // 3, vs.shape[0] - 1]
    for cell in cells:
        assert_matches_oracle(vs, h, coef, cell, ks)
        # s -> 0: the roots of u in p1 near i h sqrt(V), and a momentum just
        # off one of them
        u = u_polynomial(coef, cell)
        roots = u.roots()
        x0 = roots[np.argmin(np.abs(roots - 1j * h * np.sqrt(vs[cell, 1])))]
        k0 = x0 / (1j * h)
        assert abs(u(x0)) < 1e-12
        assert_matches_oracle(vs, h, coef, cell, [k0, k0 * (1 + 1e-6)])
        # |u| = 1 -+ 1e-9 on the line Im k = -0.5, where the rectangle
        # reaches the series cutoff (levels up to 6)
        g = lambda t, d: abs(u(1j * h * (t - 0.5j))) - d
        if level <= 6:
            for d in (1.0 - 1e-9, 1.0 + 1e-9):
                t = brentq(g, re_min, re_max, args=(d,), xtol=1e-14)
                assert_matches_oracle(vs, h, coef, cell, [t - 0.5j])


def test_series_overflow_on_a_far_element_does_not_warn():
    # a free cell has u = p1^2 exactly, so at p1 = 1e18 i the Taylor series
    # overflows (|u|^9 > 1e308) while e^s stays on the unit circle; the e^s
    # route replaces that element, and a RuntimeWarning fails the test
    coef = _cell_coefficients(np.zeros((1, 3)), -0.25)
    entries = _cell_propagators(coef, np.array([[1e18j, 0.1]]))
    assert all(np.isfinite(e).all() for e in entries)


def test_table_does_not_depend_on_call_history():
    v = make_truncated_gaussian(sharp_edge=True)
    rng = np.random.default_rng(21)
    # these reach 256 cells, so the first call fills levels 2..8
    deep = np.array([71.8 - 8.84j, 71.43 - 9.97j])
    others = rng.uniform(0.5, 72.0, 40) + 1j * rng.uniform(-11.0, -0.05, 40)
    table = {}
    _magnus_m(v, deep, scatter.DEFAULT_RTOL, scatter.DEFAULT_ATOL, table)
    assert max(table) >= 8
    used = xhat_function(v)
    used(deep)
    assert np.array_equal(used(others), xhat_function(v)(others))
    assert np.array_equal(used(deep), xhat_function(v)(deep))


def test_closures_of_two_potentials_never_share_a_table():
    ks = np.array([3.0 - 1.0j, 17.5 - 4.0j, 40.0 - 0.5j])
    pots = [make_poly_bump, lambda: make_truncated_gaussian(sharp_edge=True)]
    fresh = [_x_and_y(ks, *_magnus_m(make(), ks, scatter.DEFAULT_RTOL,
                                     scatter.DEFAULT_ATOL))[0]
             for make in pots]
    assert not np.array_equal(fresh[0], fresh[1])
    # build and drop the closures one after the other, so that Python may
    # hand the second potential the id of the first
    for _ in range(3):
        for make, expected in zip(pots, fresh):
            f = xhat_function(make())
            assert np.array_equal(f(ks), expected)
            del f
            gc.collect()


# gaussian-sharp resonances on [0.5, 16] x i[-8.2, -0.05] at tol 1e-7, as
# the cosh/sinh kernel found them; the kernel moves X by roundoff only
GAUSSIAN_SHARP_RESONANCES = [
    (4.532300378509827 - 5.783694661966157j),
    (8.132994384126071 - 6.520496536482662j),
    (11.519203839980635 - 7.057567243087901j),
    (14.81830863745823 - 7.479880545046304j),
]


def test_gaussian_sharp_resonances_stay_within_roundoff_of_the_old_kernel():
    zs = resonances(make_truncated_gaussian(sharp_edge=True),
                    Rectangle(0.5, 16.0, -8.2, -0.05), 1e-7)
    assert [m for _, m in zs] == [1] * len(GAUSSIAN_SHARP_RESONANCES)
    got = zs.locations()
    ref = np.array(GAUSSIAN_SHARP_RESONANCES)
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))
