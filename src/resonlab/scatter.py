"""Jost data, scattering matrix, and resonances as zeros of X-hat.

The outgoing solution phi_plus(x, k) = m(x, k) e^{ikx} of -u'' + V u = k^2 u
reduces to m'' + 2ik m' = V m with m = 1, m' = 0 at the right edge of the
support. Integrating that from x = L down to 0 and matching against
(X/ik) e^{ikx} + (Y-/ik) e^{-ikx} on x <= 0 gives

    X(k)  = ik m(0) + m'(0) / 2,      Y(-k) = -m'(0) / 2.

The m change of variables is what makes complex momenta tractable: the raw
phi_plus grows like e^{|Im k| L} even where m stays O(1), so integrating m
keeps the error control honest deep in the lower half plane. X is entire in
k, so rectangle scans with the argument-principle machinery apply verbatim;
resonances are the zeros of X, sought in Im k < 0 under this e^{ikx}
outgoing convention.

Two propagators carry the system. The X that scans see (xhat_function, so
resonances and any wind_count on it) comes from sixth-order Magnus steps on
uniform cells with a closed-form 2x2 exponential (_magnus_m), each momentum
refining its own mesh, so X(k) has the same bits alone and in any batch.
jost_solve, scattering_matrix and the confirmation of every located
resonance use adaptive DOP853 (_solve_m), an independent check on the
Magnus values at the points that are reported. A batch of momenta shares
one stacked DOP853 solve per piece of V, with the tolerances shrunk so that
each momentum keeps the bound of a lone solve (_jost_many). The scattering
matrix on a real grid is one such batch: V is real, so Y(k) = conj Y(-k).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .ftransform import pair_function
from .potential import Potential
from .rootscan import Rectangle, ZeroSet, locate_zeros, match_zero_sets

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# the transmission coefficient divides by ik and the normalization of the
# Jost data degenerates at the origin, so scans keep this distance from k = 0
EXCLUSION_RADIUS = 0.05
POLE_FLOOR = 1e-12
# scipy raises any rtol below 100 eps to it, with only a UserWarning
RTOL_FLOOR = 100.0 * np.finfo(float).eps


class JostIntegrationError(RuntimeError):
    """ODE integration broke down; carries the last trusted x."""

    def __init__(self, message: str, last_x: float):
        super().__init__(f"{message} (last trusted x = {last_x:.6g})")
        self.last_x = last_x


class JostData(NamedTuple):
    k: complex
    x_hat: complex
    y_hat_minus: complex          # the coefficient of e^{-ikx}, i.e. Y(-k)
    ode_error_estimate: float     # tolerance-scaled proxy, not a bound


class ScatteringMatrix(NamedTuple):
    k: float
    t: complex                    # transmission ik / X(k)
    r_right: complex              # reflection from the right, Y(k) / X(k)
    l_left: complex               # reflection from the left, Y(-k) / X(k)
    unitarity_defect: float       # | |t|^2 + |r_right|^2 - 1 |


def _pieces(v: Potential):
    """(upper, lower) ends of the smooth pieces of V, from x = L down to 0."""
    stops = [v.support_length] + sorted(
        (b for b in v.breakpoints if 0.0 < b < v.support_length),
        reverse=True) + [0.0]
    return list(zip(stops[:-1], stops[1:]))


def _solve_m(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """Batched m(0), m'(0) for all momenta in ks (flat complex array).

    One adaptive solve per piece of V carries the whole batch; the state is
    (m, m') stacked over momenta, and DOP853 controls an RMS norm of the
    error over that whole state, so rtol and atol bound the batch, not each
    momentum (_jost_many shrinks them to do that), and each result depends
    in its last bits on the batch it was solved in. Integration restarts at
    interior breakpoints of V to keep the high-order method on smooth
    segments.
    """
    nk = ks.size
    two_ik = 2j * ks

    def rhs(x, y):
        m, mp = y[:nk], y[nk:]
        return np.concatenate([mp, v(x) * m - two_ik * mp])

    y = np.concatenate([np.ones(nk, dtype=complex), np.zeros(nk, dtype=complex)])
    for a, b in _pieces(v):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            batch = "" if nk == 1 else f" (first of a batch of {nk})"
            raise JostIntegrationError(
                f"k = {complex(ks[0]):.6g}{batch}: {sol.message}",
                float(sol.t[-1]))
        y = sol.y[:, -1]
    return y[:nk], y[nk:]


# Gauss-Legendre nodes of a cell, as fractions of the step from its upper end
_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)
# Cells per piece double from 2**_FIRST_LEVEL up to 2**_LAST_LEVEL
_FIRST_LEVEL = 2
_LAST_LEVEL = 12
# The error of X_2n is taken as |X_2n - X_n| / _RATE. A sixth-order method
# gains 64x per doubling once asymptotic, but on the meshes where the test
# first passes the gain can be 30-60x: with 63 here the true error exceeded
# the estimate by up to 1.4x on poly-bump, with 31 it stays below 0.7x.
_RATE = 31.0
# cells x momenta per block of array work: 128 KiB per complex array, which
# bounds the memory of a large batch and stays below numpy's 256 KiB
# threshold for reusing a temporary in place (that reuse can swap the
# operands of a complex product, which changes its last bit)
_BLOCK = 1 << 13


def _cell_propagators(vs: np.ndarray, h: float, w: np.ndarray):
    """exp(Omega0) on each cell, as the entries (a, b, c, d) of [[a, b], [c, d]].

    vs holds V at the three Gauss nodes of each cell (shape (cells, 3)), h is
    the signed step and w = 2ik has shape (1, momenta). The system matrix is
    -(w/2) I + A0 with A0 = [[w/2, 1], [V, -w/2]] traceless, so the scalar
    part contributes exactly e^{-wh/2} per cell, which the caller applies
    once per piece. Omega0 is the sixth-order three-point Magnus term (Blanes, Casas,
    Oteo and Ros, Phys. Rep. 470, 2009) with alpha1 = h A0(mid),
    alpha2 = (sqrt(15) h / 3)(A0_3 - A0_1) and
    alpha3 = (10 h / 3)(A0_3 - 2 A0_2 + A0_1):

        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60,
        Omega0 = alpha1 + alpha3 / 12
                 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,

    expanded below for traceless matrices [[p, q], [r, -p]], where
    [x, y] = (q1 r2 - q2 r1, 2 (p1 q2 - q1 p2), 2 (r1 p2 - p1 r2)) and
    alpha2, alpha3 have only an r entry. Then Omega0^2 = s^2 I with
    s^2 = p^2 + q r, and exp(Omega0) = cosh(s) I + sinh(s)/s Omega0.
    """
    v1, v2, v3 = vs[:, 0:1], vs[:, 1:2], vs[:, 2:3]
    a2 = (np.sqrt(15.0) / 3.0 * h) * (v3 - v1)
    a3 = (10.0 / 3.0 * h) * ((v3 - 2.0 * v2) + v1)
    p1 = (0.5 * h) * w                         # alpha1 = (p1, h, r1)
    r1 = h * v2
    p1a2 = p1 * a2
    # [alpha1, 2 alpha3 + C1] with C1 = (h a2, 0, -2 p1 a2)
    y_r = 2.0 * a3 - 2.0 * p1a2
    b_p = h * y_r
    b_q = -2.0 * h * h * a2
    b_r = 2.0 * (r1 * (h * a2) - p1 * y_r)
    # U = -20 alpha1 - alpha3 + C1 and W = alpha2 + C2
    u_p = h * a2 - 20.0 * p1
    u_q = -20.0 * h
    u_r = -20.0 * r1 - a3 - 2.0 * p1a2
    w_p = b_p / -60.0
    w_q = b_q / -60.0
    w_r = a2 + b_r / -60.0
    p = p1 + (u_q * w_r - w_q * u_r) / 240.0
    q = h + (2.0 * (u_p * w_q - u_q * w_p)) / 240.0
    r = (r1 + a3 / 12.0) + (2.0 * (u_r * w_p - u_p * w_r)) / 240.0
    s = np.sqrt(p * p + q * r)
    ch = np.cosh(s)
    sc = np.divide(np.sinh(s), s, out=np.ones_like(s), where=s != 0.0)
    return ch + sc * p, sc * q, sc * r, ch - sc * p


def _chain(a, b, c, d):
    """The product M[n-1] ... M[1] M[0] of the matrices along axis 0.

    Adjacent pairs multiply level by level, a pairwise tree of elementwise
    products; n is a power of two.
    """
    while a.shape[0] > 1:
        a0, b0, c0, d0 = a[0::2], b[0::2], c[0::2], d[0::2]
        a1, b1, c1, d1 = a[1::2], b[1::2], c[1::2], d[1::2]
        a, b, c, d = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    return a[0], b[0], c[0], d[0]


def _magnus_m(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """m(0), m'(0) for the momenta in ks by sixth-order Magnus steps.

    Each piece of V between (L, *breakpoints, 0) carries 2**j uniform
    cells, and V is sampled once per piece and level for the whole batch.
    Each momentum doubles its own cell count until
    |X_2n - X_n| / _RATE <= rtol (|X| + |Y(-k)|) + atol, the proxy that
    _jost_many reports, and keeps the finer value. All arithmetic is
    elementwise per momentum, in blocks held below numpy's in-place
    threshold, so a momentum has the same bits alone and inside any batch.
    Overflow, and a momentum still above its target at 2**_LAST_LEVEL
    cells, raise JostIntegrationError naming k.
    """
    pieces = _pieces(v)
    ks = np.asarray(ks, dtype=complex)

    def sweep(idx, level):
        """m(0), m'(0) for ks[idx] on 2**level cells per piece."""
        cells = 1 << level
        nodes = (np.arange(cells)[:, None] + _GAUSS3) / cells
        samples = [(hi, lo, v(hi + nodes * (lo - hi))) for hi, lo in pieces]
        m, mp = np.empty(idx.size, dtype=complex), np.empty(idx.size, dtype=complex)
        step = max(1, _BLOCK >> level)
        for start in range(0, idx.size, step):
            k = ks[idx[start:start + step]]
            w = 2j * k
            y0, y1 = np.ones(k.size, dtype=complex), np.zeros(k.size, dtype=complex)
            for hi, lo, vs in samples:
                a, b, c, d = _chain(*_cell_propagators(vs, (lo - hi) / cells,
                                                       w[None, :]))
                e = np.exp((0.5 * (hi - lo)) * w)
                y0, y1 = (a * y0 + b * y1) * e, (c * y0 + d * y1) * e
                bad = ~(np.isfinite(y0) & np.isfinite(y1))
                if bad.any():
                    raise JostIntegrationError(
                        f"k = {complex(k[bad][0]):.6g}: Magnus propagator "
                        f"overflowed on the piece [{lo:.6g}, {hi:.6g}] with "
                        f"{cells} cells", hi)
            m[start:start + step], mp[start:start + step] = y0, y1
        return m, mp

    todo = np.arange(ks.size)
    m0, mp0 = sweep(todo, _FIRST_LEVEL)
    x_prev, _ = _x_and_y(ks, m0, mp0)
    for level in range(_FIRST_LEVEL + 1, _LAST_LEVEL + 1):
        k = ks[todo]
        m, mp = sweep(todo, level)
        m0[todo], mp0[todo] = m, mp
        x_hat, y_hat_minus = _x_and_y(k, m, mp)
        est = np.abs(x_hat - x_prev) / _RATE
        target = rtol * (np.abs(x_hat) + np.abs(y_hat_minus)) + atol
        keep = est > target
        if not keep.any():
            return m0, mp0
        todo, x_prev = todo[keep], x_hat[keep]
    i = int(np.flatnonzero(keep)[0])
    raise JostIntegrationError(
        f"k = {complex(k[i]):.6g}: Magnus estimate {est[i]:.3g} above its "
        f"target {target[i]:.3g} at {1 << _LAST_LEVEL} cells per piece of "
        f"[0, {v.support_length:.6g}] ({len(pieces)} pieces)",
        v.support_length)


def _x_and_y(ks, m0, mp0):
    """X(k) = ik m(0) + m'(0)/2 and Y(-k) = -m'(0)/2."""
    return 1j * ks * m0 + 0.5 * mp0, -0.5 * mp0


def _jost_many(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """X(k), Y(-k) and the error proxy for the momenta in ks (flat complex).

    DOP853 accepts a step when the RMS of the scaled error over the whole
    stacked state is at most 1, so in a batch of n momenta one momentum's
    share may be sqrt(n) times what a lone solve allows. rtol and atol are
    divided by sqrt(n), which holds every momentum to the bound it would
    get alone. The batch is cut into near-equal chunks small enough that
    rtol / sqrt(n) stays at or above RTOL_FLOOR, where scipy would
    otherwise raise it silently; an rtol below the floor raises ValueError.
    """
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol = {rtol:.3g} is below the DOP853 floor "
                         f"100 eps = {RTOL_FLOOR:.3g}")
    most = int((rtol / RTOL_FLOOR) ** 2)
    while rtol / np.sqrt(most) < RTOL_FLOOR:
        most -= 1
    parts = [_solve_m(v, c, rtol / np.sqrt(c.size), atol / np.sqrt(c.size))
             for c in np.array_split(ks, -(-ks.size // most))]
    m0, mp0 = (np.concatenate(p) for p in zip(*parts))
    x_hat, y_hat_minus = _x_and_y(ks, m0, mp0)
    bad = ~(np.isfinite(x_hat) & np.isfinite(y_hat_minus))
    if bad.any():
        raise JostIntegrationError(
            f"k = {complex(ks[bad][0]):.6g}: Jost data overflowed", 0.0)
    err = rtol * (np.abs(x_hat) + np.abs(y_hat_minus)) + atol
    return x_hat, y_hat_minus, err


def jost_solve(v: Potential, k, *, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> JostData:
    """Jost data at one momentum, or at each momentum of an array.

    A scalar k gives a JostData of Python scalars. An array gives a JostData
    of arrays of its shape, from one stacked DOP853 solve per piece of V
    (see _jost_many). k = 0 is excluded by the normalization.
    """
    ks = np.asarray(k, dtype=complex)
    if np.any(ks == 0):
        raise ValueError("k = 0: the ik normalization of the Jost data degenerates")
    if ks.size == 0:
        return JostData(ks, ks.copy(), ks.copy(), np.zeros(ks.shape))
    x_hat, y_hat_minus, err = _jost_many(v, ks.ravel(), rtol, atol)
    if ks.ndim == 0:
        return JostData(complex(k), complex(x_hat[0]), complex(y_hat_minus[0]),
                        float(err[0]))
    return JostData(ks, x_hat.reshape(ks.shape),
                    y_hat_minus.reshape(ks.shape), err.reshape(ks.shape))


def xhat_function(v: Potential, *, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Callable:
    """Vectorized k -> X(k) for the rectangle scans, shape in = shape out."""

    def f(ks):
        arr = np.asarray(ks, dtype=complex)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=complex)
        ks = arr.ravel()
        return _x_and_y(ks, *_magnus_m(v, ks, rtol, atol))[0].reshape(arr.shape)

    return f


def scattering_matrix(v: Potential, k, *, rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL):
    """T, R, L at a real momentum, or at each momentum of a 1-D array.

    One jost_solve call carries every admissible momentum, one stacked
    DOP853 solve per piece of V, and yields X(k) and Y(-k). Y(k) is
    conj Y(-k): V is real, so the ODE at -k is the conjugate of the one at
    k, and since IEEE +, * and abs commute with conjugation, a solve at -k
    would take the same steps and return exactly these conjugate bits. The
    defect | |T|^2 + |R|^2 - 1 | is reported, not asserted.

    A scalar k returns a ScatteringMatrix, or raises ValueError at k = 0 or
    next to a transmission pole. An array returns a list with one entry per
    momentum, in order: its ScatteringMatrix, or the ValueError that the
    scalar call would raise there. A scalar is a batch of one, so it has
    the bits of a lone solve.
    """
    ks = np.asarray(k, dtype=float)
    if ks.ndim > 1:
        raise ValueError("scattering_matrix takes a real momentum or a 1-D "
                         f"array of them, not shape {ks.shape}")
    flat = ks.ravel()
    entries = [ValueError("k = 0: the transmission coefficient divides by ik")
               if kk == 0.0 else None for kk in flat]
    live = np.flatnonzero(flat != 0.0)
    jost = jost_solve(v, flat[live].astype(complex), rtol=rtol, atol=atol)
    for i, x_hat, y_hat_minus in zip(live, jost.x_hat, jost.y_hat_minus):
        entries[i] = _smatrix_entry(float(flat[i]), complex(x_hat),
                                    complex(y_hat_minus))
    if ks.ndim == 1:
        return entries
    if isinstance(entries[0], ValueError):
        raise entries[0]
    return entries[0]


def _smatrix_entry(k: float, x_hat: complex, y_hat_minus: complex):
    """T, R, L at k from X(k) and Y(-k), or the ValueError of a nearby pole."""
    if abs(x_hat) <= POLE_FLOOR * max(1.0, abs(k)):
        return ValueError(f"k = {k:.15g}: transmission pole proximity, "
                          f"|X(k)| = {abs(x_hat):.3e}")
    t = 1j * k / x_hat
    r_right = y_hat_minus.conjugate() / x_hat
    l_left = y_hat_minus / x_hat
    defect = abs(abs(t) ** 2 + abs(r_right) ** 2 - 1.0)
    return ScatteringMatrix(k, t, r_right, l_left, defect)


def resonances(v: Potential, rect: Rectangle, tol: float = 1e-10, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ZeroSet:
    """Zeros of X over the rectangle, canonically ordered by modulus.

    The scan runs on the Magnus X of xhat_function; every zero it reports is
    then confirmed on the DOP853 path by _confirm_on_ode.
    """
    if rect.distance_to(0.0) < EXCLUSION_RADIUS:
        raise ValueError(f"rectangle comes within {EXCLUSION_RADIUS:g} of "
                         "k = 0; shift it")
    zs = locate_zeros(xhat_function(v, rtol=rtol, atol=atol), rect, tol)
    _confirm_on_ode(v, zs, tol, rtol, atol)
    return zs


def _confirm_on_ode(v: Potential, zs: ZeroSet, tol: float, rtol: float,
                    atol: float) -> None:
    """Check each zero against X from one batched DOP853 solve.

    The solve covers z and z +- h for every zero, h = 1e-7 max(1, |z|). A
    zero passes when its multiplicity-weighted Newton step m X(z) / X'(z),
    with X' the central difference, is at most tol * max(1, |z|), the
    scan's own acceptance test; otherwise JostIntegrationError names it.
    _jost_many holds every momentum of the batch to the bound of a lone
    solve.
    """
    if len(zs) == 0:
        return
    z = zs.locations()
    mult = np.array([m for _, m in zs], dtype=float)
    h = 1e-7 * np.maximum(1.0, np.abs(z))
    ks = np.concatenate([z, z + h, z - h])
    x_hat, _, _ = _jost_many(v, ks, rtol, atol)
    x0, xp, xm = np.split(x_hat, 3)
    bound = tol * np.maximum(1.0, np.abs(z))
    # |m X / X'| <= bound, multiplied out so that X' = 0 fails unless X = 0
    ok = np.abs(mult * x0 * (2.0 * h)) <= bound * np.abs(xp - xm)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        step = mult[i] * x0[i] * 2.0 * h[i] / (xp[i] - xm[i])
        raise JostIntegrationError(
            f"resonance {z[i]:.10g} is not confirmed on the DOP853 path: its "
            f"Newton step {abs(step):.3g} exceeds {bound[i]:.3g}", 0.0)


class FroesePair(NamedTuple):
    resonance: complex
    fourier_zero: complex
    distance: float
    relative: float               # distance / |resonance|


class FroeseComparison(NamedTuple):
    resonance_set: ZeroSet
    fourier_set: ZeroSet
    pairs: tuple
    median_first_third: float
    median_last_third: float
    relative_median_first_third: float
    relative_median_last_third: float


def _thirds_medians(values, n):
    third = n // 3
    if third == 0:
        return float("nan"), float("nan")
    return (float(np.median(values[:third])),
            float(np.median(values[n - third:])))


def froese_compare(v: Potential, rect: Rectangle, tol: float = 1e-9, *,
                   rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                   fourier_rtol: float = 1e-12) -> FroeseComparison:
    """Resonances next to the zeros of F(k) = Vhat(2k) Vhat(-2k) on one rect.

    Both zero lists are computed independently, truncated to the common count
    in canonical (modulus-ascending) order, and paired by minimum-cost
    assignment. A count mismatch is data, not an error: the overflow entries
    simply drop out of the pairing, and the full sets are returned alongside.

    Both the raw pair distances and the distances relative to |resonance| are
    summarized by first/last-third medians. For compactly supported
    potentials the raw gap grows like (2/L) log|k| (the resonance curve dives
    logarithmically while the transform zeros hug a horizontal line), so the
    relative medians are the ones that exhibit the asymptotic improvement of
    the correspondence; the counting functions of the two sets agree.
    """
    if v.abs_moments[0] == 0.0:
        # the zero potential has no resonances and F vanishes identically,
        # so there is no isolated-zero set to scan for
        empty = ZeroSet(())
        nan = float("nan")
        return FroeseComparison(empty, empty, (), nan, nan, nan, nan)
    res = resonances(v, rect, tol, rtol=rtol, atol=atol)
    fz = locate_zeros(pair_function(v, fourier_rtol), rect, tol)
    a = res.locations(expand=True)
    b = fz.locations(expand=True)
    n = min(a.size, b.size)
    # the assignment returns its rows in order, so the pairs follow the
    # canonical order of the resonances
    matched = match_zero_sets(ZeroSet((z, 1) for z in a[:n]),
                              ZeroSet((z, 1) for z in b[:n]))
    pairs = tuple(FroesePair(s, z, abs(s - z), abs(s - z) / abs(s))
                  for s, z in matched.pairs)
    first, last = _thirds_medians([p.distance for p in pairs], n)
    rel_first, rel_last = _thirds_medians([p.relative for p in pairs], n)
    return FroeseComparison(res, fz, pairs, first, last, rel_first, rel_last)
