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

resonances does not search the rectangle for them. spectral_resonances
collocates the outgoing problem on Chebyshev points, as many as the
largest |k| of the rectangle needs (SPECTRAL_RUNGS), and returns its
eigenvalues, which approximate the resonances without any root finding;
rootscan.locate_zeros, given them as starts, counts the rectangle on X,
polishes the eigenvalues inside it into zeros of X and certifies them with
the multiplicity squares and the total check, and searches the rectangle
only when they do not account for the count. A rectangle that holds no
zero takes no eigen-solve.

Two propagators carry the system. The X that scans see (xhat_function, so
resonances and any wind_count on it) comes from sixth-order Magnus steps on
uniform cells with a closed-form 2x2 exponential (_magnus_m), each momentum
refining its own mesh, so X(k) has the same bits alone and in any batch.
The cell exponential is a polynomial in the momentum fed to a Taylor series
(or, for a large argument, to exp); the polynomial coefficients are real,
depend on V and the mesh level alone, and are written out from the Magnus
formula (_cell_coefficients). Each xhat_function closure builds them once
per level in a table of its own. jost_solve, scattering_matrix and the
confirmation of every located resonance use adaptive DOP853 (_solve_m), an
independent check on the Magnus values at the points that are reported.
The stepper is Hairer's compiled DOP853 as scipy ships it (solve_ivp), run
on the stacked complex state viewed as interleaved reals. A batch of n
momenta shares one stacked solve per piece of V; its error norm is an RMS
over 4n reals, so rtol and atol are divided by sqrt(2n), which holds each
momentum to the bound of a lone solve (_jost_many). The stepper never
releases the callback it is handed, so that is a module-level function
and each solve's right-hand side travels in its extra arguments. Its
steps are compiled, but every right-hand-side evaluation is a Python call,
so the right-hand side asks V for one float point (Potential hands it to
its core as a float, at the bits of the array call) and writes m' and
V m - 2ik m' into one fresh array. The scattering matrix on a real grid is
one such batch: V is real, so Y(k) = conj Y(-k). solve_ivp imports
scipy.integrate on the first DOP853 solve, so that a process which never
makes one does not pay for that import.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .ftransform import pair_function
from .potential import Potential
from .rootscan import Rectangle, ZeroSet, locate_zeros, match_zero_sets

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# the transmission coefficient divides by ik and the normalization of the
# Jost data degenerates at the origin, so scans keep this distance from k = 0
EXCLUSION_RADIUS = 0.05
POLE_FLOOR = 1e-12
# The rungs (reach, nodes) of spectral_resonances: its one collocation
# block takes the nodes of the first rung whose reach holds |k| L, or of
# the last. The reach is the |k| L up to which every eigenvalue lay within
# 1e-6 relative of a zero of X on both gaussian-sharp and poly-bump (L = 1,
# zeros to |k| = 150): 65 nodes miss by 1.0e-6 at 75.5 on poly-bump (and
# by 1.6e-6 at 88.4 on gaussian-sharp), 97 by 1.0e-6 at 119.3 on poly-bump
# (4.1e-6 at 148.0 on gaussian-sharp). More nodes round worse at depth, as
# the collocated u'' rounds at about n^4 eps: 113 and 129 miss 1e-6 below
# |k| = 72 on poly-bump, so the ladder stops at 97. The eig of 97 nodes
# takes about twice the time of 65.
SPECTRAL_RUNGS = ((75.0, 65), (119.0, 97))
# no DOP853 solve is handed a smaller rtol: near 100 eps the rounding of a
# step is a sizeable share of what its error estimate measures, so a
# smaller rtol would only shrink the steps
RTOL_FLOOR = 100.0 * np.finfo(float).eps


class JostIntegrationError(RuntimeError):
    """Jost data could not be computed or confirmed; the message names k."""


class JostData(NamedTuple):
    k: complex
    x_hat: complex
    y_hat_minus: complex          # the coefficient of e^{-ikx}, i.e. Y(-k)


class ScatteringMatrix(NamedTuple):
    k: float
    t: complex                    # transmission ik / X(k)
    r_right: complex              # reflection from the right, Y(k) / X(k)
    l_left: complex               # reflection from the left, Y(-k) / X(k)
    unitarity_defect: float       # | |t|^2 + |r_right|^2 - 1 |


# Hairer's DOP853 return codes below zero, in scipy's words
_DOP_MESSAGES = {
    -1: "input is not consistent",
    -2: "larger nsteps is needed",
    -3: "step size becomes too small",
    -4: "problem is probably stiff (interrupted)",
}
# steps one DOP853 solve may take before it stops with "larger nsteps is
# needed", so that no solve can loop
MAX_STEPS = 100_000


class OdeResult(NamedTuple):
    t: float                      # the x reached
    y: np.ndarray                 # the complex state there
    success: bool
    message: str
    nfev: int                     # right-hand-side evaluations


def _dop_fcn(x, y, fun):
    """The stepper's right-hand side: fun on the complex view of y."""
    return fun(x, y.view(complex)).view(float)


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float) -> OdeResult:
    """Integrate y' = fun(x, y) over t_span with scipy's compiled DOP853.

    This is Hairer's code (Hairer, Norsett and Wanner, Solving ODEs I,
    II.10) as scipy.integrate ships it. The complex state y0 goes to it as
    interleaved reals, so its RMS error norm runs over the real and
    imaginary parts one by one; fun takes x and the complex state and
    returns a fresh complex array. The stepper never releases the fcn it
    is handed, so that is the module-level _dop_fcn, and each solve's fun
    travels in the extra-arguments tuple, which is released: a closure
    handed over per solve would stay alive with everything it holds. No
    step callback is asked for (iout = 0), so solout is None.
    scipy.integrate is imported on the first call, as importing it costs
    about 0.5 s and most processes make no DOP853 solve. _solve_m calls
    this through the module global, so a replacement of scatter.solve_ivp
    sees every solve.
    """
    from scipy.integrate import _dop

    y0 = np.ascontiguousarray(y0, dtype=complex).view(float)
    work = np.zeros(11 * y0.size + 21)
    iwork = np.zeros(21, dtype=np.int32)
    # dopri853(fcn, x, y, xend, rtol, atol, solout, iout, work, iwork,
    #          nsteps, verbosity, fcn_extra_args) -> (x, y, idid)
    x, y, idid = _dop.dopri853(_dop_fcn, t_span[0], y0, t_span[1], rtol,
                               atol, None, 0, work, iwork, MAX_STEPS, -1,
                               (fun,))
    return OdeResult(float(x), y.view(complex), idid > 0,
                     _DOP_MESSAGES.get(idid, f"return code {idid}"),
                     int(iwork[16]))


def _solve_m(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """Batched m(0), m'(0) for all momenta in ks (flat complex array).

    One adaptive solve per piece of V carries the whole batch; the state is
    (m, m') stacked over momenta, which solve_ivp hands to the compiled
    stepper as interleaved reals. DOP853 controls an RMS norm of the error
    over that whole state, so rtol and atol bound the batch, not each
    momentum (_jost_many shrinks them to do that), and each result depends
    in its last bits on the batch it was solved in. The right-hand side is
    a closure over the batch, so solve_ivp passes it to the stepper as an
    extra argument of a module-level callback, which the stepper releases.
    Integration restarts at interior breakpoints of V to keep the
    high-order method on smooth segments.
    """
    nk = ks.size
    two_ik = 2j * ks

    def rhs(x, y):
        # a fresh array per call, so that no caller of fun sees one result
        # overwritten by the next; the ops and their operand order are
        # those of v(x) * m - two_ik * mp, so the bits are too
        mp = y[nk:]
        dy = np.empty_like(y)
        dy[:nk] = mp
        np.multiply(v(x), y[:nk], out=dy[nk:])
        dy[nk:] -= two_ik * mp
        return dy

    y = np.concatenate([np.ones(nk, dtype=complex), np.zeros(nk, dtype=complex)])
    ends = v.edges[::-1]
    for a, b in zip(ends, ends[1:]):
        sol = solve_ivp(rhs, (a, b), y, rtol=rtol, atol=atol)
        if not sol.success:
            batch = "" if nk == 1 else f" (first of a batch of {nk})"
            raise JostIntegrationError(
                f"k = {complex(ks[0]):.6g}{batch}: {sol.message}; stopped "
                f"at x = {sol.t:.6g}")
        y = sol.y
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


def _cell_coefficients(vs: np.ndarray, h: float):
    """The entries p, q, r of Omega0 on each cell as polynomials in p1.

    vs holds V at the three Gauss nodes of each cell (shape (cells, 3)) and
    h is the signed step. With w = 2ik the system matrix is -(w/2) I + A0,
    A0 = [[w/2, 1], [V, -w/2]] traceless, so the scalar part contributes
    exactly e^{-wh/2} per cell, which _magnus_m applies once per piece.
    Omega0 is the sixth-order three-point Magnus term (Blanes, Casas, Oteo
    and Ros, Phys. Rep. 470, 2009) with alpha1 = h A0(mid),
    alpha2 = (sqrt(15) h / 3)(A0_3 - A0_1) and
    alpha3 = (10 h / 3)(A0_3 - 2 A0_2 + A0_1):

        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60,
        Omega0 = alpha1 + alpha3 / 12
                 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,

    written out below for traceless matrices [[p, q], [r, -p]], where
    [x, y] = (q1 r2 - q2 r1, 2 (p1 q2 - q1 p2), 2 (r1 p2 - p1 r2)) and
    alpha2, alpha3 have only an r entry. The momentum enters only through
    the entry p1 = (h/2) w of alpha1, so p, q and r are polynomials in p1
    of degrees 2, 1 and 3 whose real coefficients depend on the cell alone.
    Each comes back as a tuple of its coefficients, lowest degree first,
    every one a real array of shape (cells, 1). Every sum is grouped as in
    the formula above.
    """
    v1, v2, v3 = vs[:, 0:1], vs[:, 1:2], vs[:, 2:3]
    a2 = (np.sqrt(15.0) / 3.0 * h) * (v3 - v1)
    a3 = (10.0 / 3.0 * h) * ((v3 - 2.0 * v2) + v1)
    r1 = h * v2                                # alpha1 = (p1, h, r1)
    # the sums that start from 0.0 are those of a product of polynomials,
    # accumulated from +0.0, which fixes the sign of a vanishing coefficient
    # 2 alpha3 + C1 = (h a2, 0, y0 + y1 p1), as C1 = (h a2, 0, -2 a2 p1)
    y0, y1 = 2.0 * a3, -2.0 * a2
    # W = alpha2 + C2 = (wp0 + wp1 p1, wq, wr0 + wr1 p1 + wr2 p1^2)
    wp0, wp1 = (h * y0) / -60.0, (h * y1) / -60.0
    wq = (-2.0 * h * h * a2) / -60.0
    wr0 = a2 + (2.0 * (r1 * (h * a2))) / -60.0
    wr1 = (-2.0 * y0) / -60.0
    wr2 = (-2.0 * (0.0 + y1)) / -60.0
    # U = -20 alpha1 - alpha3 + C1 = (up0 - 20 p1, uq, ur0 + ur1 p1)
    up0, uq = h * a2, -20.0 * h
    ur0, ur1 = -20.0 * r1 - a3, -2.0 * a2
    # Omega0 = alpha1 + alpha3 / 12 + [U, W] / 240
    p = ((uq * wr0 - wq * ur0) / 240.0 + 0.0,
         (uq * wr1 - wq * ur1) / 240.0 + 1.0,
         (uq * wr2) / 240.0)
    q = (h + (2.0 * (up0 * wq - uq * wp0)) / 240.0,
         (2.0 * (-20.0 * wq - uq * wp1)) / 240.0)
    r = ((r1 + a3 / 12.0) + (2.0 * (0.0 + ur0 * wp0 - up0 * wr0)) / 240.0,
         (2.0 * ((0.0 + ur0 * wp1 + ur1 * wp0)
                 - (up0 * wr1 - 20.0 * wr0))) / 240.0,
         (2.0 * (0.0 + ur1 * wp1 - (up0 * wr2 - 20.0 * wr1))) / 240.0,
         (-2.0 * (0.0 - 20.0 * wr2)) / 240.0)
    return p, q, r


# Taylor coefficients in u = s^2 of cosh(s) = sum u^n / (2n)! and of
# sinh(s) / s = sum u^n / (2n + 1)!; on |u| <= 1 the first omitted terms
# are below 5e-19 and 1e-17 of the sums, which stay above 0.5 there
_COSH_SERIES = tuple(1.0 / math.factorial(2 * n) for n in range(10))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * n + 1) for n in range(9))


def _horner(coef, x):
    """sum coef[j] x^j, lowest degree first, by Horner's rule."""
    t = coef[-1] * x + coef[-2]
    for c in coef[-3::-1]:
        t *= x
        t += c
    return t


def _cell_propagators(coef, x: np.ndarray):
    """exp(Omega0) on each cell, as the entries (a, b, c, d) of [[a, b], [c, d]].

    coef holds the real coefficient tuples of p, q and r from
    _cell_coefficients, each coefficient of shape (cells, 1), and
    x = p1 = (h/2) 2ik has shape (1, momenta).
    Omega0 = [[p, q], [r, -p]] squares to u I with u = s^2 = p^2 + q r, so
    exp(Omega0) = cosh(s) I + sinh(s)/s Omega0, and both cosh(s) and
    sinh(s)/s are entire in u. Where |u| <= 1 they come from their Taylor
    series in u; elsewhere from e^s and its reciprocal, s = sqrt(u). The
    route is chosen per element, so a momentum has the same bits alone and
    in any batch.
    """
    pc, qc, rc = coef
    p, q, r = _horner(pc, x), _horner(qc, x), _horner(rc, x)
    u = p * p + q * r
    # the series of an element with |u| > 1 may overflow; it is replaced
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sc = _horner(_COSH_SERIES, u), _horner(_SINHC_SERIES, u)
    far = np.abs(u) > 1.0
    if far.any():
        s = np.sqrt(u[far])
        e = np.exp(s)
        ei = 1.0 / e
        ch[far] = 0.5 * (e + ei)
        sc[far] = 0.5 * (e - ei) / s
    scp = sc * p
    return ch + scp, sc * q, sc * r, ch - scp


def _bit_reversed(cells: int) -> np.ndarray:
    """0, ..., cells - 1 in bit-reversed order; cells is a power of two."""
    order = np.zeros(1, dtype=int)
    while order.size < cells:
        order = np.concatenate([2 * order, 2 * order + 1])
    return order


def _chain(a, b, c, d):
    """The product M[n-1] ... M[1] M[0] of n matrices stored bit-reversed.

    Position j holds cell _bit_reversed(n)[j], so positions j and j + n/2
    hold neighbouring cells 2i and 2i + 1, and their products again sit
    bit-reversed. Adjacent pairs multiply level by level, a pairwise tree
    of elementwise products on contiguous halves; n is a power of two.
    """
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        a0, b0, c0, d0 = a[:h], b[:h], c[:h], d[:h]
        a1, b1, c1, d1 = a[h:], b[h:], c[h:], d[h:]
        a, b, c, d = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    return a[0], b[0], c[0], d[0]


def _magnus_m(v: Potential, ks: np.ndarray, rtol: float, atol: float,
              table: dict | None = None):
    """m(0), m'(0) for the momenta in ks by sixth-order Magnus steps.

    Each piece of V between (L, *breakpoints, 0) carries 2**j uniform
    cells. The first sweep at a level samples V at the Gauss nodes of every
    cell once and stores, for each piece, the real coefficient tuples of p,
    q and r (_cell_coefficients) in table, under the level; later sweeps at
    that level, in this call or in any later call handed the same table,
    reuse them. The coefficients depend on V and the level alone, so a
    table never changes a value. Each momentum doubles its own cell count
    until |X_2n - X_n| / _RATE <= rtol (|X| + |Y(-k)|) + atol, and keeps
    the finer value. All arithmetic is
    elementwise per momentum, in blocks held below numpy's in-place
    threshold, so a momentum has the same bits alone and inside any batch.
    Overflow, and a momentum still above its target at 2**_LAST_LEVEL
    cells, raise JostIntegrationError naming k.
    """
    ends = v.edges[::-1]
    pieces = list(zip(ends, ends[1:]))       # (upper, lower), L down to 0
    ks = np.asarray(ks, dtype=complex)
    table = {} if table is None else table

    def sweep(idx, level):
        """m(0), m'(0) for ks[idx] on 2**level cells per piece."""
        cells = 1 << level
        if level not in table:
            nodes = (_bit_reversed(cells)[:, None] + _GAUSS3) / cells
            table[level] = [
                (hi, lo, _cell_coefficients(v(hi + nodes * (lo - hi)),
                                            (lo - hi) / cells))
                for hi, lo in pieces]
        m, mp = np.empty(idx.size, dtype=complex), np.empty(idx.size, dtype=complex)
        step = max(1, _BLOCK >> level)
        for start in range(0, idx.size, step):
            k = ks[idx[start:start + step]]
            w = 2j * k
            y0, y1 = np.ones(k.size, dtype=complex), np.zeros(k.size, dtype=complex)
            for hi, lo, coef in table[level]:
                x = (0.5 * (lo - hi) / cells) * w
                a, b, c, d = _chain(*_cell_propagators(coef, x[None, :]))
                e = np.exp((0.5 * (hi - lo)) * w)
                y0, y1 = (a * y0 + b * y1) * e, (c * y0 + d * y1) * e
                bad = ~(np.isfinite(y0) & np.isfinite(y1))
                if bad.any():
                    raise JostIntegrationError(
                        f"k = {complex(k[bad][0]):.6g}: Magnus propagator "
                        f"overflowed on the piece [{lo:.6g}, {hi:.6g}] with "
                        f"{cells} cells")
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
        f"[0, {v.support_length:.6g}] ({len(pieces)} pieces)")


def _x_and_y(ks, m0, mp0):
    """X(k) = ik m(0) + m'(0)/2 and Y(-k) = -m'(0)/2."""
    return 1j * ks * m0 + 0.5 * mp0, -0.5 * mp0


def _jost_many(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """X(k) and Y(-k) for the momenta in ks (flat complex).

    DOP853 accepts a step when the RMS of the scaled error over the 4n
    reals of the stacked state is at most 1, so in a batch of n momenta one
    momentum's share may be sqrt(n) times what its own reals allow. rtol
    and atol are divided by sqrt(2n): sqrt(n) for that share, and sqrt(2)
    more, without which Y(-k) on complex momenta came out less accurate
    than from a stepper that measures each complex entry by its modulus.
    The batch is cut into near-equal chunks small enough that
    rtol / sqrt(2n) stays at or above RTOL_FLOOR, and a lone momentum whose
    rtol / sqrt(2) is below it is solved at the floor; an rtol below the
    floor, or an atol that is not > 0 (NaN included), raises ValueError.
    """
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol = {rtol:.3g} is below the DOP853 floor "
                         f"100 eps = {RTOL_FLOOR:.3g}")
    if not atol > 0.0:
        raise ValueError(f"atol = {atol!r} is not positive")
    most = max(1, int((rtol / RTOL_FLOOR) ** 2 / 2.0))
    while most > 1 and rtol / np.sqrt(2.0 * most) < RTOL_FLOOR:
        most -= 1
    parts = []
    for c in np.array_split(ks, -(-ks.size // most)):
        shrink = np.sqrt(2.0 * c.size)
        parts.append(_solve_m(v, c, max(rtol / shrink, RTOL_FLOOR),
                              atol / shrink))
    m0, mp0 = (np.concatenate(p) for p in zip(*parts))
    x_hat, y_hat_minus = _x_and_y(ks, m0, mp0)
    bad = ~(np.isfinite(x_hat) & np.isfinite(y_hat_minus))
    if bad.any():
        raise JostIntegrationError(
            f"k = {complex(ks[bad][0]):.6g}: Jost data overflowed")
    return x_hat, y_hat_minus


def jost_solve(v: Potential, k, *, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> JostData:
    """Jost data at one momentum, or at each momentum of an array.

    A scalar k gives a JostData of Python scalars. An array gives a JostData
    of arrays of its shape, from one stacked DOP853 solve per piece of V
    (see _jost_many). k = 0 is excluded by the normalization, and a
    momentum that is not finite raises ValueError naming it.
    """
    ks = np.asarray(k, dtype=complex)
    if np.any(ks == 0):
        raise ValueError("k = 0: the ik normalization of the Jost data degenerates")
    finite = np.isfinite(ks)
    if not finite.all():
        raise ValueError(
            f"k = {complex(ks[~finite][0]):.6g}: not a finite momentum")
    if ks.size == 0:
        return JostData(ks, ks.copy(), ks.copy())
    x_hat, y_hat_minus = _jost_many(v, ks.ravel(), rtol, atol)
    if ks.ndim == 0:
        return JostData(complex(k), complex(x_hat[0]), complex(y_hat_minus[0]))
    return JostData(ks, x_hat.reshape(ks.shape), y_hat_minus.reshape(ks.shape))


def xhat_function(v: Potential, *, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Callable:
    """Vectorized k -> X(k) for the rectangle scans, shape in = shape out."""

    table = {}      # the Magnus cell coefficients of v, filled level by level

    def f(ks):
        arr = np.asarray(ks, dtype=complex)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=complex)
        ks = arr.ravel()
        m, mp = _magnus_m(v, ks, rtol, atol, table)
        return _x_and_y(ks, m, mp)[0].reshape(arr.shape)

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

    A scalar k returns a ScatteringMatrix, or raises ValueError at k = 0,
    at a k that is not finite, or next to a transmission pole. An array
    returns a list with one entry per momentum, in order: its
    ScatteringMatrix, or the ValueError that the scalar call would raise
    there. A scalar is a batch of one, so it has the bits of a lone solve.
    """
    ks = np.asarray(k, dtype=float)
    if ks.ndim > 1:
        raise ValueError("scattering_matrix takes a real momentum or a 1-D "
                         f"array of them, not shape {ks.shape}")
    flat = ks.ravel()
    finite = np.isfinite(flat)
    entries = [ValueError("k = 0: the transmission coefficient divides by ik")
               if kk == 0.0 else None for kk in flat]
    for i in np.flatnonzero(~finite):
        entries[i] = ValueError(f"k = {flat[i]:g}: not a finite momentum")
    live = np.flatnonzero(finite & (flat != 0.0))
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


def spectral_resonances(v: Potential, line: str,
                        k_max: float = 0.0) -> np.ndarray:
    """Outgoing eigenvalues of -u'' + V u = k^2 u on [0, L], as Newton starts.

    u is collocated on n Chebyshev points of [0, L], one block over the
    whole support, with u'(L) = ik u(L) and, on the full line (line
    "full"), u'(0) = -ik u(0), or on the half line ("half") u(0) = 0
    (Bindel and Zworski, Theory and computation of resonances in 1D
    scattering). n is the nodes of the first rung of SPECTRAL_RUNGS whose
    reach holds k_max L (by default the first rung), or of the last rung,
    where k_max is the largest |k| the caller needs resolved. The boundary
    rows are linear in k and the interior rows quadratic. With k = i kappa
    every row is real: kappa u = -u'(L) at L and kappa u = u'(0) at 0
    (full line), kappa^2 u = u'' - V u inside.
    Those rows, with w = kappa u at the interior nodes, are a standard
    eigenproblem kappa z = M z in z = (u, w), of order 2n - 2 on the full
    line and 2n - 3 on the half line, where u(0) = 0 leaves the unknowns;
    it is the companion pencil of the quadratic problem with its two or
    three infinite eigenvalues solved out (Tisseur and Meerbergen, SIAM
    Rev. 43, 2001). One real LAPACK eigenvalue call (numpy.linalg.eigvals)
    gives every kappa, and k = i kappa. The values come with no claim of
    accuracy: the resolved ones, those below the reach of the rung, are the
    zeros of X (full line) or of the Jost function m(0) (half line) to
    about 1e-6 relative, the others are artefacts of the discretization.
    """
    if line not in ("full", "half"):
        raise ValueError(f"line must be 'full' or 'half', not {line!r}")
    kl = k_max * v.support_length
    n = next((n for reach, n in SPECTRAL_RUNGS if kl <= reach),
             SPECTRAL_RUNGS[-1][1])
    j = np.arange(n)
    t = np.cos(np.pi * j / (n - 1))         # node j sits at x = L (1 + t) / 2
    c = np.where((j == 0) | (j == n - 1), 2.0, 1.0) * (-1.0) ** j
    d1 = np.outer(c, 1.0 / c) / (t[:, None] - t + np.eye(n))
    d1 -= np.diag(d1.sum(axis=1))
    d1 *= 2.0 / v.support_length
    d2 = d1 @ d1
    m = n if line == "full" else n - 1      # the unknowns u, then w
    inner = np.arange(1, n - 1)
    mat = np.zeros((m + n - 2, m + n - 2))
    mat[0, :m] = -d1[0, :m]
    if line == "full":
        mat[n - 1, :m] = d1[n - 1]
    mat[inner, m + inner - 1] = 1.0
    mat[m:, :m] = d2[1:n - 1, :m]
    mat[m + inner - 1, inner] -= v(0.5 * v.support_length * (1.0 + t[inner]))
    return 1j * np.linalg.eigvals(mat)


def resonances(v: Potential, rect: Rectangle, tol: float = 1e-10, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ZeroSet:
    """Zeros of X over the rectangle, canonically ordered by modulus.

    The zeros are certified on the Magnus X of xhat_function at rtol
    min(rtol, tol / 10): a Newton step of tol * max(1, |z|) can be trusted
    only from an X that is accurate well below it. rootscan.locate_zeros
    counts the rectangle and, unless it holds no zero, polishes its starts:
    the eigenvalues of spectral_resonances(v, "full", k_max) in the
    rectangle near that it asks them for, k_max the largest |k| of near.
    Where those do not account for the count, it searches the rectangle it
    counted instead. Every zero is then confirmed on the DOP853 path at
    rtol by _confirm_on_ode.
    """
    if rect.distance_to(0.0) < EXCLUSION_RADIUS:
        raise ValueError(f"rectangle comes within {EXCLUSION_RADIUS:g} of "
                         "k = 0; shift it")
    x = xhat_function(v, rtol=min(rtol, tol / 10.0), atol=atol)

    def starts(near):
        k_max = max(abs(complex(a, b)) for a in (near.re_min, near.re_max)
                    for b in (near.im_min, near.im_max))
        return spectral_resonances(v, "full", k_max)

    zs = locate_zeros(x, rect, tol, starts)
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
    x_hat, _ = _jost_many(v, ks, rtol, atol)
    x0, xp, xm = np.split(x_hat, 3)
    bound = tol * np.maximum(1.0, np.abs(z))
    # |m X / X'| <= bound, multiplied out so that X' = 0 fails unless X = 0
    ok = np.abs(mult * x0 * (2.0 * h)) <= bound * np.abs(xp - xm)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        step = mult[i] * x0[i] * 2.0 * h[i] / (xp[i] - xm[i])
        raise JostIntegrationError(
            f"resonance {z[i]:.10g} is not confirmed on the DOP853 path: its "
            f"Newton step {abs(step):.3g} exceeds {bound[i]:.3g}")


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
