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


def _solve_m(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    """Batched m(0), m'(0) for all momenta in ks (flat complex array).

    One adaptive solve carries the whole batch; the state is (m, m') stacked
    over momenta, and DOP853 controls an RMS norm of the error over that
    whole state, so one momentum's error can exceed rtol while the batch
    passes, and each result depends in its last bits on the batch it was
    solved in. Integration restarts at interior breakpoints of V to keep the
    high-order method on smooth segments.
    """
    nk = ks.size
    L = v.support_length
    two_ik = 2j * ks

    def rhs(x, y):
        m, mp = y[:nk], y[nk:]
        return np.concatenate([mp, v(x) * m - two_ik * mp])

    stops = [L] + sorted((b for b in v.breakpoints if 0.0 < b < L),
                         reverse=True) + [0.0]
    y = np.concatenate([np.ones(nk, dtype=complex), np.zeros(nk, dtype=complex)])
    for a, b in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            raise JostIntegrationError(sol.message, float(sol.t[-1]))
        y = sol.y[:, -1]
    return y[:nk], y[nk:]


def _jost_many(v: Potential, ks: np.ndarray, rtol: float, atol: float):
    m0, mp0 = _solve_m(v, ks, rtol, atol)
    x_hat = 1j * ks * m0 + 0.5 * mp0
    y_hat_minus = -0.5 * mp0
    if not (np.all(np.isfinite(x_hat)) and np.all(np.isfinite(y_hat_minus))):
        raise JostIntegrationError("Jost data overflowed", 0.0)
    err = rtol * (np.abs(x_hat) + np.abs(y_hat_minus)) + atol
    return x_hat, y_hat_minus, err


def jost_solve(v: Potential, k: complex, *, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> JostData:
    """Jost data at one momentum; k = 0 is excluded by the normalization."""
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0: the ik normalization of the Jost data degenerates")
    x_hat, y_hat_minus, err = _jost_many(v, np.array([k]), rtol, atol)
    return JostData(k, complex(x_hat[0]), complex(y_hat_minus[0]), float(err[0]))


def xhat_function(v: Potential, *, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Callable:
    """Vectorized k -> X(k), shaped for the rectangle-scan machinery."""

    def f(ks):
        arr = np.asarray(ks, dtype=complex)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=complex)
        x_hat, _, _ = _jost_many(v, arr.ravel(), rtol, atol)
        x_hat = x_hat.reshape(arr.shape)
        return complex(x_hat) if arr.ndim == 0 else x_hat

    return f


def scattering_matrix(v: Potential, k: float, *, rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> ScatteringMatrix:
    """T, R, L at a real momentum, assembled from solves at k and -k.

    The solve at k yields X(k) and Y(-k); the solve at -k yields Y(k). The
    defect | |T|^2 + |R|^2 - 1 | is reported, not asserted.
    """
    k = float(k)
    if k == 0.0:
        raise ValueError("k = 0: the transmission coefficient divides by ik")
    plus = jost_solve(v, k, rtol=rtol, atol=atol)
    minus = jost_solve(v, -k, rtol=rtol, atol=atol)
    if abs(plus.x_hat) <= POLE_FLOOR * max(1.0, abs(k)):
        raise ValueError(f"k = {k:.15g}: transmission pole proximity, "
                         f"|X(k)| = {abs(plus.x_hat):.3e}")
    t = 1j * k / plus.x_hat
    r_right = minus.y_hat_minus / plus.x_hat
    l_left = plus.y_hat_minus / plus.x_hat
    defect = abs(abs(t) ** 2 + abs(r_right) ** 2 - 1.0)
    return ScatteringMatrix(k, t, r_right, l_left, defect)


def resonances(v: Potential, rect: Rectangle, tol: float = 1e-10, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> ZeroSet:
    """Zeros of X over the rectangle, canonically ordered by modulus."""
    if rect.distance_to(0.0) < EXCLUSION_RADIUS:
        raise ValueError(f"rectangle comes within {EXCLUSION_RADIUS:g} of "
                         "k = 0; shift it")
    return locate_zeros(xhat_function(v, rtol=rtol, atol=atol), rect, tol)


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
    pairs = ()
    if n > 0:
        trimmed_a = ZeroSet.from_pairs([(z, 1) for z in a[:n]], resolution=0.0)
        trimmed_b = ZeroSet.from_pairs([(z, 1) for z in b[:n]], resolution=0.0)
        matched = match_zero_sets(trimmed_a, trimmed_b)
        ordered = sorted(matched.pairs, key=lambda p: (abs(p[0]), np.angle(p[0])))
        pairs = tuple(FroesePair(s, z, abs(s - z), abs(s - z) / abs(s))
                      for s, z in ordered)
    first, last = _thirds_medians([p.distance for p in pairs], n)
    rel_first, rel_last = _thirds_medians([p.relative for p in pairs], n)
    return FroeseComparison(res, fz, pairs, first, last, rel_first, rel_last)
