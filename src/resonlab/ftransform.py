"""Entire-function Fourier data of a compactly supported potential.

The transform convention is

    Vhat(z) = integral_0^L V(x) exp(-i z x) dx,

an entire function of exponential type L. Everything downstream (resonance
comparisons, zero scans, truncated products) consumes either Vhat directly or
the symmetrized product F(z) = Vhat(2z) * Vhat(-2z), which is even and equals
|Vhat(2z)|^2 on the real axis. pair_function is the one entry point for F.

There is one evaluation route. Each Potential holds the Legendre
coefficients c_n of V on every piece [m - h, m + h] between its breakpoints,
and integral_{-1}^{1} P_n(t) exp(-i w t) dt = 2 (-i)^n j_n(w) gives a piece
as h exp(-i z m) sum_n 2 (-i)^n c_n j_n(z h). rtol fixes how many orders are
summed. As |P_n| <= 1, the error estimate is the dropped 2 h |c_n| plus a
roundoff floor _ROUNDOFF integral |V|, both times exp(L max(0, Im z)).

All kept orders j_0 ... j_{N-1} come from one three-term recurrence: upward
from j_0 = sin w / w and j_1 where |w| >= N and N^2 |Im w| < 8 |w|^2, and
Miller's backward recurrence on the ratios j_n / j_{n-1}, from the fixed
index 2N + 24, everywhere else; a two-term series replaces both below
|w| = _SERIES_CUTOFF. Every step is elementwise and the start index depends
only on N, so a point has the same bits alone and in any batch, and the
sums run in blocks of _BLOCK points x pieces.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .potential import Potential
# not called here; perfbench/tracing.py hooks this name in this module
from .quadrature import adaptive_quadrature

__all__ = [
    "ExpansionResult", "fourier_many", "pair_function", "erdelyi_expansion",
    "asymptotic_residual", "conj_symmetry_residual",
]

DEFAULT_RTOL = 1e-12
_ROUNDOFF = 1e-14       # relative roundoff floor of the Legendre sum
_SERIES_CUTOFF = 1e-4   # below this |w|, j_n(w) comes from its series
_EXP_CAP = 700.0        # exp() guard; beyond this the scale itself overflows
# points x pieces per block of the Bessel table and its sums: the table holds
# orders x points x pieces complex values, so the block, not the batch or the
# number of pieces, bounds its memory (as scatter._BLOCK does for cells x
# momenta); with one piece a block is 4096 points
_BLOCK = 1 << 12


class ExpansionResult(NamedTuple):
    lower_term: complex      # A_N, the x = 0 endpoint sum
    upper_term: complex      # B_N, the x = L endpoint sum
    value: complex           # B_N - A_N
    remainder_bound: float   # integral of |V^(N)| over the support, / |x|^N
    order: int


def _spherical_jn_all(w: np.ndarray, count: int) -> np.ndarray:
    """j_0(w), ..., j_{count-1}(w) for a complex array w, on a new first axis.

    The recurrence j_{n+1} = (2n+1)/w j_n - j_{n-1} (Abramowitz & Stegun
    10.1.19) runs upward where |w| >= count and count^2 |Im w| < 8 |w|^2.
    Elsewhere it loses digits upward: below |w| = count, and off the real
    axis, where j_n falls with n as i_n does on the imaginary axis. There
    Miller's algorithm runs the ratios r_n = j_n / j_{n-1} down from r = 0
    at index 2 count + 24 and chains them from j_0, or from j_1 where
    |j_1| > |j_0|, as j_0 vanishes at w = pi, 2 pi, ... Ratios, not values:
    a value seeded at 2 count + 24 overflows for small |w|.
    """
    out = np.empty((count, *w.shape), dtype=complex)
    if count == 0:
        return out
    tiny = np.abs(w) < _SERIES_CUTOFF  # the recurrences divide by w
    safe = np.where(tiny, 1.0, w)
    j0 = np.sin(safe) / safe
    out[0] = j0
    if count > 1:
        j1 = (j0 - np.cos(safe)) / safe
        # relative to exp(|Im w|) / |w|, the upward error grows about like
        # exp(count^2 |Im w| / (2 |w|^2)); where that exponent is 4 or more,
        # the ratios from the same start index converge to roundoff instead
        mag = np.abs(safe)
        small = (mag < count) | (count * count * np.abs(safe.imag)
                                 >= 8.0 * mag * mag)
        big = ~small
        wb, prev, jn = safe[big], j0[big], j1[big]
        out[1, big] = jn
        for n in range(1, count - 1):
            prev, jn = jn, (2 * n + 1) / wb * jn - prev
            out[n + 1, big] = jn

        ws = safe[small]
        r, ratios = np.zeros_like(ws), [None] * count
        for n in range(2 * count + 23, 0, -1):
            r = ws / ((2 * n + 1) - ws * r)
            if n < count:
                ratios[n] = r
        j0s, j1s = j0[small], j1[small]
        jn = np.where(np.abs(j1s) > np.abs(j0s), j1s, j0s * ratios[1])
        out[1, small] = jn
        for n in range(2, count):
            jn = jn * ratios[n]
            out[n, small] = jn
    if tiny.any():
        wt = w[tiny]
        series = np.ones_like(wt)  # w^n / (2n+1)!!
        for n in range(count):
            out[n, tiny] = series * (1.0 - wt * wt / (2.0 * (2 * n + 3)))
            series = series * wt / (2 * n + 3)
    return out


def _legendre_sum(zs: np.ndarray, half: np.ndarray, mid: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """sum_p half_p exp(-i z mid_p) sum_n rows[p, n] j_n(z half_p), flat.

    Its Bessel table lives only inside the call, so a caller that loops
    over blocks holds one table at a time.
    """
    # one column per piece; a multiply-add loop over the orders, not `@`,
    # keeps every point's bits independent of its batch
    w = zs[:, None] * half[None, :]
    acc = np.zeros_like(w)
    for n, jn in enumerate(_spherical_jn_all(w, rows.shape[1])):
        acc = acc + rows[:, n] * jn
    values = np.zeros(zs.shape, dtype=complex)
    for p in range(half.size):
        values = values + half[p] * np.exp(-1j * zs * mid[p]) * acc[:, p]
    return values


def fourier_many(v: Potential, zs, rtol: float = DEFAULT_RTOL):
    """Vectorized transform: (values, error_estimates, mask), flat.

    The fewest orders are summed whose dropped tails sum_{n>=N} |c_n| stay
    within rtol * integral |V| / L on every piece. The mask is all False;
    perfbench/tracing.py reads it as the retired boundary-route mask.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    length = v.support_length
    edges = np.array(v.edges)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    mags = np.pad(np.abs(v.legendre), ((0, 0), (0, 1)))
    tails = np.cumsum(mags[:, ::-1], axis=1)[:, ::-1]
    kept = int(np.count_nonzero(
        np.any(tails > rtol * v.abs_moments[0] / length, axis=0)))
    dropped = 2.0 * float(half @ tails[:, kept])
    rows = 2.0 * v.legendre[:, :kept] * (-1j) ** np.arange(kept)

    values = np.empty(zs.shape, dtype=complex)
    step = max(1, _BLOCK // half.size)
    for lo in range(0, zs.size, step):
        values[lo:lo + step] = _legendre_sum(zs[lo:lo + step], half, mid, rows)

    grow = np.minimum(length * np.maximum(0.0, zs.imag), _EXP_CAP)
    errors = (dropped + _ROUNDOFF * v.abs_moments[0]) * np.exp(grow)
    return values, errors, np.zeros(zs.shape, dtype=bool)


def pair_function(v: Potential, rtol: float) -> Callable:
    """F(z) = Vhat(2z) Vhat(-2z) at tolerance rtol, shape in = shape out.

    Both halves come from one fourier_many call on [2z, -2z]; its error
    estimates are not used.
    """
    def f(zs):
        arr = np.asarray(zs, dtype=complex)
        flat = arr.ravel()
        vals, _, _ = fourier_many(
            v, np.concatenate([2.0 * flat, -2.0 * flat]), rtol)
        a, b = np.split(vals, 2)
        return (a * b).reshape(arr.shape)

    return f


def erdelyi_expansion(v: Potential, x: float, order: int) -> ExpansionResult:
    """Endpoint expansion of integral_0^L V(t) exp(+ixt) dt.

    The two endpoint sums are

        A_N(x) = sum_{n<N} i^{n-1} V^(n)(0) x^{-n-1}
        B_N(x) = sum_{n<N} i^{n-1} V^(n)(L) x^{-n-1} exp(ixL)

    and B_N - A_N approximates the integral with remainder bounded by
    integral |V^(N)| / |x|^N.
    """
    if order not in (1, 2):
        raise ValueError("expansion order must be 1 or 2")
    if abs(x) < 1.0:
        raise ValueError("expansion needs |x| >= 1")
    length = v.support_length
    lower = 0.0 + 0.0j
    upper = 0.0 + 0.0j
    phase = np.exp(1j * x * length)
    for n in range(order):
        coeff = 1j ** (n - 1) * x ** (-n - 1)
        lower += coeff * v.endpoint_data(n, "left")
        upper += coeff * v.endpoint_data(n, "right") * phase
    bound = v.abs_moments[order] / abs(x) ** order
    return ExpansionResult(complex(lower), complex(upper),
                           complex(upper - lower), float(bound), order)


def asymptotic_residual(v: Potential, z: float, rtol: float = DEFAULT_RTOL) -> float:
    """|4 z^2 F(z) - 1| on the real axis; tends to 0 for normalized V."""
    z = float(z)
    if abs(z) < 1.0:
        raise ValueError("asymptotic residual defined for |z| >= 1")
    return abs(4.0 * z * z * pair_function(v, rtol)(z) - 1.0)


def conj_symmetry_residual(v: Potential, k: float, rtol: float = DEFAULT_RTOL) -> float:
    """|conj(Vhat(-2k)) - Vhat(2k)| for real k; zero for real potentials."""
    k = float(k)
    vals, _, _ = fourier_many(v, [2.0 * k, -2.0 * k], rtol)
    return abs(np.conj(vals[1]) - vals[0])
