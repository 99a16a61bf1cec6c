"""Entire-function Fourier data of a compactly supported potential.

The transform convention is

    Vhat(z) = integral_0^L V(x) exp(-i z x) dx,

an entire function of exponential type L. Everything downstream (resonance
comparisons, zero scans, truncated products) consumes either Vhat directly or
the symmetrized product F(z) = Vhat(2z) * Vhat(-2z), which is even and equals
|Vhat(2z)|^2 on the real axis.

There is one evaluation route. Each Potential holds the Legendre
coefficients c_n of V on every piece [m - h, m + h] between its breakpoints,
and integral_{-1}^{1} P_n(t) exp(-i w t) dt = 2 (-i)^n j_n(w) gives a piece
as h exp(-i z m) sum_n 2 (-i)^n c_n j_n(z h). rtol fixes how many orders are
summed. As |P_n| <= 1, the error estimate is the dropped 2 h |c_n| plus a
roundoff floor _ROUNDOFF integral |V|, both times exp(L max(0, Im z)). Every
step is elementwise, so a point has the same bits alone and in any batch.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import spherical_jn

from .potential import Potential
# not called here; perfbench/tracing.py hooks this name in this module
from .quadrature import adaptive_quadrature

__all__ = [
    "FourierEval", "PairEval", "ExpansionResult",
    "fourier", "fourier_many", "fourier_pair", "fourier_pair_many",
    "pair_function", "erdelyi_expansion", "asymptotic_residual",
    "conj_symmetry_residual", "indicator_estimate",
]

DEFAULT_RTOL = 1e-12
_ROUNDOFF = 1e-14       # relative roundoff floor of the Legendre sum
_SERIES_CUTOFF = 1e-4   # below this |w|, j_n(w) comes from its series
_EXP_CAP = 700.0        # exp() guard; beyond this the scale itself overflows


class FourierEval(NamedTuple):
    value: complex
    abs_error_estimate: float


class PairEval(NamedTuple):
    value: complex
    abs_error_estimate: float


class ExpansionResult(NamedTuple):
    lower_term: complex      # A_N, the x = 0 endpoint sum
    upper_term: complex      # B_N, the x = L endpoint sum
    value: complex           # B_N - A_N
    remainder_bound: float   # integral of |V^(N)| over the support, / |x|^N
    order: int


def fourier_many(v: Potential, zs, rtol: float = DEFAULT_RTOL):
    """Vectorized transform: (values, error_estimates, mask), flat.

    The fewest orders are summed whose dropped tails sum_{n>=N} |c_n| stay
    within rtol * integral |V| / L on every piece. The mask is all False;
    perfbench/tracing.py reads it as the retired boundary-route mask.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    length = v.support_length
    edges = np.array((0.0, *v.breakpoints, length))
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    mags = np.pad(np.abs(v.legendre), ((0, 0), (0, 1)))
    tails = np.cumsum(mags[:, ::-1], axis=1)[:, ::-1]
    kept = int(np.count_nonzero(
        np.any(tails > rtol * v.abs_moments[0] / length, axis=0)))
    dropped = 2.0 * float(half @ tails[:, kept])
    rows = 2.0 * v.legendre[:, :kept] * (-1j) ** np.arange(kept)

    # one column per piece; a multiply-add loop over the orders, not `@`,
    # keeps every point's bits independent of its batch
    w = zs[:, None] * half[None, :]
    tiny = np.abs(w) < _SERIES_CUTOFF  # spherical_jn gives nan on subnormals
    series = np.ones_like(w)           # w^n / (2n+1)!!
    acc = np.zeros_like(w)
    for n in range(rows.shape[1]):
        jn = np.where(tiny, series * (1.0 - w * w / (2.0 * (2 * n + 3))),
                      spherical_jn(n, w))
        acc = acc + rows[:, n] * jn
        series = series * w / (2 * n + 3)
    values = np.zeros(zs.shape, dtype=complex)
    for p in range(half.size):
        values = values + half[p] * np.exp(-1j * zs * mid[p]) * acc[:, p]

    grow = np.minimum(length * np.maximum(0.0, zs.imag), _EXP_CAP)
    errors = (dropped + _ROUNDOFF * v.abs_moments[0]) * np.exp(grow)
    return values, errors, np.zeros(zs.shape, dtype=bool)


def fourier(v: Potential, z: complex, rtol: float = DEFAULT_RTOL) -> FourierEval:
    """Transform at a single point with its truncation error estimate."""
    vals, errs, _ = fourier_many(v, [z], rtol)
    return FourierEval(complex(vals[0]), float(errs[0]))


def fourier_pair_many(v: Potential, zs, rtol: float = DEFAULT_RTOL):
    """F(z) = Vhat(2z) Vhat(-2z) for a batch, with propagated error estimates."""
    zs = np.asarray(zs, dtype=complex).ravel()
    vals, errs, _ = fourier_many(v, np.concatenate([2.0 * zs, -2.0 * zs]), rtol)
    (a, b), (ea, eb) = np.split(vals, 2), np.split(errs, 2)
    return a * b, np.abs(a) * eb + np.abs(b) * ea + ea * eb


def fourier_pair(v: Potential, z: complex, rtol: float = DEFAULT_RTOL) -> PairEval:
    vals, errs = fourier_pair_many(v, [z], rtol)
    return PairEval(complex(vals[0]), float(errs[0]))


def pair_function(v: Potential, rtol: float) -> Callable:
    """F(z) = Vhat(2z) Vhat(-2z) at tolerance rtol, shape in = shape out."""
    def f(zs):
        arr = np.asarray(zs, dtype=complex)
        vals, _ = fourier_pair_many(v, arr.ravel(), rtol)
        return vals.reshape(arr.shape)

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
    f = fourier_pair(v, z, rtol)
    return abs(4.0 * z * z * f.value - 1.0)


def conj_symmetry_residual(v: Potential, k: float, rtol: float = DEFAULT_RTOL) -> float:
    """|conj(Vhat(-2k)) - Vhat(2k)| for real k; zero for real potentials."""
    k = float(k)
    vals, _, _ = fourier_many(v, [2.0 * k, -2.0 * k], rtol)
    return abs(np.conj(vals[1]) - vals[0])


def indicator_estimate(v: Potential, theta: float, radii: Sequence[float],
                       rtol: float = DEFAULT_RTOL) -> float:
    """Least-squares slope of log |F(r e^{i theta})| against r.

    Estimates the indicator-function value of F along the ray; rays hugging
    the real axis give slope ~ 0 and the imaginary axis gives ~ 2L. Samples
    where F vanishes are re-drawn with a small radial jitter.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2:
        raise ValueError("need at least two radii for a slope")
    direction = np.exp(1j * theta)
    logs = np.empty(radii.shape)
    rs = radii.astype(float).copy()
    for i, r in enumerate(rs):
        for _ in range(8):
            val, err = fourier_pair_many(v, [r * direction], rtol)
            if abs(val[0]) > max(10.0 * err[0], 1e-280):
                break
            r *= 1.0 + 1e-3  # direction passes near a zero of F; nudge outward
        else:
            raise ValueError(f"F vanished along the ray near r = {r:g}")
        rs[i] = r
        logs[i] = math.log(abs(val[0]))
    slope = np.polyfit(rs, logs, 1)[0]
    return float(slope)
