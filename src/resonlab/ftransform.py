"""Entire-function Fourier data of a compactly supported potential.

The transform convention is

    Vhat(z) = integral_0^L V(x) exp(-i z x) dx,

an entire function of exponential type L. Everything downstream (resonance
comparisons, zero scans, truncated products) consumes either Vhat directly or
the symmetrized product F(z) = Vhat(2z) * Vhat(-2z), which is even and equals
|Vhat(2z)|^2 on the real axis.

Two evaluation routes are used. Moderate frequencies go straight to adaptive
Gauss-Kronrod panels pre-split to the oscillation rate. Once |Re z| exceeds
50/L oscillations' worth (|Re z| >= 50 L), two integrations by parts peel off
the endpoint contributions analytically and the quadrature only sees the
second-derivative remainder, scaled down by |z|^2. Both routes report an
absolute error estimate from the nested-rule differences.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .potential import Potential
from .quadrature import adaptive_quadrature

__all__ = [
    "FourierEval", "PairEval", "ExpansionResult",
    "fourier", "fourier_many", "fourier_pair", "fourier_pair_many",
    "pair_function", "erdelyi_expansion", "asymptotic_residual",
    "conj_symmetry_residual", "indicator_estimate",
]

DEFAULT_RTOL = 1e-12
_OSC_SWITCH = 50.0  # boundary-expansion route beyond |Re z| = 50 * L
_EXP_CAP = 700.0    # exp() guard; beyond this the scale itself overflows


class FourierEval(NamedTuple):
    value: complex
    abs_error_estimate: float
    method: str  # "adaptive-quadrature" | "boundary-expansion"


class PairEval(NamedTuple):
    value: complex
    abs_error_estimate: float


class ExpansionResult(NamedTuple):
    lower_term: complex      # A_N, the x = 0 endpoint sum
    upper_term: complex      # B_N, the x = L endpoint sum
    value: complex           # B_N - A_N
    remainder_bound: float   # integral of |V^(N)| over the support, / |x|^N
    order: int


def _osc_panels(re_max: float, length: float) -> int:
    # one initial panel per ~1.5 oscillation periods, capped; refinement
    # handles the rest adaptively
    return min(512, max(2, int(re_max * length / (3.0 * math.pi)) + 1))


def _direct_batch(v: Potential, zs: np.ndarray, atol: np.ndarray):
    length = v.support_length

    def integrand(x):
        return v(x)[None, :] * np.exp(-1j * zs[:, None] * x[None, :])

    return adaptive_quadrature(
        integrand, 0.0, length, atol=atol,
        breakpoints=v.breakpoints,
        min_panels=_osc_panels(float(np.max(np.abs(zs.real))), length))


def _boundary_batch(v: Potential, zs: np.ndarray, atol: np.ndarray):
    # Two integrations by parts against exp(-izx); D = -iz:
    #   Vhat(z) = (V(L) e^{DL} - V(0))/D - (V'(L) e^{DL} - V'(0))/D^2
    #             + (1/D^2) * integral V'' e^{Dx} dx
    length = v.support_length
    d = -1j * zs
    edge = np.exp(d * length)
    v0, vL = v.left_value, v.right_value
    s0, sL = v.left_slope, v.right_slope
    boundary = (vL * edge - v0) / d - (sL * edge - s0) / d ** 2

    def integrand(x):
        return v.derivative(x, 2)[None, :] * np.exp(-1j * zs[:, None] * x[None, :])

    zsq = np.abs(zs) ** 2
    rem, err = adaptive_quadrature(
        integrand, 0.0, length, atol=atol * zsq,
        breakpoints=v.breakpoints,
        min_panels=_osc_panels(float(np.max(np.abs(zs.real))), length))
    return boundary + rem / d ** 2, err / zsq


def fourier_many(v: Potential, zs, rtol: float = DEFAULT_RTOL):
    """Vectorized transform evaluation.

    Returns (values, error_estimates, boundary_route_mask) over the flat
    input. The requested absolute tolerance per point is
    rtol * exp(L * max(0, Im z)) * integral |V|, the natural scale of the
    integrand.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    length = v.support_length
    mass = max(v.abs_moments[0], 1e-300)
    grow = np.minimum(length * np.maximum(0.0, zs.imag), _EXP_CAP)
    atol = rtol * mass * np.exp(grow)

    values = np.zeros(zs.shape, dtype=complex)
    errors = np.zeros(zs.shape, dtype=float)
    boundary_mask = np.abs(zs.real) >= _OSC_SWITCH * length
    if np.any(~boundary_mask):
        idx = ~boundary_mask
        values[idx], errors[idx] = _direct_batch(v, zs[idx], atol[idx])
    if np.any(boundary_mask):
        idx = boundary_mask
        values[idx], errors[idx] = _boundary_batch(v, zs[idx], atol[idx])
    return values, errors, boundary_mask


def fourier(v: Potential, z: complex, rtol: float = DEFAULT_RTOL) -> FourierEval:
    """Transform at a single point with a Gauss-Kronrod error estimate."""
    vals, errs, routes = fourier_many(v, [z], rtol)
    method = "boundary-expansion" if routes[0] else "adaptive-quadrature"
    return FourierEval(complex(vals[0]), float(errs[0]), method)


def fourier_pair_many(v: Potential, zs, rtol: float = DEFAULT_RTOL):
    """F(z) = Vhat(2z) Vhat(-2z) for a batch, with propagated error estimates."""
    zs = np.asarray(zs, dtype=complex).ravel()
    stacked = np.concatenate([2.0 * zs, -2.0 * zs])
    vals, errs, _ = fourier_many(v, stacked, rtol)
    n = zs.size
    a, b = vals[:n], vals[n:]
    ea, eb = errs[:n], errs[n:]
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
