"""Compactly supported potentials on [0, L].

Every potential evaluates to zero outside its support interval. The
reference family is normalized so that V(0) = 1, V'(0) = 0, and
Potential.unit_normalized says whether that normalization holds.

Each family has one core, V^(order) on the support, which serves both the
array call and the scalar call. A float (a Python float or np.float64, which
the DOP853 right-hand side passes one point at a time) reaches the core as
a float, with no one-element array around it. A closed-form core uses numpy
ufunc calls and + - * / only, never **: on a numpy scalar ** goes to libm
pow, while the array loop of np.power is numpy's own, and the two differ in
the last bit at some points. (The table's core is scipy's CubicSpline,
which evaluates a float through its array path.) Written that way, the
scalar call returns the bits of the array call at every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg

from .quadrature import adaptive_quadrature

__all__ = [
    "Potential", "make_poly_bump", "make_truncated_gaussian", "load_table",
]

_NORMALIZATION_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Potential:
    """A potential supported on [0, support_length], evaluable to order 2.

    Instances are immutable; the callable core is set once by a constructor
    and the absolute moments (integrals of |V|, |V'|, |V''|) are precomputed
    for tolerance scaling and expansion remainder bounds. The smooth pieces
    of V lie between consecutive ``edges`` (0, *breakpoints, L), and row p
    of ``legendre`` holds the c_n of V(mid + half t) = sum c_n P_n(t) on
    the p-th piece.
    """

    support_length: float
    kind: str
    breakpoints: tuple = ()
    abs_moments: tuple = (0.0, 0.0, 0.0)
    legendre: np.ndarray = None
    _core: Callable[[float | np.ndarray, int], float | np.ndarray] = field(
        repr=False, default=None)
    edges: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           (0.0, *self.breakpoints, self.support_length))

    def _evaluate(self, x, order: int):
        if order not in (0, 1, 2):
            raise ValueError("derivatives available up to order 2 only")
        if not isinstance(x, float):
            arr = np.asarray(x, dtype=float)
            if arr.ndim:
                out = np.zeros(arr.shape)
                mask = (arr >= 0.0) & (arr <= self.support_length)
                if mask.any():
                    out[mask] = self._core(arr[mask], order)
                return out
            x = float(arr)
        if 0.0 <= x <= self.support_length:
            return float(self._core(x, order))
        return 0.0

    def __call__(self, x):
        return self._evaluate(x, 0)

    def derivative(self, x, order: int = 1):
        return self._evaluate(x, order)

    @property
    def unit_normalized(self) -> bool:
        """V(0) = 1 and V'(0) = 0 to within _NORMALIZATION_TOL."""
        return (abs(self.endpoint_data(0, "left") - 1.0) <= _NORMALIZATION_TOL
                and abs(self.endpoint_data(1, "left")) <= _NORMALIZATION_TOL)

    def endpoint_data(self, order: int, side: str) -> float:
        """Value of V^(order) at the support edge, taken from inside."""
        if order not in (0, 1, 2):
            raise ValueError("derivatives available up to order 2 only")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        edge = 0.0 if side == "left" else self.support_length
        return float(self._core(edge, order))


def _abs_moment(core: Callable, length: float, order: int,
                breakpoints: Sequence[float]) -> float:
    def integrand(x):
        return np.abs(core(x, order))
    scale = float(np.max(integrand(np.linspace(0.0, length, 64)))) + 1e-300
    val, _ = adaptive_quadrature(integrand, 0.0, length,
                                 atol=1e-13 * scale * length, rtol=1e-11,
                                 breakpoints=breakpoints, min_panels=4)
    return float(np.real(val))


def _legendre_table(v: Potential) -> np.ndarray:
    """Legendre coefficients of V, one zero-padded row per piece.

    Gauss-Legendre node counts double until every row's last four sums sink
    below their roundoff floor 16 (n + 1) eps max|V|, which then zeroes them.
    """
    edges = np.array(v.edges)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    for m in (16, 32, 64, 128, 256):
        t, w = npleg.leggauss(m)
        vals = v(mid[:, None] + half[:, None] * t)
        c = (vals * w) @ npleg.legvander(t, m - 1) * (np.arange(m) + 0.5)
        floor = (16.0 * _EPS * np.max(np.abs(vals), axis=1, keepdims=True)
                 * np.arange(1, m + 1))
        if np.all(np.abs(c[:, -4:]) <= floor[:, -4:]):
            c[np.abs(c) <= floor] = 0.0
            return c[:, :np.max(np.flatnonzero(c.any(axis=0)), initial=-1) + 1]
    raise ValueError(f"{m} Legendre terms do not resolve V on every piece")


def _build(kind: str, length: float, core: Callable,
           breakpoints: Sequence[float] = ()) -> Potential:
    if not length > 0.0:
        raise ValueError("support length must be positive")
    bp = tuple(float(t) for t in breakpoints)
    moments = tuple(_abs_moment(core, length, n, bp) for n in range(3))
    v = Potential(support_length=length, kind=kind, breakpoints=bp,
                  abs_moments=moments, _core=core)
    return replace(v, legendre=_legendre_table(v))


def make_poly_bump(support_length: float = 1.0) -> Potential:
    """V(x) = (1 - (x/L)^2)^3 on [0, L]: normalized, C2 across the right edge."""
    L = float(support_length)

    def core(x, order):
        u = x / L
        w = 1.0 - u * u
        if order == 0:
            return np.power(w, 3)
        if order == 1:
            return -6.0 * u * w * w / L
        return (24.0 * u * u * w - 6.0 * w * w) / (L * L)

    return _build("poly-bump", L, core)


def make_truncated_gaussian(support_length: float = 1.0,
                            sharp_edge: bool = True) -> Potential:
    """exp(-x^2) on [0, L], cut off at L either abruptly or with a C2 taper.

    The sharp variant keeps the raw Gaussian values up to the edge, leaving a
    jump of size exp(-L^2) there. The smooth variant multiplies by a quintic
    taper on the outer half of the support so that V, V', V'' all vanish at L.
    """
    L = float(support_length)

    def gauss(x, order):
        g = np.exp(-x * x)
        if order == 0:
            return g
        if order == 1:
            return -2.0 * x * g
        return (4.0 * x * x - 2.0) * g

    if sharp_edge:
        return _build("gaussian-sharp", L, gauss)

    split = 0.5 * L  # taper acts on [L/2, L]
    rate = 1.0 / (L - split)

    def taper(x, order):
        t = np.minimum(np.maximum((x - split) * rate, 0.0), 1.0)
        if order == 0:
            return 1.0 - np.power(t, 3) * (10.0 - 15.0 * t + 6.0 * t * t)
        if order == 1:
            return -30.0 * t * t * np.power(1.0 - t, 2) * rate
        return -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) * rate * rate

    def core(x, order):
        if order == 0:
            return gauss(x, 0) * taper(x, 0)
        if order == 1:
            return gauss(x, 1) * taper(x, 0) + gauss(x, 0) * taper(x, 1)
        return (gauss(x, 2) * taper(x, 0) + 2.0 * gauss(x, 1) * taper(x, 1)
                + gauss(x, 0) * taper(x, 2))

    return _build("gaussian-smooth", L, core, breakpoints=(split,))


def load_table(samples, support_length: float = 1.0) -> Potential:
    """C2 cubic-spline potential through tabulated (x, V) samples.

    Requires at least 4 samples with strictly increasing abscissae inside
    [0, support_length]. The spline extends to the full support interval;
    endpoint data and the normalization come from the interpolant.
    Every interior sample is a breakpoint, so each piece is one cubic.
    """
    from scipy.interpolate import CubicSpline

    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (x, V) pairs")
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 samples for a C2 interpolant")
    x, v = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("sample abscissae must be strictly increasing")
    L = float(support_length)
    if x[0] < 0.0 or x[-1] > L:
        raise ValueError("sample abscissae must lie inside [0, support_length]")

    spline = CubicSpline(x, v, bc_type="not-a-knot", extrapolate=True)

    def core(xx, order):
        return spline(xx, nu=order)

    return _build("table", L, core, breakpoints=x[1:-1])
