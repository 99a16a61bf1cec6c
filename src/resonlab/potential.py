"""Compactly supported potentials on [0, L].

Every potential evaluates to zero outside its support interval and carries
its endpoint values and slopes, which feed the oscillatory-integral endpoint
expansions. The reference family is normalized so that V(0) = 1, V'(0) = 0;
constructors record whether that normalization holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.interpolate import CubicSpline

from .quadrature import adaptive_quadrature

__all__ = [
    "NormalizationReport", "Potential", "RelativeDistance",
    "make_poly_bump", "make_truncated_gaussian", "load_table",
    "relative_sup_distance",
]

_NORMALIZATION_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


class NormalizationReport(NamedTuple):
    value_at_zero: float
    slope_at_zero: float
    normalized: bool


class RelativeDistance(NamedTuple):
    value: float
    excluded: int
    floor: float


@dataclass(frozen=True, eq=False)
class Potential:
    """A potential supported on [0, support_length], evaluable to order 2.

    Instances are immutable; the callable core is set once by a constructor
    and the absolute moments (integrals of |V|, |V'|, |V''|) are precomputed
    for tolerance scaling and expansion remainder bounds. Row p of
    ``legendre`` holds the c_n of V(mid + half t) = sum c_n P_n(t) on the
    p-th piece between the points (0, *breakpoints, L).
    """

    support_length: float
    kind: str
    left_value: float
    left_slope: float
    right_value: float
    right_slope: float
    normalization: NormalizationReport
    breakpoints: tuple = ()
    abs_moments: tuple = (0.0, 0.0, 0.0)
    legendre: np.ndarray = None
    _core: Callable[[np.ndarray, int], np.ndarray] = field(repr=False, default=None)

    def _evaluate(self, x, order: int):
        if order not in (0, 1, 2):
            raise ValueError("derivatives available up to order 2 only")
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros(arr.shape)
        mask = (arr >= 0.0) & (arr <= self.support_length)
        if mask.any():
            out[mask] = self._core(arr[mask], order)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self._evaluate(x, 0)

    def derivative(self, x, order: int = 1):
        return self._evaluate(x, order)

    @property
    def unit_normalized(self) -> bool:
        return self.normalization.normalized

    def endpoint_data(self, order: int, side: str) -> float:
        """Value of V^(order) at the support edge, taken from inside."""
        edge = 0.0 if side == "left" else self.support_length
        if order == 0:
            return self.left_value if side == "left" else self.right_value
        if order == 1:
            return self.left_slope if side == "left" else self.right_slope
        return float(self._core(np.array([edge]), order)[0])


def _abs_moment(core: Callable, length: float, order: int,
                breakpoints: Sequence[float]) -> float:
    def integrand(x):
        return np.abs(core(x, order))
    scale = float(np.max(integrand(np.linspace(0.0, length, 64)))) + 1e-300
    val, _ = adaptive_quadrature(integrand, 0.0, length,
                                 atol=1e-13 * scale * length, rtol=1e-11,
                                 breakpoints=breakpoints, min_panels=4)
    return float(np.real(val))


def _legendre_table(v: Potential, edges: np.ndarray) -> np.ndarray:
    """Legendre coefficients of V, one zero-padded row per piece.

    Gauss-Legendre node counts double until every row's last four sums sink
    below their roundoff floor 16 (n + 1) eps max|V|, which then zeroes them.
    """
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
    v0 = float(core(np.array([0.0]), 0)[0])
    s0 = float(core(np.array([0.0]), 1)[0])
    report = NormalizationReport(
        v0, s0,
        abs(v0 - 1.0) <= _NORMALIZATION_TOL and abs(s0) <= _NORMALIZATION_TOL)
    v = Potential(
        support_length=length, kind=kind,
        left_value=v0, left_slope=s0,
        right_value=float(core(np.array([length]), 0)[0]),
        right_slope=float(core(np.array([length]), 1)[0]),
        normalization=report, breakpoints=bp, abs_moments=moments, _core=core)
    return replace(v, legendre=_legendre_table(v, np.array((0.0, *bp, length))))


def make_poly_bump(support_length: float = 1.0) -> Potential:
    """V(x) = (1 - (x/L)^2)^3 on [0, L]: normalized, C2 across the right edge."""
    L = float(support_length)

    def core(x, order):
        u = x / L
        w = 1.0 - u * u
        if order == 0:
            return w ** 3
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
        t = np.clip((x - split) * rate, 0.0, 1.0)
        if order == 0:
            return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)
        if order == 1:
            return -30.0 * t * t * (1.0 - t) ** 2 * rate
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
    endpoint data and the normalization report come from the interpolant.
    Every interior sample is a breakpoint, so each piece is one cubic.
    """
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


def relative_sup_distance(v1: Potential, v2: Potential, grid,
                          floor: float | None = None) -> RelativeDistance:
    """sup |V1/V2 - 1| over grid points where |V2| clears the floor.

    Points with |V2(x)| below the floor (default 1e-8 times the sup of |V2|
    on the grid) are excluded from the sup and reported in the count.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid is empty")
    a = np.atleast_1d(v1(grid))
    b = np.atleast_1d(v2(grid))
    if floor is None:
        floor = 1e-8 * float(np.max(np.abs(b)))
    keep = (np.abs(b) >= floor) & (np.abs(b) > 0.0)
    excluded = int(np.sum(~keep))
    if not keep.any():
        raise ValueError("every grid point fell below the comparison floor")
    value = float(np.max(np.abs(a[keep] / b[keep] - 1.0)))
    return RelativeDistance(value, excluded, float(floor))
