"""Adaptive Gauss-Kronrod quadrature for batches of complex integrands.

The integrand is sampled once per panel for a whole batch of integrals that
share the integration variable (one integrand at many parameter values).
Each panel carries a per-batch-element error estimate given by the difference
between the embedded 7-point Gauss rule and the 15-point Kronrod rule; the
worst panel is bisected until every batch element meets its tolerance.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadratureError", "adaptive_quadrature", "quad_scalar"]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], ascending order.
# The odd-index nodes form the embedded 7-point Gauss rule.
_KRONROD_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_KRONROD_WEIGHTS = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_GAUSS_INDEX = np.arange(1, 15, 2)
_GAUSS_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met.

    Carries the best available value and error estimate so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message: str, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def _panel(integrand: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    samples = np.asarray(integrand(mid + half * _KRONROD_NODES))
    kron = half * (samples @ _KRONROD_WEIGHTS)
    gauss = half * (samples[..., _GAUSS_INDEX] @ _GAUSS_WEIGHTS)
    return kron, np.abs(kron - gauss)


def adaptive_quadrature(
    integrand: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    atol,
    rtol: float = 0.0,
    breakpoints: Sequence[float] = (),
    min_panels: int = 1,
    max_panels: int = 4096,
):
    """Integrate ``integrand`` over [a, b] with per-batch-element tolerances.

    Parameters
    ----------
    integrand : callable
        Maps an abscissa array of shape (n,) to values of shape (..., n);
        the leading dimensions are the batch.
    atol : float or array
        Absolute tolerance, broadcastable to the batch shape.
    rtol : float
        Relative tolerance applied to the accumulated value.
    breakpoints : sequence of float
        Interior points where the integrand loses smoothness; panel edges are
        pinned there.
    min_panels : int
        Lower bound on the initial uniform panelization, for integrands whose
        features a single panel's samples could miss.

    Returns
    -------
    (value, error) : value has the batch shape, error is the accumulated
        Gauss-Kronrod difference, an estimate bounding the true error of the
        Kronrod sum on resolved integrands.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    edges = {a, b}
    edges.update(t for t in breakpoints if a < t < b)
    edges = sorted(edges)
    if len(edges) - 1 < min_panels:
        width = (b - a) / min_panels
        edges = sorted(set(edges) | {a + i * width for i in range(1, min_panels)})

    atol = np.asarray(atol, dtype=float)
    # Refinement order is tolerance-scaled so that batch elements with small
    # natural scales are not starved by already-converged large-scale ones.
    err_scale = np.maximum(atol, 1e-300)

    def priority(err):
        return -float(np.max(err / err_scale))

    panels = []  # heap of (priority, tiebreak, a, b, value, err)
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(integrand, lo, hi)
        total = total + val
        total_err = total_err + err
        heapq.heappush(panels, (priority(err), counter, lo, hi, val, err))
        counter += 1
    while True:
        target = np.maximum(atol, rtol * np.abs(total))
        if np.all(total_err <= target):
            return total, total_err
        if len(panels) >= max_panels:
            raise QuadratureError(
                f"tolerance unreachable with {max_panels} panels "
                f"(error {float(np.max(total_err)):.3e})",
                value=total, error=total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                "panel collapsed to machine width before reaching tolerance",
                value=total, error=total_err,
            )
        total = total - val
        total_err = total_err - err
        for sub in ((lo, mid), (mid, hi)):
            val, err = _panel(integrand, *sub)
            total = total + val
            total_err = total_err + err
            heapq.heappush(panels, (priority(err), counter, *sub, val, err))
            counter += 1


def quad_scalar(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                *, atol: float = 1e-12, rtol: float = 1e-12, **kwargs):
    """Convenience wrapper for a single (possibly complex) integral."""
    return adaptive_quadrature(f, a, b, atol=atol, rtol=rtol, **kwargs)
