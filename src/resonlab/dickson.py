"""Zero-strip geometry for exponential polynomials.

An exponential polynomial sum_j A_j z^{m_j} [1 + eps_j(z)] e^{omega_j z}
has its large zeros confined to logarithmic strips normal to the sides of
the convex hull of the conjugated frequencies. Every exponential polynomial
here has collinear frequencies, so that hull is a segment with two sides,
one per orientation. This module builds that geometry (side angles, tau
points, strip slopes) for collinear frequencies only, tests strip membership,
and counts zeros in the curvilinear windows along a strip by mapping the
window boundary back from its straightened coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .rootscan import Rectangle, RootScanError, wind_count

__all__ = [
    "ExpTerm", "ExpPolynomial", "StripData", "SideData", "DicksonGeometry",
    "CurvilinearCount", "dickson_geometry", "strip_membership",
    "curvilinear_count", "containment_exceptions", "recommended_alpha0",
    "recommended_H", "two_cosine_model",
]


class ExpTerm(NamedTuple):
    coefficient: complex
    power: int
    frequency: complex
    correction: Callable | None = None   # the eps factor; None means 0


@dataclass(frozen=True)
class ExpPolynomial:
    """f(z) = sum of A z^m (1 + eps(z)) e^{omega z} with distinct omega."""

    terms: tuple[ExpTerm, ...]

    def __init__(self, terms: Sequence):
        packed = tuple(ExpTerm(*t) if not isinstance(t, ExpTerm) else t
                       for t in terms)
        if len(packed) < 2:
            raise ValueError("an exponential polynomial needs at least 2 terms")
        for t in packed:
            if t.coefficient == 0:
                raise ValueError("zero coefficients are not allowed")
            if t.power < 0 or t.power != int(t.power):
                raise ValueError("powers must be nonnegative integers")
        if len({complex(t.frequency) for t in packed}) < len(packed):
            raise ValueError("frequencies must be pairwise distinct")
        object.__setattr__(self, "terms", packed)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for a, m, w, eps in self.terms:
            term = a * z**m * np.exp(w * z)
            if eps is not None:
                term = term * (1.0 + np.asarray(eps(z)))
            out = out + term
        return out


def two_cosine_model() -> ExpPolynomial:
    """2 cos(2z) + 1/2 written with frequencies {2i, 0, -2i}."""
    return ExpPolynomial([(1.0, 0, 2j), (1.0, 0, -2j), (0.5, 0, 0.0)])


class StripData(NamedTuple):
    mu: float               # real slope of the logarithmic strip
    delta_omega: float      # |omega_{kj+1} - omega_{kj}|
    m_start: int
    m_end: int


class SideData(NamedTuple):
    phi: float              # side angle in [-pi/2, 3pi/2)
    e: complex              # e^{i phi}
    points: tuple           # (conjugated frequency, power) ordered along side
    strips: tuple           # StripData per sub-segment


@dataclass(frozen=True)
class DicksonGeometry:
    vertices: tuple         # ends of the frequency segment, lexicographic
    sides: tuple            # SideData per orientation of the segment


def _cross(o, a, b) -> float:
    return ((a.real - o.real) * (b.imag - o.imag)
            - (a.imag - o.imag) * (b.real - o.real))


def _normalize_phi(angle: float) -> float:
    # into [-pi/2, 3*pi/2)
    while angle < -0.5 * math.pi:
        angle += 2.0 * math.pi
    while angle >= 1.5 * math.pi:
        angle -= 2.0 * math.pi
    return angle


def dickson_geometry(p: ExpPolynomial) -> DicksonGeometry:
    """Segment, side angles, tau points and strip slopes for p.

    The frequencies must be collinear, to within 1e-12 of the squared
    segment length, or ValueError is raised. The conjugated frequencies
    then span the segment between their lexicographically smallest and
    largest, traversed in both orientations as two sides, and every
    frequency lies on both. Along each side the tau chain is the upper
    boundary of the convex hull of the tau points, and every tau on that
    chain starts a new sub-segment, so each strip holds exactly its two end
    tau points.
    """
    conj = [complex(t.frequency).conjugate() for t in p.terms]
    powers = {w: int(t.power) for w, t in zip(conj, p.terms)}
    lo = min(conj, key=lambda w: (w.real, w.imag))
    hi = max(conj, key=lambda w: (w.real, w.imag))
    tol = 1e-12 * abs(hi - lo) ** 2
    if not all(abs(_cross(lo, hi, w)) <= tol for w in conj):
        raise ValueError("dickson_geometry needs collinear frequencies")

    sides = []
    for va, vb in ((lo, hi), (hi, lo)):
        phi = _normalize_phi(cmath.phase(va - vb))
        e = cmath.exp(1j * phi)
        seg = vb - va
        seg_len = abs(seg)
        proj = [((w - va).real * seg.real + (w - va).imag * seg.imag) / seg_len
                for w in conj]
        points = tuple((w, powers[w]) for _, w in
                       sorted(zip(proj, conj), key=lambda item: item[0]))

        taus = [w + 1j * m * e for w, m in points]
        # straighten: u = tau/e runs along the negative real axis from the
        # side start, with the power offset mapped to the imaginary part;
        # walking in decreasing Re u, the upper chain makes left turns, so
        # a middle point below the chord (right turn) is dropped while
        # collinear points are kept as sub-segment boundaries
        us = [t / e for t in taus]
        chain_scale = max([seg_len, 1.0] + [abs(u) for u in us])
        area_tol = 1e-12 * chain_scale * chain_scale
        chain_idx = [0]
        for idx in range(1, len(us)):
            while len(chain_idx) >= 2 and _cross(
                    us[chain_idx[-2]], us[chain_idx[-1]], us[idx]) < -area_tol:
                chain_idx.pop()
            chain_idx.append(idx)

        strips = []
        for a_i, b_i in zip(chain_idx[:-1], chain_idx[1:]):
            (wa, ma), (wb, mb) = points[a_i], points[b_i]
            mu = (ma - mb) / ((wa.conjugate() - wb.conjugate()) * e)
            if abs(mu.imag) > 1e-9 * (1.0 + abs(mu)):
                raise RootScanError(f"strip slope {mu} is not real")
            strips.append(StripData(mu=float(mu.real),
                                    delta_omega=abs(wb - wa),
                                    m_start=ma, m_end=mb))
        sides.append(SideData(phi=phi, e=e, points=points,
                              strips=tuple(strips)))
    return DicksonGeometry(vertices=(lo, hi), sides=tuple(sides))


def _branch_arg(z: np.ndarray, phi: float) -> np.ndarray:
    """Argument of z in the window (phi, phi + 2*pi]."""
    theta = np.angle(z)
    rel = np.mod(theta - phi, 2.0 * math.pi)
    rel = np.where(rel == 0.0, 2.0 * math.pi, rel)
    return phi + rel


def _branch_log(z: np.ndarray, phi: float) -> np.ndarray:
    return np.log(np.abs(z)) + 1j * _branch_arg(z, phi)


def _zeta(z: np.ndarray, e: complex, mu: float, phi: float) -> np.ndarray:
    return z / e + mu * _branch_log(z, phi)


def _invert_zeta(w: np.ndarray, e: complex, mu: float, phi: float) -> np.ndarray:
    """Solve z/e + mu*Log z = w with the branch arg z in (phi, phi+2pi).

    Newton steps from z = e w; each point stops stepping once it passes the
    test, so its value does not depend on the batch it comes in.
    """
    w = np.asarray(w, dtype=complex)
    if mu == 0.0:
        return e * w
    wf = w.ravel()
    z = e * wf
    todo = np.arange(wf.size)
    for _ in range(60):
        zt, wt = z[todo], wf[todo]
        fval = _zeta(zt, e, mu, phi) - wt
        open_ = ~(np.abs(fval) <= 1e-13 * (1.0 + np.abs(wt)))
        if not open_.any():
            return z.reshape(w.shape)
        todo, zt = todo[open_], zt[open_]
        z[todo] = zt - fval[open_] / (1.0 / e + mu / zt)
    raise RootScanError("window boundary inversion did not converge at "
                        f"w = {complex(wf[todo[0]]):.6g}")


def strip_membership(g: DicksonGeometry, z: complex, H: float):
    """First (k, j) whose strip V_kj(H) contains z, or None.

    Strips with the same side and slope coincide exactly, so the first
    match in (k, j) order is the canonical answer.
    """
    if abs(z) <= 1.0:
        raise ValueError("membership is defined for |z| > 1")
    logz = math.log(abs(z))
    for k, side in enumerate(g.sides):
        zn = complex(z) / side.e
        if zn.imag < 0.0:
            continue
        for j, strip in enumerate(side.strips):
            if abs(zn.real + strip.mu * logz) <= H:
                return (k, j)
    return None


def containment_exceptions(g: DicksonGeometry, zeros, H: float,
                           r_min: float = 1.0) -> list[complex]:
    """Zeros of modulus above r_min lying in no strip (expected finite)."""
    return [z for z, _ in zeros
            if abs(z) > r_min and strip_membership(g, z, H) is None]


def recommended_alpha0(p: ExpPolynomial) -> float:
    return 20.0 * (1.0 + max(abs(t.frequency) for t in p.terms))


def recommended_H(p: ExpPolynomial, alpha0: float) -> float:
    mmax = max(t.power for t in p.terms)
    return 2.0 + mmax * math.log(max(alpha0, math.e))


class CurvilinearCount(NamedTuple):
    count: int
    bound_ok: bool | None


def curvilinear_count(f, g: DicksonGeometry, k: int, j: int, alpha: float,
                      s: float, H: float, *,
                      alpha_floor: float | None = None) -> CurvilinearCount:
    """Zero count of f in the window R_kj(alpha, s, H) along strip (k, j).

    The window is a rectangle [-H, H] x [alpha, alpha+s] in the straightened
    coordinate zeta = z/e_k + mu Log z; the count is the rectangle winding
    count of f composed with the inverse map, so the window gets the same
    boundary jitter and density-agreement certificate as rootscan. bound_ok
    reports the window-count inequality |N - s*|d omega|/(2 pi)| < 3/2, and
    stays None when alpha is below the supplied floor where the inequality
    is not asserted.
    """
    if s <= 0.0 or H <= 0.0:
        raise ValueError("window extent and half-width must be positive")
    if alpha <= 0.0:
        raise ValueError("window offset must be positive")
    side = g.sides[k]
    strip = side.strips[j]
    count = wind_count(
        lambda w: f(_invert_zeta(w, side.e, strip.mu, side.phi)),
        Rectangle(-H, H, alpha, alpha + s), n_initial=128)
    if alpha_floor is not None and alpha < alpha_floor:
        return CurvilinearCount(count, None)
    expected = s * strip.delta_omega / (2.0 * math.pi)
    # one less than the tau points on the strip, plus 1/2; a strip holds
    # just its two end taus (see dickson_geometry)
    return CurvilinearCount(count, bool(abs(count - expected) < 1.5))
