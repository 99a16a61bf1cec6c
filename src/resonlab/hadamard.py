"""Truncated Hadamard products and the reconstruction stability experiment.

The even, order-1 F(z) = Vhat(2z) Vhat(-2z) is F(0) prod (1 - z^2/z_n^2)
over its zero pairs, so its zeros and F(0) pin it down; truncating the
product at modulus R gives a computable reconstruction from finitely many
zeros.  This module builds and evaluates such products, supplies the
prefactor F(0) and an asymptotic tail factor for the zeros dropped beyond
R, counts how many zeros of two reconstructions lie inside a strip, and
runs the end-to-end experiment: perturb the zero set by delta and measure
how far the reconstructed squared-modulus data moves on the real axis.

Products accumulate factors in modulus-ascending order with exact
power-of-two rescaling, so appending a largest-modulus zero multiplies the
value pointwise by its factor with no rounding discrepancy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ftransform import pair_function
from .potential import Potential
from .rootscan import Rectangle, ZeroSet, locate_zeros, match_zero_sets

__all__ = [
    "ContourCountError", "ConvergenceCurve", "ProductOverflowError",
    "StabilityRow", "StabilityTable", "TruncatedProduct", "build_product",
    "convergence_curve", "count_difference", "eval_product", "fit_prefactor",
    "mirrored_reconstruction", "perturb_zeros", "stability_experiment",
    "tail_factor",
]

# exp() is exact garbage past the double range; the guard keeps the log
LOG_GUARD = 700.0
_LN2 = math.log(2.0)
# rescale triggers, comfortably inside the representable range
_SCALE_HI = 2.0 ** 500
_SCALE_LO = 2.0 ** -500
_RESCALE = 512

# a zero is treated as real (stays real under perturbation) at this level
REAL_AXIS_RTOL = 1e-9
# conjugate partners are paired up to this relative mismatch
CONJ_PAIR_RTOL = 1e-7

PERTURB_MODES = ("uniform-shift", "random-in-disk")


class ProductOverflowError(RuntimeError):
    """Raised when a product value leaves the double range.

    The scaled result survives in log_value = log c + sum log(1 - z/z_n),
    whose real part is the log-magnitude.
    """

    def __init__(self, message: str, log_value: complex):
        super().__init__(message)
        self.log_value = complex(log_value)


class ContourCountError(RuntimeError):
    """A zero sits on the counting contour and no jitter clears it."""


@dataclass(frozen=True)
class TruncatedProduct:
    """c prod_{|z_n| < R} (1 - z/z_n)."""

    c: complex
    zeros: ZeroSet
    R: float


def build_product(zero_set: ZeroSet, radius: float,
                  c: complex = 1.0) -> TruncatedProduct:
    """Truncate a zero set at modulus < radius and attach the prefactor c.

    The truncation is strictly by modulus, so a radius between two
    consecutive zero moduli retains the same factors regardless of which
    boundary convention the caller had in mind.  A zero at the origin has
    no factor 1 - z/z_n and is refused.
    """
    if not radius > 0.0:
        raise ValueError("truncation radius must be positive")
    retained = []
    for z, mult in zero_set:
        if z == 0:
            raise ValueError("a zero at the origin has no factor 1 - z/z_n")
        if abs(z) < radius:
            retained.append((z, mult))
    return TruncatedProduct(complex(c), ZeroSet(retained), float(radius))


def _cmul(ar, ai, br, bi):
    """CPython's complex product, on real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def eval_product(p: TruncatedProduct, z):
    """Value of the truncated product at z, a point or an array of points.

    Factors are multiplied in ascending modulus with exact power-of-two
    rescaling, so appending a largest-modulus zero multiplies the returned
    value by its factor with zero rounding discrepancy.  Evaluation at a
    retained zero returns 0 exactly.  A value whose log-magnitude exceeds
    the guard range raises ProductOverflowError carrying the log-domain
    result of the first such point.  A scalar z gives a complex, an array an
    array of its shape, bit for bit equal to the scalar calls: the factors
    follow CPython's complex product and Smith quotient, not numpy's.  Each
    factor is formed as (z_n - z) / z_n, so it keeps its relative accuracy
    next to a zero.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    zr, zi = flat.real, flat.imag
    locs = p.zeros.locations(expand=True)  # canonical order is modulus-ascending

    acc_r = np.full(flat.shape, p.c.real)
    acc_i = np.full(flat.shape, p.c.imag)
    off = np.zeros(flat.shape, dtype=int)

    at_zero = np.zeros(flat.shape, dtype=bool)
    for z_n in locs:
        at_zero |= flat == z_n
        # (z_n - z) / z_n by CPython's Smith quotient, whose branch depends
        # on z_n alone; the difference is exact near z_n, where 1 - z/z_n
        # would cancel the digits of a rounded z/z_n
        br, bi = z_n.real, z_n.imag
        nr, ni = br - zr, bi - zi
        if abs(br) >= abs(bi):
            ratio = bi / br
            denom = br + bi * ratio
            fr, fi = (nr + ni * ratio) / denom, (ni - nr * ratio) / denom
        else:
            ratio = br / bi
            denom = br * ratio + bi
            fr, fi = (nr * ratio + ni) / denom, (ni * ratio - nr) / denom
        acc_r, acc_i = _cmul(acc_r, acc_i, fr, fi)
        mag = np.hypot(acc_r, acc_i)
        for rescale, shift in ((mag > _SCALE_HI, _RESCALE),
                               ((0.0 < mag) & (mag < _SCALE_LO), -_RESCALE)):
            if rescale.any():
                acc_r[rescale], acc_i[rescale] = _cmul(
                    acc_r[rescale], acc_i[rescale], 2.0 ** -shift, 0.0)
                off[rescale] += shift

    mag = np.hypot(acc_r, acc_i)
    live = ~at_zero & (mag != 0.0)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag) + off * _LN2
    over = live & (np.abs(log_mag) > LOG_GUARD)
    # factors far below the rescale range can underflow the accumulator to
    # 0; with no factor exactly 0 the value lies far beyond the guard
    underflow = {}
    for i in np.flatnonzero(~at_zero & (mag == 0.0)) if p.c else ():
        factors = [(complex(z_n) - complex(flat[i])) / complex(z_n)
                   for z_n in locs]
        if 0 not in factors:
            underflow[i] = cmath.log(p.c) + sum(map(cmath.log, factors))
            over[i], log_mag[i] = True, underflow[i].real
    if over.any():
        i = int(np.argmax(over))
        raise ProductOverflowError(
            f"product at z = {complex(flat[i]):.6g} has log-magnitude "
            f"{log_mag[i]:.6g} beyond the +-{LOG_GUARD:.0f} guard",
            underflow[i] if i in underflow else
            cmath.log(complex(acc_r[i], acc_i[i])) + int(off[i]) * _LN2)
    vals = np.zeros(flat.shape, dtype=complex)
    vals.real[live] = np.ldexp(acc_r[live], off[live])
    vals.imag[live] = np.ldexp(acc_i[live], off[live])
    if zs.ndim == 0:
        return complex(vals[0])
    return vals.reshape(zs.shape)


# perfbench/tracing.py hooks this name here and in cli, and fails when a
# hooked name is missing
def fit_prefactor(f: Callable) -> complex:
    """f(0), the prefactor of an even order-1 f.

    An even f of order 1 with f(0) != 0 is f(0) prod (1 - z^2/z_n^2) over
    its zero pairs, so one call of f at the origin gives the prefactor.
    """
    return complex(f(0.0))


def tail_factor(x, L: float, R: float):
    """exp(-2 L x^2 / (pi R)), the factors a truncation at R drops.

    The dropped factors of prod (1 - z^2/z_n^2) tend to
    exp(-z^2 sum_{|z_n| > R} z_n^-2); with Titchmarsh's density of 2L/pi
    zero pairs per unit length that sum is about 2L/(pi R), for a potential
    supported on [0, L].  This is an asymptotic correction, not a bound.
    """
    return np.exp(-2.0 * L * np.square(x) / (np.pi * R))


class ConvergenceCurve(NamedTuple):
    radii: tuple[float, ...]
    values: tuple[complex, ...]
    differences: tuple[complex, ...]


def convergence_curve(z_full: ZeroSet, c: complex, z: complex,
                      radii: Sequence[float]) -> ConvergenceCurve:
    """Truncated-product values at z across increasing truncation radii.

    The values are pure truncated products, with no tail factor, so the
    curve shows the truncation itself converging.
    """
    rs = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    values = tuple(eval_product(build_product(z_full, r, c), z) for r in rs)
    diffs = tuple(b - a for a, b in zip(values, values[1:]))
    return ConvergenceCurve(rs, values, diffs)


def _boundary_distance(rect: Rectangle, z: complex) -> float:
    outside = rect.distance_to(z)
    if outside > 0.0:
        return outside
    return min(z.real - rect.re_min, rect.re_max - z.real,
               z.imag - rect.im_min, rect.im_max - z.imag)


def count_difference(z1: ZeroSet, z2: ZeroSet, R: float, K: float) -> int:
    """N1(R) - N2(R) over the strip S_R = [0, R] x i[-K, K].

    Counts the zeros of modulus < R of each set inside the strip, with
    multiplicity, and returns the difference.  For explicit zero lists this
    is exactly the winding number of the ratio of the two truncated
    products around the strip boundary.  A zero too close to the boundary
    triggers the jitter ladder; if no jittered contour clears every zero,
    the count is refused rather than guessed.
    """
    if not (R > 0.0 and K > 0.0):
        raise ValueError("strip dimensions must be positive")
    a1 = z1.locations(expand=True)
    a2 = z2.locations(expand=True)
    a1 = a1[np.abs(a1) < R]
    a2 = a2[np.abs(a2) < R]

    scale = max(R, K, 1.0)
    prox = 1e-7 * scale
    both = np.concatenate([a1, a2])
    for pad in (0.0, 2.3e-6 * scale, -2.3e-6 * scale,
                5.1e-6 * scale, -5.1e-6 * scale):
        rect = Rectangle(0.0 - pad, R + pad, -K - pad, K + pad)
        if both.size == 0 or min(_boundary_distance(rect, z)
                                 for z in both) > prox:
            return int(sum(map(rect.contains, a1))
                       - sum(map(rect.contains, a2)))
    raise ContourCountError(
        "a zero sits on the counting contour and jitter could not clear it")


def _is_real_zero(z: complex) -> bool:
    return abs(z.imag) <= REAL_AXIS_RTOL * (1.0 + abs(z))


def perturb_zeros(zero_set: ZeroSet, delta: float,
                  mode: str = "random-in-disk", seed: int = 0) -> ZeroSet:
    """Move each zero by at most delta without leaving the symmetry class.

    Conjugate pairs move conjugately and real zeros stay on the axis, so a
    zero set whose product is real on the real line keeps that property.
    Draws depend on the seed and the set but not on delta, so the same seed
    across a delta sweep scales one fixed displacement field linearly.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}; "
                         f"expected one of {PERTURB_MODES}")
    entries = list(zero_set)
    rng = np.random.default_rng(seed)
    # complex, so a real zero's -0.0 imaginary part adds exactly as before
    disp = np.zeros(len(entries), dtype=complex)
    if mode == "uniform-shift":
        # one shift d for the upper half-plane and conj(d) for the lower
        # moves every conjugate pair conjugately without pairing it
        d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        for i, (z, _) in enumerate(entries):
            disp[i] = (d.real if _is_real_zero(z)
                       else d if z.imag > 0.0 else np.conj(d))
    else:
        # each upper zero takes the nearest unused lower zero within
        # CONJ_PAIR_RTOL of its conjugate; an unpaired zero draws alone
        unused = {j for j, (z, _) in enumerate(entries)
                  if not _is_real_zero(z) and z.imag < 0.0}
        partner = {}
        for i, (z, _) in enumerate(entries):
            if _is_real_zero(z) or z.imag < 0.0:
                continue
            dist = lambda j: abs(np.conj(z) - entries[j][0])  # noqa: E731
            j = min(unused, key=dist, default=None)
            if j is not None and dist(j) <= CONJ_PAIR_RTOL * (1.0 + abs(z)):
                partner[i] = j
                unused.discard(j)
        paired_lowers = set(partner.values())
        # right half-plane first, each half in canonical order: a mirrored
        # set holds z and -conj(z') whose moduli differ only by roundoff,
        # so canonical order alone would let one ulp swap their draws
        for i in sorted(range(len(entries)),
                        key=lambda i: entries[i][0].real < 0.0):
            if i in paired_lowers:
                continue  # written by the partner
            if _is_real_zero(entries[i][0]):
                disp[i] = rng.uniform(-1.0, 1.0)
                continue
            disp[i] = w = (math.sqrt(rng.uniform())
                           * np.exp(2j * np.pi * rng.uniform()))
            if i in partner:
                disp[partner[i]] = np.conj(w)

    moved = [(z + delta * disp[i], mult)
             for i, (z, mult) in enumerate(entries)]
    return ZeroSet.from_pairs(moved, resolution=0.0)


@dataclass(frozen=True)
class StabilityRow:
    delta: float
    sup_diff: float
    n_diff: int | None
    zero_sup_distance: float
    R: float
    K: float
    grid_size: int
    error: str | None = None


@dataclass(frozen=True)
class StabilityTable:
    rows: tuple[StabilityRow, ...]
    base_zeros: ZeroSet
    prefactor: complex

    HEADER = "delta,sup_diff,n_diff,zero_sup_distance,R,K,grid_size"

    def to_text(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            nd = "nan" if r.n_diff is None else f"{r.n_diff:d}"
            lines.append(
                f"{r.delta:.15g},{r.sup_diff:.15g},{nd},"
                f"{r.zero_sup_distance:.15g},{r.R:.15g},{r.K:.15g},"
                f"{r.grid_size:d}")
            if r.error is not None:
                lines.append(f"# failed: {r.error}")
        return "\n".join(lines) + "\n"


def mirrored_reconstruction(f: Callable, rect: Rectangle, tol: float):
    """(zero set, c) of the Hadamard product of an even f.

    Zeros scanned on a positive-real rectangle to tolerance tol are mirrored
    through evenness; the prefactor c is the exact f(0).
    """
    if rect.re_min <= 0.0:
        raise ValueError("scan rectangle must lie at positive real parts; "
                         "the mirrored half comes from evenness")
    zpos = locate_zeros(f, rect, tol)
    zeros = ZeroSet.from_pairs(
        list(zpos) + [(-z, mult) for z, mult in zpos], resolution=0.0)
    return zeros, fit_prefactor(f)


def stability_experiment(v: Potential, rect: Rectangle,
                         deltas: Sequence[float], R: float, grid, *,
                         K: float = 1.0, mode: str = "random-in-disk",
                         seed: int = 0, scan_tol: float = 1e-9,
                         quad_rtol: float = 1e-12) -> StabilityTable:
    """Reconstruction drift when the zero set of F = Vhat(2z)Vhat(-2z) moves.

    F is evaluated at quadrature tolerance quad_rtol; its zero set and
    exact prefactor F(0) come from mirrored_reconstruction.  Both truncated
    products carry that prefactor and the tail factor of the support
    length, so they approximate F, and each row isolates the effect of zero
    displacement.  On the real axis the product values are the
    reconstructed squared-modulus data, and sup_diff is the sup of their
    difference over the grid.  Rows that fail keep their slot with the
    error recorded; the table is ordered by descending delta.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    deltas = [float(d) for d in deltas]
    if not all(0.0 <= d < math.inf for d in deltas):
        raise ValueError(f"deltas must be finite and >= 0, got {deltas!r}")
    deltas.sort(reverse=True)

    z1, c = mirrored_reconstruction(pair_function(v, quad_rtol), rect,
                                    scan_tol)
    tail = tail_factor(grid, v.support_length, R)
    p1 = build_product(z1, R, c)
    g1 = eval_product(p1, grid) * tail

    rows = []
    for d in deltas:
        try:
            z2 = perturb_zeros(z1, d, mode, seed)
            p2 = build_product(z2, R, c)
            g2 = eval_product(p2, grid) * tail
            sup = float(np.max(np.abs(g1 - g2)))
            nd = count_difference(p1.zeros, p2.zeros, R, K)
            zdist = match_zero_sets(z1, z2).sup_distance
            rows.append(StabilityRow(d, sup, nd, zdist, float(R),
                                     float(K), grid.size))
        except Exception as exc:  # noqa: BLE001 - rows are isolated by contract
            rows.append(StabilityRow(d, float("nan"), None, float("nan"),
                                     float(R), float(K), grid.size,
                                     error=f"{type(exc).__name__}: {exc}"))
    return StabilityTable(tuple(rows), z1, c)
