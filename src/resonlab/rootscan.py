"""Argument-principle zero location for analytic functions on rectangles.

Functions handed to this module must be vectorized: they accept a complex
ndarray and return the values as an ndarray. Winding numbers come from
adaptive boundary sampling that refines until every phase step is below
pi/2; zero sets come from recursive quadrisection of the rectangle guided by
those winding numbers, with a multiplicity-aware Newton polish and a final
small-circle winding count as the multiplicity certificate.

The scan settings are module constants: FLOOR_RATIO (a boundary sample below
it times the sampled maximum is a zero on the boundary), MAX_BOUNDARY_POINTS
samples per sweep, MAX_DEPTH subdivision levels and MERGE_RESOLUTION (zeros
closer than it times |z| merge into one multiple zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BoundaryZeroError", "RootScanError", "Rectangle", "ZeroSet",
    "MatchResult", "CartwrightStats", "wind_count", "locate_zeros",
    "match_zero_sets", "cartwright_stats",
]

PHASE_STEP_LIMIT = 0.5 * math.pi
FLOOR_RATIO = 1e-13
JITTER_SCALE = 1e-6
JITTER_RETRIES = 8
DENSITY_ESCALATIONS = 6
MERGE_RESOLUTION = 1e-8
MAX_DEPTH = 64
MAX_BOUNDARY_POINTS = 262144


class BoundaryZeroError(RuntimeError):
    """The contour passes too close to a zero to certify a winding number."""


class RootScanError(RuntimeError):
    """The subdivision or refinement stage could not certify the zero set."""


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must have positive width and height")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def corners(self) -> np.ndarray:
        """Counterclockwise from the lower-left corner."""
        return np.array([
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ])

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (self.re_min - pad <= z.real <= self.re_max + pad
                and self.im_min - pad <= z.imag <= self.im_max + pad)

    def distance_to(self, z: complex) -> float:
        dx = max(self.re_min - z.real, 0.0, z.real - self.re_max)
        dy = max(self.im_min - z.imag, 0.0, z.imag - self.im_max)
        return math.hypot(dx, dy)

    def inflated(self, eps: float) -> "Rectangle":
        return Rectangle(self.re_min - eps, self.re_max + eps,
                         self.im_min - eps, self.im_max + eps)

    def quadrisect(self, fx: float = 0.5, fy: float = 0.5):
        xm = self.re_min + fx * self.width
        ym = self.im_min + fy * self.height
        return (
            Rectangle(self.re_min, xm, self.im_min, ym),
            Rectangle(xm, self.re_max, self.im_min, ym),
            Rectangle(self.re_min, xm, ym, self.im_max),
            Rectangle(xm, self.re_max, ym, self.im_max),
        )

    def boundary_path(self) -> Callable[[np.ndarray], np.ndarray]:
        """Arc-length parameterization of the counterclockwise boundary."""
        c = self.corners()
        lengths = np.array([self.width, self.height, self.width, self.height])
        breaks = np.concatenate([[0.0], np.cumsum(lengths) / lengths.sum()])

        def path(ts: np.ndarray) -> np.ndarray:
            ts = np.mod(np.asarray(ts, dtype=float), 1.0)
            seg = np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, 3)
            local = (ts - breaks[seg]) / (breaks[seg + 1] - breaks[seg])
            start = c[seg]
            end = c[(seg + 1) % 4]
            return start + local * (end - start)

        return path


def _winding_along(f: Callable, path: Callable, *, n_initial: int = 64):
    """Winding number of f along a closed path, with boundary diagnostics.

    Returns (winding, max |f| on the path, min |f| on the path). Raises
    BoundaryZeroError when the sampled |f| dips below FLOOR_RATIO times the
    sampled maximum, or when MAX_BOUNDARY_POINTS samples cannot bring all
    phase steps below pi/2 (both indicate a zero on or near the path).
    """
    ts = np.linspace(0.0, 1.0, n_initial, endpoint=False)
    fs = np.asarray(f(path(ts)))
    while True:
        if not np.all(np.isfinite(fs)):
            raise RootScanError("function returned non-finite boundary values")
        mags = np.abs(fs)
        amax = float(np.max(mags))
        amin = float(np.min(mags))
        if amax == 0.0 or amin < FLOOR_RATIO * amax:
            raise BoundaryZeroError(
                f"boundary sample magnitude {amin:.3e} below floor "
                f"({FLOOR_RATIO:.1e} * {amax:.3e})")
        steps = np.angle(np.roll(fs, -1) / fs)
        # Phase aliasing guard: a zero of multiplicity >= 2 (or a tight
        # cluster) close to the path can sweep almost 2*pi between samples
        # while the principal value stays small, so the pair magnitudes are
        # also watched. A sharp dip relative to the flanking samples, or a
        # large jump within the pair, forces refinement until the step is
        # short compared with the distance to the zero, where the principal
        # value is the true increment again.
        pair_min = np.minimum(mags, np.roll(mags, -1))
        flank_min = np.minimum(np.roll(mags, 1), np.roll(mags, -2))
        bad = ((np.abs(steps) >= PHASE_STEP_LIMIT)
               | (pair_min < 0.25 * flank_min)
               | (np.abs(np.log(np.roll(mags, -1) / mags)) >= 1.25))
        if not bad.any():
            total = float(np.sum(steps))
            n = round(total / (2.0 * math.pi))
            if abs(total - 2.0 * math.pi * n) > 0.5:
                raise RootScanError(
                    f"phase sum {total:.6f} is not close to a multiple of 2*pi")
            return int(n), amax, amin
        if ts.size + int(bad.sum()) > MAX_BOUNDARY_POINTS:
            raise BoundaryZeroError(
                "phase steps not resolvable within the sampling budget "
                "(zero on or very near the path)")
        nxt = np.append(ts[1:], 1.0)
        mids = 0.5 * (ts[bad] + nxt[bad])
        fmid = np.asarray(f(path(mids)))
        order = np.argsort(np.concatenate([ts, mids]), kind="stable")
        ts = np.concatenate([ts, mids])[order]
        fs = np.concatenate([fs, fmid])[order]


def _rect_winding(f: Callable, rect: Rectangle, *, n_initial: int = 64,
                  jitter_retries: int = JITTER_RETRIES):
    """Winding count over a rectangle with the inflate/deflate jitter policy.

    The first attempt uses the exact rectangle; on boundary-zero trouble the
    rectangle is alternately inflated and deflated by multiples of 1e-6 times
    its diameter. Zeros inside the jitter band are attributed accordingly.
    """
    last = None
    for attempt in range(jitter_retries + 1):
        if attempt == 0:
            candidate = rect
        else:
            sign = 1.0 if attempt % 2 == 1 else -1.0
            eps = sign * ((attempt + 1) // 2) * JITTER_SCALE * rect.diameter
            candidate = rect.inflated(eps)
        try:
            # A uniform fast phase rotation along a long edge can alias to a
            # slow rotation that no local trigger sees (the sampled steps are
            # all small and the modulus is flat), so a single density is never
            # trusted: the count is accepted only once two successive sampling
            # densities agree. Densifying breaks any strobe, because near the
            # alias threshold the true step exceeds pi/2 and the phase trigger
            # takes over.
            path = candidate.boundary_path()
            n_cur = n_initial
            n, amax, _ = _winding_along(f, path, n_initial=n_cur)
            for _ in range(DENSITY_ESCALATIONS):
                n_cur = 2 * n_cur + 17
                n2, amax2, _ = _winding_along(f, path, n_initial=n_cur)
                if n2 == n:
                    return n, max(amax, amax2)
                n, amax = n2, amax2
            raise RootScanError(
                f"winding over {candidate} did not stabilize across sampling "
                f"densities up to {n_cur}")
        except BoundaryZeroError as exc:
            last = exc
    raise BoundaryZeroError(
        f"boundary jitter exhausted after {jitter_retries} retries: {last}")


def wind_count(f: Callable, rect: Rectangle, *, n_initial: int = 64) -> int:
    """Number of zeros of f inside the rectangle, counted with multiplicity.

    The first sweep takes n_initial samples; FLOOR_RATIO decides a zero on
    the boundary, which moves the rectangle along the jitter ladder.
    """
    n, _ = _rect_winding(f, rect, n_initial=n_initial)
    return n


_SPLIT_JITTER = (0.0, 0.013, -0.013, 0.029, -0.029, 0.047, -0.047, 0.061, -0.061)


class _Candidate(NamedTuple):
    location: complex
    multiplicity: int


def _newton_polish(f: Callable, z0: complex, multiplicity: int, tol: float,
                   target: float, region: Rectangle) -> complex | None:
    """Multiplicity-aware Newton iteration; None when it fails to settle.

    Accepts once |step| <= tol * max(1, |z|); a stalled run needs |f| <= target.
    """
    wander_pad = region.diameter
    # strict containment up to the boundary-jitter band: anything looser lets
    # a cell adopt the neighbouring cell's zero through the pad, which both
    # duplicates that zero and leaves the cell's own zero unclaimed
    accept_pad = 1e-5 * region.diameter

    def newton_step(z):
        # the finite-difference step must stay comparable to the cell:
        # cluster cells can sit many orders of magnitude below |z|, where
        # 1e-7*|z| samples the derivative at the wrong scale and Newton stalls
        h = max(1e-7 * abs(z), 1e-4 * region.diameter)
        vals = np.asarray(f(np.array([z, z + h, z - h])))
        deriv = (vals[1] - vals[2]) / (2.0 * h)
        if deriv == 0.0 or not np.isfinite(deriv):
            return None
        return complex(multiplicity * vals[0] / deriv)

    def owns(z):
        # the root must belong to the cell whose winding count it inherits;
        # the small pad covers the boundary jitter band
        return region.contains(z, pad=accept_pad)

    def polished(z, step):
        # one extra full step once the step is small enough, so the location
        # error is the square of the already-small step
        if step is None:
            return z
        znew = z - step
        return znew if np.isfinite(znew) and owns(znew) else z

    z = complex(z0)
    for _ in range(80):
        step = newton_step(z)
        if step is None:
            break
        if abs(step) <= tol * max(1.0, abs(z)):
            return polished(z, step) if owns(z) else None
        z = z - step
        if not region.contains(z, pad=wander_pad):
            return None
    # a separate one-point call, not the next three-point one: a scanned
    # function may depend in its last bits on the batch it is evaluated in
    fz = complex(np.asarray(f(np.array([z])))[0])
    if abs(fz) > target or not owns(z):
        return None
    return polished(z, newton_step(z))


def _circle_multiplicity(f: Callable, center: complex, radius: float) -> int:
    def circle(r):
        return lambda ts: center + r * np.exp(2j * math.pi * np.asarray(ts))

    for scale in (1.0, 1.7, 0.59, 2.9, 0.34):
        try:
            n, _, _ = _winding_along(f, circle(radius * scale), n_initial=32)
            return n
        except BoundaryZeroError:
            continue
    raise RootScanError(
        f"could not certify multiplicity near {center:.6g} by circle winding")


def locate_zeros(f: Callable, rect: Rectangle, tol: float = 1e-10) -> ZeroSet:
    """All zeros of f in the rectangle as a canonical ZeroSet.

    tol is the Newton acceptance: a zero is located once its Newton step is
    at most tol * max(1, |z|), and then takes one more step; a stalled run
    needs |f| within tol times the boundary maximum of f on its cell. Zeros
    closer together than MERGE_RESOLUTION * |z| merge into one entry with
    summed multiplicity. Subdivision deeper than MAX_DEPTH levels is an
    error; FLOOR_RATIO acts as in wind_count.
    """
    total, top_scale = _rect_winding(f, rect)
    scale0 = rect.diameter
    found: list[_Candidate] = []

    def cluster_stop(cell: Rectangle) -> bool:
        return cell.diameter <= max(MERGE_RESOLUTION * abs(cell.center),
                                    1e-12 * scale0)

    def refine_in(cell: Rectangle, count: int, local_scale: float):
        target = tol * local_scale
        z = _newton_polish(f, cell.center, count, tol, target, cell)
        if z is None and count == 1 and cell.diameter > 1e-12 * scale0:
            return False
        if z is None:
            raise RootScanError(
                f"refinement did not converge in cell around {cell.center:.6g}")
        found.append(_Candidate(z, count))
        return True

    def recurse(cell: Rectangle, count: int, local_scale: float, depth: int):
        if count == 0:
            return
        if depth > MAX_DEPTH:
            raise RootScanError("subdivision exceeded the depth budget")
        if count == 1 or cluster_stop(cell):
            if refine_in(cell, count, local_scale):
                return
        for jit in _SPLIT_JITTER:
            children = cell.quadrisect(0.5 + jit, 0.5 + jit)
            try:
                results = []
                for child in children:
                    n, amax = _rect_winding(f, child, jitter_retries=0)
                    results.append((child, n, amax))
            except BoundaryZeroError:
                continue
            if sum(r[1] for r in results) != count:
                continue
            for child, n, amax in results:
                recurse(child, n, amax, depth + 1)
            return
        raise RootScanError(
            f"could not split cell around {cell.center:.6g} cleanly")

    recurse(rect, total, top_scale, 0)

    # Multiplicity certificates from small-circle windings.
    certified: list[tuple[complex, int]] = []
    locs = [c.location for c in found]
    for i, cand in enumerate(found):
        r = max(1e-6 * max(1.0, abs(cand.location)), 1e-11 * scale0)
        others = [abs(cand.location - w) for j, w in enumerate(locs) if j != i]
        if others:
            r = min(r, 0.45 * min(others)) if min(others) > 0 else r
        m = _circle_multiplicity(f, cand.location, r)
        if m <= 0:
            raise RootScanError(
                f"confirmation circle near {cand.location:.6g} found no zero")
        certified.append((cand.location, m))

    zs = ZeroSet.from_pairs(certified)
    if zs.total_multiplicity() != total:
        raise RootScanError(
            f"located multiplicities sum to {zs.total_multiplicity()} "
            f"but the boundary winding is {total}")
    return zs


def _canonical_key(z: complex):
    return (abs(z), math.atan2(z.imag, z.real))


class ZeroSet:
    """Ordered zero list with multiplicities.

    Entries are sorted by modulus, then by principal argument; constructors
    merge entries closer than resolution * |z| by summing multiplicities at
    the multiplicity-weighted mean location.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[complex, int]]):
        self.entries: tuple[tuple[complex, int], ...] = tuple(
            (complex(z), int(m)) for z, m in entries)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, int]],
                   resolution: float = MERGE_RESOLUTION) -> "ZeroSet":
        items = sorted(((complex(z), int(m)) for z, m in pairs),
                       key=lambda e: _canonical_key(e[0]))
        merged: list[tuple[complex, int]] = []
        for z, m in items:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            if merged:
                zp, mp = merged[-1]
                if abs(z - zp) <= resolution * max(abs(z), abs(zp)):
                    loc = (zp * mp + z * m) / (mp + m)
                    merged[-1] = (loc, mp + m)
                    continue
            merged.append((z, m))
        merged.sort(key=lambda e: _canonical_key(e[0]))
        return cls(merged)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def locations(self, expand: bool = False) -> np.ndarray:
        if expand:
            return np.array([z for z, m in self.entries for _ in range(m)],
                            dtype=complex)
        return np.array([z for z, _ in self.entries], dtype=complex)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZeroSet) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"ZeroSet({len(self.entries)} entries, " \
               f"total multiplicity {self.total_multiplicity()})"

    def to_text(self, provenance: dict | None = None) -> str:
        lines = ["# zeroset v1"]
        for key, val in (provenance or {}).items():
            lines.append(f"# {key}: {val}")
        lines.append(f"# count: {len(self.entries)}")
        lines.append("# columns: re im multiplicity")
        for z, m in self.entries:
            lines.append(f"{z.real:.15g} {z.imag:.15g} {m:d}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["ZeroSet", dict]:
        meta: dict[str, str] = {}
        pairs: list[tuple[complex, int]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, val = body.split(":", 1)
                    meta[key.strip()] = val.strip()
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed zero line: {raw!r}")
            pairs.append((complex(float(parts[0]), float(parts[1])),
                          int(parts[2])))
        return cls.from_pairs(pairs, resolution=0.0), meta


class MatchResult(NamedTuple):
    pairs: tuple[tuple[complex, complex], ...]
    sup_distance: float


def match_zero_sets(a: ZeroSet, b: ZeroSet) -> MatchResult:
    """Pair two zero sets by minimum-cost assignment on |a_i - b_j|.

    Multiplicities are expanded before pairing; the total multiplicities of
    the two sets must agree. Assignment keeps the pairing stable when moduli
    or arguments are nearly tied, where a lexicographic pairing would flip.
    """
    from scipy.optimize import linear_sum_assignment

    xs = a.locations(expand=True)
    ys = b.locations(expand=True)
    if xs.size != ys.size:
        raise ValueError(
            f"cardinality mismatch: {xs.size} vs {ys.size} zeros")
    if xs.size == 0:
        return MatchResult((), 0.0)
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((complex(xs[i]), complex(ys[j]))
                  for i, j in zip(rows, cols))
    sup = float(np.max(cost[rows, cols]))
    return MatchResult(pairs, sup)


class CartwrightStats(NamedTuple):
    radii: np.ndarray
    right_density: np.ndarray     # N(r)/r in the sector |arg z| < eps
    left_density: np.ndarray      # N(r)/r in the sector |arg z -/+ pi| < eps
    axis_density: np.ndarray      # combined
    off_axis_fraction: float
    partial_sums: np.ndarray      # delta(r) = sum over |a_k| < r of 1/a_k


def cartwright_stats(zs: ZeroSet, radii: Sequence[float],
                     eps_angle: float = 0.1) -> CartwrightStats:
    """Near-axis counting densities and reciprocal partial sums.

    For zero sets of functions with indicator sigma |sin theta| the density
    N(r)/r in each near-axis sector tends to the type over pi as r grows and
    the off-axis fraction tends to zero; delta(r) converges as r -> infinity.
    """
    locs = zs.locations(expand=True)
    if locs.size and np.min(np.abs(locs)) == 0.0:
        raise ValueError("zero at the origin is not admissible here")
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size == 0 or radii[0] <= 0.0:
        raise ValueError("radii must be positive")
    mods = np.abs(locs)
    args = np.angle(locs)
    right = np.abs(args) < eps_angle
    left = np.abs(np.abs(args) - math.pi) < eps_angle
    nr = np.array([np.sum(right & (mods < r)) for r in radii], dtype=float)
    nl = np.array([np.sum(left & (mods < r)) for r in radii], dtype=float)
    partial = np.array([np.sum(1.0 / locs[mods < r]) for r in radii])
    total = locs.size
    off_axis = 0.0
    if total:
        off_axis = float(np.sum(~(right | left))) / total
    return CartwrightStats(radii, nr / radii, nl / radii,
                           (nr + nl) / radii, off_axis, partial)
