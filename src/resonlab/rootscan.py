"""Argument-principle zero location for analytic functions on rectangles.

Functions handed to this module must be vectorized: they accept a complex
ndarray and return the values as an ndarray, and a point's value must not
depend on the batch it comes in. Winding numbers come from adaptive
boundary sampling that refines until every phase step is below pi/2; zero
sets come from quadrisection of the rectangle guided by those winding
numbers, with a multiplicity-aware Newton polish and a final small-circle
winding count as the multiplicity certificate.

The work is batch-first. One sweep takes many closed paths at once: their
samples sit end to end in one array, neighbours are index arrays that wrap
inside each path, and each refinement round is one call of f for all paths
still refining, while every test and every error stays per path.
locate_zeros walks the subdivision breadth-first: per level it polishes the
isolated cells one by one, then counts the children of all other cells in
one batched winding, and finally certifies every multiplicity circle in one
sweep. The zero set is bit for bit the one a depth-first scan that sweeps
one contour per call would find.

The scan settings are module constants: FLOOR_RATIO (a boundary sample below
it times the sampled maximum is a zero on the boundary), MAX_BOUNDARY_POINTS
samples per path, _BATCH_POINTS (a batch starts with at most that many
samples, which bounds memory; a larger single path goes alone), MAX_DEPTH
subdivision levels and MERGE_RESOLUTION (zeros closer than it times |z|
merge into one multiple zero).
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
_BATCH_POINTS = 2048


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
        curve = _boundary_curve([self])
        return lambda ts: curve(np.zeros(np.shape(ts), dtype=np.intp), ts)


def _boundary_curve(rects: Sequence[Rectangle]) -> Callable:
    """Boundary parameterizations of many rectangles as one curve family.

    curve(ids, ts)[k] is the point at parameter ts[k] on the counterclockwise
    boundary of rects[ids[k]], arc length normalized to one round per unit.
    """
    corners = np.array([rect.corners() for rect in rects])
    sides = np.array([[r.width, r.height, r.width, r.height] for r in rects])
    cum = np.cumsum(sides, axis=1)
    breaks = np.concatenate([np.zeros((len(rects), 1)), cum / cum[:, 3:]],
                            axis=1)

    def curve(ids: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ts = np.mod(np.asarray(ts, dtype=float), 1.0)
        seg = np.count_nonzero(breaks[ids, 1:4] <= ts[..., None], axis=-1)
        lo, hi = breaks[ids, seg], breaks[ids, seg + 1]
        start = corners[ids, seg]
        end = corners[ids, (seg + 1) % 4]
        return start + (ts - lo) / (hi - lo) * (end - start)

    return curve


def _sweep(f: Callable, curve: Callable, ids: np.ndarray,
           n_initial: int) -> list:
    """Winding numbers of f along the closed paths ids of a curve family.

    The samples of all paths sit end to end in one array, and each path's
    neighbours are index arrays that wrap inside the path, so a refinement
    round costs one curve call and one f call however many paths still
    refine. Every test is the one-path test applied to the path's own
    samples. Returns one item per path: (winding, max |f| on the path), or
    the BoundaryZeroError or RootScanError the path ended with.
    """
    out: list = [None] * ids.size
    rows = np.arange(ids.size)
    sizes = np.full(ids.size, n_initial)
    ts = np.tile(np.linspace(0.0, 1.0, n_initial, endpoint=False), ids.size)
    fs = np.asarray(f(curve(np.repeat(ids, n_initial), ts)))
    while rows.size:
        starts = np.cumsum(sizes) - sizes
        first = np.repeat(starts, sizes)
        size = np.repeat(sizes, sizes)
        local = np.arange(ts.size) - first
        nxt = first + (local + 1) % size
        # a path that fails the floor test below may hold zeros or
        # non-finite values; its ratios are computed and then ignored
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mags = np.abs(fs)
            steps = np.angle(fs[nxt] / fs)
            # Phase aliasing guard: a zero of multiplicity >= 2 (or a tight
            # cluster) close to the path can sweep almost 2*pi between
            # samples while the principal value stays small, so the pair
            # magnitudes are also watched. A sharp dip relative to the
            # flanking samples, or a large jump within the pair, forces
            # refinement until the step is short compared with the distance
            # to the zero, where the principal value is the true increment
            # again.
            pair_min = np.minimum(mags, mags[nxt])
            flank_min = np.minimum(mags[first + (local - 1) % size],
                                   mags[first + (local + 2) % size])
            bad = ((np.abs(steps) >= PHASE_STEP_LIMIT)
                   | (pair_min < 0.25 * flank_min)
                   | (np.abs(np.log(mags[nxt] / mags)) >= 1.25))
            finite = np.logical_and.reduceat(np.isfinite(fs), starts)
            amaxs = np.maximum.reduceat(mags, starts)
            amins = np.minimum.reduceat(mags, starts)
        n_bad = np.add.reduceat(bad, starts, dtype=np.intp)
        settled = (~finite | (amaxs == 0.0) | (amins < FLOOR_RATIO * amaxs)
                   | (n_bad == 0) | (sizes + n_bad > MAX_BOUNDARY_POINTS))
        for k in np.flatnonzero(settled):
            amax, amin = float(amaxs[k]), float(amins[k])
            if not finite[k]:
                res = RootScanError(
                    "function returned non-finite boundary values")
            elif amax == 0.0 or amin < FLOOR_RATIO * amax:
                res = BoundaryZeroError(
                    f"boundary sample magnitude {amin:.3e} below floor "
                    f"({FLOOR_RATIO:.1e} * {amax:.3e})")
            elif n_bad[k] == 0:
                total = float(np.sum(steps[starts[k]:starts[k] + sizes[k]]))
                n = round(total / (2.0 * math.pi))
                res = (int(n), amax)
                if abs(total - 2.0 * math.pi * n) > 0.5:
                    res = RootScanError(
                        f"phase sum {total:.6f} is not close to a multiple "
                        "of 2*pi")
            else:
                res = BoundaryZeroError(
                    "phase steps not resolvable within the sampling budget "
                    "(zero on or very near the path)")
            out[rows[k]] = res
        live = ~settled
        if not live.any():
            break
        # each flagged sample gets the midpoint to its successor right after
        # it; the last sample of a path pairs with t = 1
        at = np.flatnonzero(bad & np.repeat(live, sizes))
        t_next = np.where(local == size - 1, 1.0, ts[nxt])
        mids = 0.5 * (ts[at] + t_next[at])
        fmid = np.asarray(f(curve(np.repeat(ids, sizes)[at], mids)))
        ts = np.insert(ts, at + 1, mids)
        fs = np.insert(fs, at + 1, fmid)
        sizes = sizes + np.where(live, n_bad, 0)
        keep = np.repeat(live, sizes)
        ts, fs = ts[keep], fs[keep]
        rows, ids, sizes = rows[live], ids[live], sizes[live]
    return out


def _windings(f: Callable, curve: Callable, ids: Sequence[int],
              n_initial: int) -> list:
    """_sweep over the paths ids, in batches that start with at most
    _BATCH_POINTS samples; a path with more goes alone."""
    ids = np.asarray(ids, dtype=np.intp)
    per = max(1, _BATCH_POINTS // n_initial)
    out: list = []
    for lo in range(0, ids.size, per):
        out += _sweep(f, curve, ids[lo:lo + per], n_initial)
    return out


def _winding_along(f: Callable, path: Callable, *, n_initial: int = 64):
    """Winding number of f along one closed path, with boundary diagnostics.

    Returns (winding, max |f| on the path). Raises BoundaryZeroError when
    the sampled |f| dips below FLOOR_RATIO times the sampled maximum, or
    when MAX_BOUNDARY_POINTS samples cannot bring all phase steps below
    pi/2 (both indicate a zero on or near the path).
    """
    result, = _windings(f, lambda ids, ts: path(ts), [0], n_initial)
    if isinstance(result, Exception):
        raise result
    return result


def _rect_windings(f: Callable, rects: Sequence[Rectangle], *,
                   n_initial: int = 64) -> list:
    """Density-certified winding counts over many rectangles at once.

    A uniform fast phase rotation along a long edge can alias to a slow
    rotation that no local trigger sees (the sampled steps are all small and
    the modulus is flat), so a single density is never trusted: a count is
    accepted only once two successive sampling densities agree. Densifying
    breaks any strobe, because near the alias threshold the true step
    exceeds pi/2 and the phase trigger takes over. Each density is one
    batched sweep over the rectangles still undecided. Returns one item per
    rectangle: (count, max |f| on its boundary), or the error it ended with.
    """
    curve = _boundary_curve(rects)
    out: list = [None] * len(rects)
    pending: dict[int, tuple[int, float]] = {}
    for i, res in enumerate(_windings(f, curve, range(len(rects)),
                                      n_initial)):
        if isinstance(res, Exception):
            out[i] = res
        else:
            pending[i] = res
    n_cur = n_initial
    for _ in range(DENSITY_ESCALATIONS):
        if not pending:
            break
        n_cur = 2 * n_cur + 17
        undecided = list(pending)
        res2 = _windings(f, curve, undecided, n_cur)
        for i, res in zip(undecided, res2):
            n, amax = pending.pop(i)
            if isinstance(res, Exception):
                out[i] = res
            elif res[0] == n:
                out[i] = (n, max(amax, res[1]))
            else:
                pending[i] = res
    for i in pending:
        out[i] = RootScanError(
            f"winding over {rects[i]} did not stabilize across sampling "
            f"densities up to {n_cur}")
    return out


def _rect_winding(f: Callable, rect: Rectangle, *, n_initial: int = 64):
    """Winding count over a rectangle with the inflate/deflate jitter policy.

    The first attempt uses the exact rectangle; on boundary-zero trouble the
    rectangle is alternately inflated and deflated by multiples of 1e-6 times
    its diameter. Zeros inside the jitter band are attributed accordingly.
    """
    last = None
    for attempt in range(JITTER_RETRIES + 1):
        if attempt == 0:
            candidate = rect
        else:
            sign = 1.0 if attempt % 2 == 1 else -1.0
            eps = sign * ((attempt + 1) // 2) * JITTER_SCALE * rect.diameter
            candidate = rect.inflated(eps)
        result, = _rect_windings(f, [candidate], n_initial=n_initial)
        if not isinstance(result, BoundaryZeroError):
            break
        last = result
    else:
        raise BoundaryZeroError(
            f"boundary jitter exhausted after {JITTER_RETRIES} retries: "
            f"{last}")
    if isinstance(result, Exception):
        raise result
    return result


def wind_count(f: Callable, rect: Rectangle, *, n_initial: int = 64) -> int:
    """Number of zeros of f inside the rectangle, counted with multiplicity.

    The first sweep takes n_initial samples; FLOOR_RATIO decides a zero on
    the boundary, which moves the rectangle along the jitter ladder.
    """
    n, _ = _rect_winding(f, rect, n_initial=n_initial)
    return n


_SPLIT_JITTER = (0.0, 0.013, -0.013, 0.029, -0.029, 0.047, -0.047, 0.061, -0.061)


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


def _circle_multiplicities(f: Callable, centers: Sequence[complex],
                           radii: Sequence[float]) -> list[int]:
    """Winding numbers of f on small circles, all circles in one sweep.

    A circle that meets a boundary zero moves on to the next radius scale in
    the next sweep.
    """
    c = np.asarray(centers, dtype=complex)
    out = [0] * len(centers)
    pending = list(range(len(centers)))
    for scale in (1.0, 1.7, 0.59, 2.9, 0.34):
        if not pending:
            break
        r = np.array([radius * scale for radius in radii])
        results = _windings(
            f, lambda ids, ts: c[ids] + r[ids] * np.exp(2j * math.pi * ts),
            pending, 32)
        retry = []
        for i, res in zip(pending, results):
            if isinstance(res, BoundaryZeroError):
                retry.append(i)
            elif isinstance(res, Exception):
                raise res
            else:
                out[i] = res[0]
        pending = retry
    if pending:
        raise RootScanError(
            f"could not certify multiplicity near {centers[pending[0]]:.6g} "
            "by circle winding")
    return out


class _Cell(NamedTuple):
    rect: Rectangle
    count: int
    local_scale: float
    depth: int
    key: tuple[int, ...]    # child indices from the top; sorts depth-first


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
    found: list[tuple[tuple[int, ...], complex]] = []

    def cluster_stop(cell: Rectangle) -> bool:
        return cell.diameter <= max(MERGE_RESOLUTION * abs(cell.center),
                                    1e-12 * scale0)

    def refine_in(cell: _Cell) -> bool:
        target = tol * cell.local_scale
        z = _newton_polish(f, cell.rect.center, cell.count, tol, target,
                           cell.rect)
        if (z is None and cell.count == 1
                and cell.rect.diameter > 1e-12 * scale0):
            return False
        if z is None:
            raise RootScanError(
                "refinement did not converge in cell around "
                f"{cell.rect.center:.6g}")
        found.append((cell.key, z))
        return True

    # Breadth-first: each level polishes its isolated cells one by one, then
    # counts the children of every other cell in one batched winding. A
    # parent whose split meets a boundary zero, or whose children's counts
    # do not add up, tries its next split offset in the next batch.
    frontier = [_Cell(rect, total, top_scale, 0, ())]
    while frontier:
        splits: list[tuple[_Cell, int]] = []
        for cell in frontier:
            if cell.count == 0:
                continue
            if cell.depth > MAX_DEPTH:
                raise RootScanError("subdivision exceeded the depth budget")
            if ((cell.count == 1 or cluster_stop(cell.rect))
                    and refine_in(cell)):
                continue
            splits.append((cell, 0))
        frontier = []
        while splits:
            children = [cell.rect.quadrisect(0.5 + _SPLIT_JITTER[j],
                                             0.5 + _SPLIT_JITTER[j])
                        for cell, j in splits]
            results = _rect_windings(f, [c for quad in children for c in quad])
            retry = []
            for s, (cell, j) in enumerate(splits):
                # the children in quadrisect order: the first error decides
                counts = results[4 * s:4 * s + 4]
                error = next((r for r in counts if isinstance(r, Exception)),
                             None)
                if error is not None and not isinstance(error,
                                                        BoundaryZeroError):
                    raise error
                if error is None and sum(n for n, _ in counts) == cell.count:
                    frontier += [
                        _Cell(child, n, amax, cell.depth + 1, cell.key + (c,))
                        for c, (child, (n, amax))
                        in enumerate(zip(children[s], counts))]
                    continue
                if j + 1 == len(_SPLIT_JITTER):
                    raise RootScanError(
                        f"could not split cell around {cell.rect.center:.6g} "
                        "cleanly")
                retry.append((cell, j + 1))
            splits = retry

    # Multiplicity certificates from small-circle windings, in the order a
    # depth-first scan finds the zeros.
    locs = [z for _, z in sorted(found, key=lambda e: e[0])]
    radii = []
    loc_array = np.array(locs, dtype=complex)
    for i, z in enumerate(locs):
        r = max(1e-6 * max(1.0, abs(z)), 1e-11 * scale0)
        if len(locs) > 1:
            # numpy's |z - w| can differ from abs() in the last bit, so it
            # only shortlists the nearest zeros and abs() decides among them
            d = np.abs(loc_array - z)
            d[i] = np.inf
            gap = min(abs(z - locs[j])
                      for j in np.flatnonzero(d <= (1 + 1e-6) * d.min()))
            r = min(r, 0.45 * gap) if gap > 0 else r
        radii.append(r)
    mults = _circle_multiplicities(f, locs, radii)
    for z, m in zip(locs, mults):
        if m <= 0:
            raise RootScanError(
                f"confirmation circle near {z:.6g} found no zero")

    zs = ZeroSet.from_pairs(zip(locs, mults))
    if zs.total_multiplicity() != total:
        raise RootScanError(
            f"located multiplicities sum to {zs.total_multiplicity()} "
            f"but the boundary winding is {total}")
    return zs


def _canonical_order(entries: list[tuple[complex, int]]):
    """Modulus order, with near-equal moduli ordered by argument.

    Entries whose moduli lie within MERGE_RESOLUTION * |z| of a group's
    first modulus form one group, sorted by argument in (-pi, pi]; a zero
    within that tolerance of the real axis counts as on it. So a zero that
    moves by roundoff keeps its row, as long as it stays in its group.
    """
    entries = sorted(entries, key=lambda e: abs(e[0]))
    ordered: list[tuple[complex, int]] = []
    start = 0
    while start < len(entries):
        first = abs(entries[start][0])
        stop = start + 1
        while (stop < len(entries)
               and abs(entries[stop][0]) - first <= MERGE_RESOLUTION * first):
            stop += 1
        ordered += sorted(entries[start:stop], key=lambda e: math.atan2(
            0.0 if abs(e[0].imag) <= MERGE_RESOLUTION * abs(e[0])
            else e[0].imag, e[0].real))
        start = stop
    return ordered


class ZeroSet:
    """Ordered zero list with multiplicities.

    Entries are sorted by modulus; moduli within MERGE_RESOLUTION * |z| of
    each other count as equal and are sorted by principal argument, so a
    conjugate pair found as two separate zeros keeps its order when either
    moves by an ulp. Constructors merge entries closer than
    resolution * |z| by summing multiplicities at the multiplicity-weighted
    mean location; equal locations merge to that location exactly.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[complex, int]]):
        self.entries: tuple[tuple[complex, int], ...] = tuple(
            (complex(z), int(m)) for z, m in entries)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, int]],
                   resolution: float = MERGE_RESOLUTION) -> "ZeroSet":
        items = _canonical_order([(complex(z), int(m)) for z, m in pairs])
        merged: list[tuple[complex, int]] = []
        for z, m in items:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            if merged:
                zp, mp = merged[-1]
                if abs(z - zp) <= resolution * max(abs(z), abs(zp)):
                    # the weighted mean of equal locations can round off them
                    loc = zp if z == zp else (zp * mp + z * m) / (mp + m)
                    merged[-1] = (loc, mp + m)
                    continue
            merged.append((z, m))
        return cls(_canonical_order(merged))

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
