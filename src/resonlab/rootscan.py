"""Argument-principle zero location for analytic functions on rectangles.

Functions handed to this module must be vectorized: they accept a complex
ndarray and return the values as an ndarray, and a point's value must not
depend on the batch it comes in. Winding numbers come from adaptive
boundary sampling that refines until every phase step is below pi/2; zero
sets come from quadrisection of the rectangle guided by those winding
numbers, with a multiplicity-aware Newton polish and a final small-square
winding count as the multiplicity certificate. Every winding count of a
rectangle comes as (count, max |f| on the boundary, centroid, power sums).
One pass over the boundary samples that confirmed the count (_moments)
gives the argument-principle moments of the zeros inside: the centroid,
their sum, and the power sums of a cell of 2 or 3 zeros about its centre.
An isolated cell's Newton run starts at the mean of its zeros (its
centroid over its count); it starts at the cell's centre only when that
mean is not finite or lies outside the cell. A cell of 2 or 3 zeros is not
split at once: the roots of the polynomial its power sums define start one
Newton run per zero. The cell is accepted when every run finds a zero in
it and every two lie far apart beyond Newton's acceptance; then they are as
many distinct zeros as the density-certified count, so they are all of the
cell's zeros and each is simple. Otherwise the cell is split as before. The
certificates are unchanged: the final squares still count every
multiplicity, and the multiplicities must still sum to the outer winding.

Given starts, locate_zeros takes the zeros from them instead of the
subdivision, under the same certificates. It counts the rectangle once; a
count of 0 ends it before the starts are asked for. It asks for them in
the rectangle it was given, inflated by _START_MARGIN times its diameter,
and keeps those that lie in it. Each gets one Newton run on the
counted rectangle (all in lockstep, a stalled run dropped), the zeros
strictly inside it are kept and coincident ones merged, and the squares
and the total check (_certified_set) run on them. When a square finds no
zero or the multiplicities miss the count, a start was missing or wrong,
and the subdivision (_search) goes on from the rectangle already counted.

The work is batch-first. One sweep takes many closed paths at once: their
samples sit end to end in one array, neighbours are index arrays that wrap
inside each path (built from the path ends alone), and each refinement
round is one call of f for all paths still refining, while every test and
every error stays per path.
locate_zeros walks the subdivision breadth-first: per level it polishes the
isolated cells in lockstep, one call of f per Newton round for every cell
still iterating, then counts the children of all other cells in one batched
winding, and finally certifies every multiplicity square in one sweep.

A rectangle is sampled per side, not by arc length along the whole path
(_RectSides), so that a short side of a thin cell still gets samples: each
side gets its share of the density by length, at float side parameters
t = s + i / N_s on side s, and a refinement midpoint is (a + b) / 2.
At the next density a side that had N samples takes the least count
>= 2 N + 4 coprime with N, so successive densities share no sample but the
corners and their agreement stays an independent check.

The scan settings are module constants: FLOOR_RATIO (a boundary sample below
it times the sampled maximum is a zero on the boundary), MAX_BOUNDARY_POINTS
samples per path, _BATCH_POINTS (a batch starts with at most that many
samples, and a larger single path goes alone; it does not bound memory,
as each f bounds its own temporaries), MAX_DEPTH subdivision levels,
MERGE_RESOLUTION (zeros closer than it times |z| merge into one multiple
zero), _MAX_DIRECT_COUNT (the largest count of a cell polished from its
power sums instead of being split), and _NEWTON_ROUNDS and _DIRECT_ROUNDS,
the Newton rounds of an isolated cell's run and of a run from a power-sum
start. The latter is short: a run from a power-sum start that has not
settled within it is most often converging linearly to a multiple zero,
and its cell is split instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BoundaryZeroError", "RootScanError", "Rectangle", "ZeroSet",
    "MatchResult", "wind_count", "locate_zeros", "match_zero_sets",
]

PHASE_STEP_LIMIT = 0.5 * math.pi
FLOOR_RATIO = 1e-13
JITTER_SCALE = 1e-6
JITTER_RETRIES = 8
DENSITY_ESCALATIONS = 6
MERGE_RESOLUTION = 1e-8
MAX_DEPTH = 64
MAX_BOUNDARY_POINTS = 262144
_BATCH_POINTS = 1 << 14
_MAX_DIRECT_COUNT = 3      # _power_sum_starts solves up to a cubic
_NEWTON_ROUNDS = 80        # Newton rounds of an isolated cell's run
_DIRECT_ROUNDS = 8         # Newton rounds of a run from a power-sum start
_RADII_BLOCK = 64          # zeros per block of the zeros' pairwise gaps
# locate_zeros asks for starts in the rectangle inflated by this times its
# diameter, so that the jitter of the winding count, or a start a little
# off, costs no zero near an edge its start
_START_MARGIN = 1e-3


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
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"rectangle bounds must be finite, got {self!r}")
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

    def quadrisect(self, frac: float = 0.5):
        xm = self.re_min + frac * self.width
        ym = self.im_min + frac * self.height
        return (
            Rectangle(self.re_min, xm, self.im_min, ym),
            Rectangle(xm, self.re_max, self.im_min, ym),
            Rectangle(self.re_min, xm, ym, self.im_max),
            Rectangle(xm, self.re_max, ym, self.im_max),
        )


class _RectSides:
    """Rectangle boundaries sampled per side at float side parameters.

    Side s of a path runs from corner s to corner s + 1 (counterclockwise
    from the lower-left; corner 4 is corner 0) and carries N_s samples. A
    sample is the parameter t = s + i / N_s, i < N_s, at the point
    corner_s + (t - s)(corner_s+1 - corner_s), so a path's first sample on
    a side is its start corner. A refinement midpoint is (a + b) / 2, and
    the last step of a path ends at t = 4. A step whose midpoint equals one
    of its ends cannot be split.
    """

    def __init__(self, bounds: np.ndarray, n: int):
        """bounds: (paths, 4) rows (re_min, re_max, im_min, im_max); each
        side gets its share of n samples by length, rounded, at least 1.
        Opposite sides have the same length and so the same count."""
        bounds = np.asarray(bounds, dtype=float)
        re0, re1, im0, im1 = bounds.T
        corners = np.stack([re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1,
                            re0 + 1j * im1], axis=1)
        # per (path, side), flattened as 4 * path + side
        self.first = corners.ravel()
        self.step = (np.roll(corners, -1, axis=1) - corners).ravel()
        lengths = np.abs(self.step).reshape(-1, 4)
        # Rectangle.center's arithmetic, its signed zeros included
        self.centers = (0.5 * (bounds[:, ::2] + bounds[:, 1::2])).view(
            complex).ravel()
        share = n * lengths / lengths.sum(axis=1, keepdims=True)
        self.counts = np.maximum(1, np.rint(share)).astype(np.int64)

    def escalate(self, ids: np.ndarray) -> None:
        """Move the paths ids on to the next density, where a side that had
        N samples takes the least count >= 2 N + 4 coprime with N, so the two
        samplings share no point but the corners. The other paths keep
        their counts and are not swept again."""
        prev = self.counts[ids]
        counts = 2 * prev + 4
        while (clash := np.gcd(counts, prev) != 1).any():
            counts += clash
        self.counts[ids] = counts

    def sizes(self, ids: np.ndarray) -> np.ndarray:
        return self.counts[ids].sum(axis=1)

    def start(self, ids: np.ndarray) -> np.ndarray:
        counts = self.counts[ids].ravel()
        k = np.repeat(np.arange(counts.size), counts)
        i = np.arange(k.size) - (np.cumsum(counts) - counts)[k]
        return k % 4 + i / counts[k]

    def points(self, ids: np.ndarray, t: np.ndarray) -> np.ndarray:
        side = t.astype(np.intp)
        k = 4 * ids + side
        return self.first[k] + (t - side) * self.step[k]

    @staticmethod
    def mids(a: np.ndarray, b: np.ndarray):
        # the step from a path's last sample to its first ends at t = 4
        b = np.where(b > a, b, 4.0)
        mid = 0.5 * (a + b)
        return mid, (a < mid) & (mid < b)


def _moments(paths: _RectSides, ids: np.ndarray, ts: np.ndarray,
             starts: np.ndarray, sizes: np.ndarray, log_ratios: np.ndarray,
             steps: np.ndarray, turns: np.ndarray, which: np.ndarray) -> tuple:
    """Argument-principle moments of the rectangle paths marked in which,
    from one evaluation of their samples: the centroids s1 = (1/2 pi i)
    ∮ z f'/f dz, nan for the other paths, and the power sums P_k =
    (1/2 pi i) ∮ (z - c)^k f'/f dz, k = 2 .. winding, about each
    rectangle's centre c, () unless the winding is 2 .. _MAX_DIRECT_COUNT.

    By the argument principle s1 is the sum of the zeros inside, less the
    poles, and P_k the sum of their k-th powers about c. Between samples
    z_j and z_j+1, log f moves by log|f_j+1 / f_j| + i (phase step), times
    the mean of the power at the two ends (trapezoid): (z_j + z_j+1) / 2
    for s1, about the origin, and (w_j^k + w_j+1^k) / 2 with w = z - c for
    P_k. The points are evaluated again, for the marked paths only.
    """
    centroids = np.full(ids.size, complex(math.nan))
    sums: list = [()] * ids.size
    sel = np.flatnonzero(which)
    if not sel.size:
        return centroids, sums
    counts = sizes[sel]
    first = np.cumsum(counts) - counts
    at = np.arange(counts.sum()) + np.repeat(starts[sel] - first, counts)
    z = paths.points(np.repeat(ids[sel], counts), ts[at])
    nxt = np.arange(1, at.size + 1)
    nxt[first + counts - 1] = first
    w = z - np.repeat(paths.centers[ids[sel]], counts)
    powers, wk = [], w
    with np.errstate(over="ignore", invalid="ignore"):
        dlog = log_ratios[at] + 1j * steps[at]
        centroids[sel] = (np.add.reduceat((z + z[nxt]) * dlog, first)
                          / (4j * math.pi))
        for _ in range(2, _MAX_DIRECT_COUNT + 1):
            wk = wk * w
            powers.append(np.add.reduceat((wk + wk[nxt]) * dlog, first)
                          / (4j * math.pi))
    for s, k in enumerate(sel.tolist()):
        n = int(turns[k])
        if 2 <= n <= _MAX_DIRECT_COUNT:
            sums[k] = tuple(complex(p[s]) for p in powers[:n - 1])
    return centroids, sums


def _sweep(f: Callable, paths: _RectSides, ids: np.ndarray,
           moments: bool) -> list:
    """Winding numbers of f along the rectangle boundaries ids of paths.

    The samples of all paths sit end to end in one array, and each path's
    neighbours are index arrays that wrap inside the path, so a refinement
    round costs one f call however many paths still refine. Every test is
    the one-path test applied to the path's own samples. Returns one item
    per path: (winding, max |f| on the path, centroid, power sums), or the
    BoundaryZeroError or RootScanError the path ended with. When moments is
    true, one pass of _moments over the settled paths of winding n != 0
    gives both the centroid s1, the sum of the zeros a path winds around,
    and the power sums P_2 .. P_n where n is 2 .. _MAX_DIRECT_COUNT;
    otherwise the centroid is nan and the power sums are ().
    """
    out: list = [None] * ids.size
    rows = np.arange(ids.size)
    ts, sizes = paths.start(ids), paths.sizes(ids)
    fs = np.asarray(f(paths.points(np.repeat(ids, sizes), ts)))
    while rows.size:
        ends = np.cumsum(sizes)
        starts = ends - sizes
        # neighbours wrap inside each path: only the path ends differ from
        # the next and previous index in the flat array
        nxt = np.arange(1, ts.size + 1)
        nxt[ends - 1] = starts
        prv = np.arange(-1, ts.size - 1)
        prv[starts] = ends - 1
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
            flank_min = np.minimum(mags[prv], mags[nxt[nxt]])
            log_ratios = np.log(mags[nxt] / mags)
            bad = ((np.abs(steps) >= PHASE_STEP_LIMIT)
                   | (pair_min < 0.25 * flank_min)
                   | (np.abs(log_ratios) >= 1.25))
            finite = np.logical_and.reduceat(np.isfinite(fs), starts)
            amaxs = np.maximum.reduceat(mags, starts)
            amins = np.minimum.reduceat(mags, starts)
            totals = np.add.reduceat(steps, starts)
            turns = np.rint(totals / (2.0 * math.pi))
            off_turn = np.abs(totals - 2.0 * math.pi * turns) > 0.5
        n_bad = np.add.reduceat(bad, starts, dtype=np.intp)
        # each flagged sample gets the midpoint to its successor right after
        # it; the successor of a path's last sample is its first
        at = np.flatnonzero(bad)
        own = np.repeat(np.arange(rows.size), n_bad)
        mids, split = paths.mids(ts[at], ts[nxt[at]])
        unsplit = np.zeros(rows.size, dtype=bool)
        unsplit[own[~split]] = True
        floored = (amaxs == 0.0) | (amins < FLOOR_RATIO * amaxs)
        wound = finite & ~floored & (n_bad == 0)
        settled = (~finite | floored | wound
                   | (sizes + n_bad > MAX_BOUNDARY_POINTS) | unsplit)
        centroids, sums = _moments(paths, ids, ts, starts, sizes, log_ratios,
                                   steps, turns, moments & wound & ~off_turn
                                   & (turns != 0))
        for k in np.flatnonzero(settled):
            amax, amin = float(amaxs[k]), float(amins[k])
            if not finite[k]:
                res = RootScanError(
                    "function returned non-finite boundary values")
            elif amax == 0.0:
                res = BoundaryZeroError(f"f is 0 at every one of its "
                                        f"{int(sizes[k])} boundary samples")
            elif floored[k]:
                res = BoundaryZeroError(
                    f"boundary sample magnitude {amin:.3e} below floor "
                    f"({FLOOR_RATIO:.1e} * {amax:.3e})")
            elif wound[k] and off_turn[k]:
                res = RootScanError(
                    f"phase sum {float(totals[k]):.6f} is not close to a "
                    "multiple of 2*pi")
            elif wound[k]:
                res = (int(turns[k]), amax, complex(centroids[k]), sums[k])
            elif unsplit[k]:
                res = BoundaryZeroError(
                    "a phase step between adjacent sample parameters cannot "
                    "be split (zero on or very near the path)")
            else:
                res = BoundaryZeroError(
                    "phase steps not resolvable within the sampling budget "
                    "(zero on or very near the path)")
            out[rows[k]] = res
        live = ~settled
        if not live.any():
            break
        refine = live[own]
        at, own, mids = at[refine], own[refine], mids[refine]
        fmid = np.asarray(f(paths.points(ids[own], mids)))
        ts = np.insert(ts, at + 1, mids)
        fs = np.insert(fs, at + 1, fmid)
        sizes = sizes + np.where(live, n_bad, 0)
        keep = np.repeat(live, sizes)
        ts, fs = ts[keep], fs[keep]
        rows, ids, sizes = rows[live], ids[live], sizes[live]
    return out


def _windings(f: Callable, paths: _RectSides, ids: Sequence[int], *,
              moments: bool = False) -> list:
    """_sweep over the paths ids, in batches that start with at most
    _BATCH_POINTS samples; a path with more goes alone. The moments
    (_moments) are computed only when moments is true."""
    ids = np.asarray(ids, dtype=np.intp)
    per = max(1, _BATCH_POINTS // int(paths.sizes(ids).max(initial=1)))
    out: list = []
    for lo in range(0, ids.size, per):
        out += _sweep(f, paths, ids[lo:lo + per], moments)
    return out


def _rect_windings(f: Callable, rects: Sequence[Rectangle]) -> list:
    """Density-certified winding counts over many rectangles at once.

    A uniform fast phase rotation along a long edge can alias to a slow
    rotation that no local trigger sees (the sampled steps are all small and
    the modulus is flat), so a single density is never trusted: a count is
    accepted only once two successive sampling densities agree. Densifying
    breaks a strobe, because near the alias threshold the true step exceeds
    pi/2 and the phase trigger takes over; each side more than doubles its
    count, coprime with the one before (_RectSides.escalate), so the two
    share no sample but the corners. Each density is one batched sweep over
    the rectangles still undecided. Returns one item per rectangle: (count, max
    |f| on its boundary, centroid, power sums), or the error it ended with.
    The centroid and the power sums P_2 .. P_count about the rectangle's
    centre (_moments) come from the last density, the one that confirmed
    the count, so the first density, which never confirms one, computes
    none. The centroid is nan when the count is 0, and the power sums are
    () unless the count is 2 .. _MAX_DIRECT_COUNT.
    """
    paths = _RectSides([(r.re_min, r.re_max, r.im_min, r.im_max)
                        for r in rects], 64)
    out: list = [None] * len(rects)
    pending: dict[int, tuple] = {}
    for i, res in enumerate(_windings(f, paths, range(len(rects)))):
        if isinstance(res, Exception):
            out[i] = res
        else:
            pending[i] = res
    for _ in range(DENSITY_ESCALATIONS):
        if not pending:
            break
        undecided = list(pending)
        paths.escalate(np.array(undecided))
        res2 = _windings(f, paths, undecided, moments=True)
        for i, res in zip(undecided, res2):
            n, amax = pending.pop(i)[:2]
            if isinstance(res, Exception):
                out[i] = res
            elif res[0] == n:
                out[i] = (n, max(amax, res[1])) + res[2:]
            else:
                pending[i] = res
    for i in pending:
        out[i] = RootScanError(
            f"winding over {rects[i]} did not stabilize across sampling "
            f"densities up to {int(paths.counts[i].sum())} samples")
    return out


def _rect_winding(f: Callable, rect: Rectangle):
    """Winding count over a rectangle with the inflate/deflate jitter policy.

    The first attempt uses the exact rectangle; on boundary-zero trouble the
    rectangle is alternately inflated and deflated by multiples of 1e-6 times
    its diameter. Zeros inside the jitter band are attributed accordingly.
    Returns (the rectangle counted, count, max |f| on its boundary).
    """
    last = None
    for attempt in range(JITTER_RETRIES + 1):
        if attempt == 0:
            candidate = rect
        else:
            sign = 1.0 if attempt % 2 == 1 else -1.0
            eps = sign * ((attempt + 1) // 2) * JITTER_SCALE * rect.diameter
            candidate = rect.inflated(eps)
        result, = _rect_windings(f, [candidate])
        if not isinstance(result, BoundaryZeroError):
            break
        last = result
    else:
        raise BoundaryZeroError(
            f"boundary jitter exhausted after {JITTER_RETRIES} retries: "
            f"{last}")
    if isinstance(result, Exception):
        raise result
    return (candidate,) + result[:2]


def wind_count(f: Callable, rect: Rectangle) -> int:
    """Number of zeros of f inside the rectangle, counted with multiplicity.

    The first sweep takes 64 samples; FLOOR_RATIO decides a zero on the
    boundary, which moves the rectangle along the jitter ladder.
    """
    return _rect_winding(f, rect)[1]


_SPLIT_JITTER = (0.0, 0.013, -0.013, 0.029, -0.029, 0.047, -0.047, 0.061, -0.061)


def _newton_polish(z0: complex, multiplicity: int, tol: float,
                   target: float, region: Rectangle,
                   rounds: int = _NEWTON_ROUNDS):
    """Multiplicity-aware Newton iteration as a generator.

    It yields the points [z, z + h, z - h] it needs f at, is sent their
    values, and returns the polished zero, or None when it fails to settle.
    Accepts once |step| <= tol * max(1, |z|); a run that has not done so
    within `rounds` steps has stalled, and then needs |f| <= target.
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
        vals = yield np.array([z, z + h, z - h])
        deriv = (vals[1] - vals[2]) / (2.0 * h)
        if deriv == 0.0 or not np.isfinite(deriv):
            return complex(vals[0]), None
        return complex(vals[0]), complex(multiplicity * vals[0] / deriv)

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
    for _ in range(rounds):
        fz, step = yield from newton_step(z)
        if step is None:
            break
        if abs(step) <= tol * max(1.0, abs(z)):
            return polished(z, step) if owns(z) else None
        z = z - step
        if not region.contains(z, pad=wander_pad):
            return None
    else:
        if not owns(z):
            return None
        fz, step = yield from newton_step(z)
    # a stall: f(z) comes from the same call as the step at z, since a
    # scanned function does not depend on the batch it is evaluated in
    if abs(fz) > target or not owns(z):
        return None
    return polished(z, step)


def _polish_in_lockstep(f: Callable, runs: list) -> list:
    """Drive _newton_polish generators together; their results in order.

    Each round evaluates f once, on the points of every run still going,
    in the order of the runs.
    """
    out: list = [None] * len(runs)
    asks = {}
    for i, run in enumerate(runs):
        try:
            asks[i] = next(run)
        except StopIteration as stop:
            out[i] = stop.value
    while asks:
        vals = np.asarray(f(np.concatenate(list(asks.values()))))
        nxt, at = {}, 0
        for i, pts in asks.items():
            try:
                nxt[i] = runs[i].send(vals[at:at + pts.size])
            except StopIteration as stop:
                out[i] = stop.value
            at += pts.size
        asks = nxt
    return out


def _multiplicities(f: Callable, centers: np.ndarray,
                    radii: np.ndarray) -> list[int]:
    """Winding numbers of f on the squares inscribed in the circles of the
    radii about the centers (half-side r / sqrt(2), the corners on the
    circle), all in one sweep of 32 samples each. A square that meets a
    boundary zero moves on to the next radius scale in the next sweep.
    """
    out = [0] * centers.size
    pending = list(range(centers.size))
    for scale in (1.0, 1.7, 0.59, 2.9, 0.34):
        if not pending:
            break
        h = radii * scale / math.sqrt(2.0)
        paths = _RectSides(np.stack([centers.real - h, centers.real + h,
                                     centers.imag - h, centers.imag + h],
                                    axis=1), 32)
        results = _windings(f, paths, pending)
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
            "by square winding")
    return out


# the cube roots of unity, for Cardano's formula in _power_sum_starts
_CUBE_ROOTS = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)),
               complex(-0.5, -0.5 * math.sqrt(3.0)))


def _power_sum_starts(center: complex, s1: complex,
                      sums: tuple) -> list[complex]:
    """Newton starts for the n = 2 or 3 zeros of a cell, from its centroid
    s1 and its power sums sums = (P_2 .. P_n) about its centre.

    With P_1 = s1 - n center, Newton's identities give e1 = P_1,
    e2 = (e1 P_1 - P_2) / 2 and e3 = (e2 P_1 - e1 P_2 + P_3) / 3; the starts
    are the centre plus the roots of w^n - e1 w^(n-1) + e2 w^(n-2) - e3, by
    the quadratic formula or by Cardano's, in Python complex arithmetic.
    [] when the arithmetic overflows.
    """
    n = len(sums) + 1
    e1 = s1 - n * center
    e2 = (e1 * e1 - sums[0]) / 2
    try:
        if n == 2:
            d = cmath.sqrt(e1 * e1 - 4.0 * e2)
            roots = [(e1 + d) / 2, (e1 - d) / 2]
        else:
            e3 = (e2 * e1 - e1 * sums[0] + sums[1]) / 3
            # w = t + e1 / 3 turns the cubic into t^3 + p t + q
            p = e2 - e1 * e1 / 3
            q = e1 * e2 / 3 - e3 - 2 * e1 ** 3 / 27
            d = cmath.sqrt(q * q / 4 + p ** 3 / 27)
            # the larger of -q/2 +- d, so that no cancellation loses u^3
            u3 = max(-q / 2 + d, -q / 2 - d, key=abs)
            u = u3 ** (1 / 3) if u3 else 0.0
            roots = [e1 / 3 + (u * r - p / (3 * u * r) if u else 0.0)
                     for r in _CUBE_ROOTS]
    except (OverflowError, ZeroDivisionError):
        return []
    return [center + w for w in roots]


class _Cell(NamedTuple):
    rect: Rectangle
    count: int
    local_scale: float
    depth: int
    centroid: complex       # of the boundary samples (_sweep); nan if none
    power_sums: tuple = ()  # P_2 .. P_count about the centre (_moments)
    failed: bool = False    # a polish from power sums failed on these zeros

    def newton_start(self) -> complex:
        """The mean of the zeros inside by the argument principle, where
        that lies in the cell, else the centre."""
        z = self.centroid / self.count
        return z if cmath.isfinite(z) and self.rect.contains(z) \
            else self.rect.center

    def direct_starts(self) -> list[complex]:
        """One Newton start per zero from the power sums (_power_sum_starts),
        or [] when the cell is to be split: its count is not 2 ..
        _MAX_DIRECT_COUNT, it has no power sums, a polish from power sums
        already failed on the same zeros, or a start is not finite or lies
        farther from the cell than its diameter, where _newton_polish would
        give up."""
        if self.failed or not 2 <= self.count <= _MAX_DIRECT_COUNT \
                or len(self.power_sums) != self.count - 1:
            return []
        starts = _power_sum_starts(self.rect.center, self.centroid,
                                   self.power_sums)
        pad = self.rect.diameter
        return starts if all(self.rect.contains(z, pad=pad)
                             for z in starts) else []


def _distinct(zs: list, diameter: float, tol: float) -> bool:
    """Whether every run found a zero and every two of them lie farther
    apart than max(1e-3 diameter, 1e3 tol max(1, |z|)): far beyond Newton's
    acceptance of a zero, so they are as many distinct simple zeros."""
    if None in zs:
        return False
    return all(abs(a - b) > max(1e-3 * diameter,
                                1e3 * tol * max(1.0, abs(a), abs(b)))
               for i, a in enumerate(zs) for b in zs[i + 1:])


def locate_zeros(f: Callable, rect: Rectangle, tol: float = 1e-10,
                 starts: Callable[[Rectangle], Iterable] | None = None
                 ) -> ZeroSet:
    """All zeros of f in the rectangle as a canonical ZeroSet.

    tol is the Newton acceptance: a zero is located once its Newton step is
    at most tol * max(1, |z|), and then takes one more step; a stalled run
    of the search needs |f| within tol times the boundary maximum of f on
    its cell. Zeros closer together than MERGE_RESOLUTION * |z| merge into
    one entry with summed multiplicity. Subdivision deeper than MAX_DEPTH
    levels is an error; FLOOR_RATIO acts as in wind_count.

    The rectangle is counted once (_rect_winding, with its density
    agreement and jitter), and everything after works on the rectangle
    that was counted; a count of 0 returns the empty set at once. starts,
    when given, is called with the rectangle near, rect inflated by
    _START_MARGIN times its diameter, and returns Newton starts; those
    that lie in near are polished, in the order given, by one Newton run
    each on the counted rectangle, all runs in lockstep. A run that stalls
    is dropped, never accepted on |f|. The zeros strictly inside the
    counted rectangle are kept (Newton's acceptance pad would admit one
    just outside it), and zeros within MERGE_RESOLUTION of each other
    merge before their squares are counted, so that no zero counts twice.
    The set stands when every square counts a zero and the multiplicities
    sum to the winding (_certified_set); otherwise, and when no starts are
    given, the rectangle is searched (_search).
    """
    counted, total, top_scale = _rect_winding(f, rect)
    if total == 0:
        return ZeroSet(())
    if starts is not None:
        near = rect.inflated(_START_MARGIN * rect.diameter)
        runs = [_newton_polish(z0, 1, tol, 0.0, counted)
                for z0 in starts(near) if near.contains(z0)]
        inside = [z for z in _polish_in_lockstep(f, runs) if z is not None
                  and counted.re_min < z.real < counted.re_max
                  and counted.im_min < z.imag < counted.im_max]
        merged = ZeroSet.from_pairs((z, 1) for z in inside).locations()
        try:
            return _certified_set(f, merged, total, counted.diameter)
        except RootScanError:
            pass
    return _search(f, counted, total, top_scale, tol)


def _search(f: Callable, rect: Rectangle, total: int, top_scale: float,
            tol: float) -> ZeroSet:
    """The zeros of locate_zeros by subdivision of the counted rectangle,
    which holds total zeros and has max |f| top_scale on its boundary.

    A cell of 2 .. _MAX_DIRECT_COUNT zeros is polished from the roots of
    its boundary power sums, one simple Newton run per zero, and is split
    only when a run fails or two zeros lie within max(1e-3 diameter,
    1e3 tol max(1, |z|)) of each other; a child that then holds all of its
    zeros is split without a second try. Accepted zeros are as many
    distinct zeros as the certified count, so the square multiplicities
    and the total check certify them as they do every other zero.
    """
    scale0 = rect.diameter
    found: list[complex] = []

    def cluster_stop(cell: Rectangle) -> bool:
        return cell.diameter <= max(MERGE_RESOLUTION * abs(cell.center),
                                    1e-12 * scale0)

    # Breadth-first: each level polishes all its isolated cells, and the
    # cells of 2 .. _MAX_DIRECT_COUNT zeros that have power-sum starts, in
    # lockstep, then counts the children of every other cell in one batched
    # winding. A parent whose split meets a boundary zero, or whose
    # children's counts do not add up, tries its next split offset in the
    # next batch.
    frontier = [_Cell(rect, total, top_scale, 0, complex(math.nan))]
    while frontier:
        live = [cell for cell in frontier if cell.count != 0]
        if any(cell.depth > MAX_DEPTH for cell in live):
            raise RootScanError("subdivision exceeded the depth budget")
        isolated = [cell.count == 1 or cluster_stop(cell.rect)
                    for cell in live]
        starts = [[cell.newton_start()] if alone else cell.direct_starts()
                  for cell, alone in zip(live, isolated)]
        zeros = iter(_polish_in_lockstep(f, [
            _newton_polish(z0, cell.count if alone else 1, tol,
                           tol * cell.local_scale, cell.rect,
                           _NEWTON_ROUNDS if alone else _DIRECT_ROUNDS)
            for cell, alone, zs in zip(live, isolated, starts) for z0 in zs]))
        splits: list[tuple[_Cell, int]] = []
        for cell, alone, zs in zip(live, isolated, starts):
            polished = [next(zeros) for _ in zs]
            if alone:
                if polished[0] is not None:
                    found.append(polished[0])
                    continue
                if cell.count != 1 or cell.rect.diameter <= 1e-12 * scale0:
                    raise RootScanError(
                        "refinement did not converge in cell around "
                        f"{cell.rect.center:.6g}")
            elif polished:
                if _distinct(polished, cell.rect.diameter, tol):
                    found += polished
                    continue
                cell = cell._replace(failed=True)
            splits.append((cell, 0))
        frontier = []
        while splits:
            children = [cell.rect.quadrisect(0.5 + _SPLIT_JITTER[j])
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
                if error is None and sum(r[0] for r in counts) == cell.count:
                    # a child that holds all the zeros of a failed parent
                    # is not polished from its power sums either
                    frontier += [
                        _Cell(child, n, amax, cell.depth + 1, s1, sums,
                              cell.failed and n == cell.count)
                        for child, (n, amax, s1, sums)
                        in zip(children[s], counts)]
                    continue
                if j + 1 == len(_SPLIT_JITTER):
                    raise RootScanError(
                        f"could not split cell around {cell.rect.center:.6g} "
                        "cleanly")
                retry.append((cell, j + 1))
            splits = retry

    return _certified_set(f, found, total, scale0)


def _certified_set(f: Callable, found: list, total: int,
                   scale: float) -> ZeroSet:
    """The zeros found, with the multiplicities their squares certify.

    Each zero gets a small square (_multiplicities), inscribed in a circle
    of radius 1e-6 max(1, |z|) (at least 1e-11 scale) cut to 0.45 times the
    gap to the nearest other zero, where that gap is not 0; the gaps are
    formed _RADII_BLOCK rows at a time, so their memory grows linearly with
    the number of zeros. RootScanError when a square finds no zero, or when
    the multiplicities do not sum to total, the winding of the rectangle
    the zeros were found in.
    """
    locs = np.array(found, dtype=complex)
    radii = np.maximum(1e-6 * np.maximum(1.0, np.abs(locs)), 1e-11 * scale)
    for lo in range(0, locs.size, _RADII_BLOCK):
        d = np.abs(locs[lo:lo + _RADII_BLOCK, None] - locs)
        np.fill_diagonal(d[:, lo:], np.inf)
        gap, r = d.min(axis=1), radii[lo:lo + _RADII_BLOCK]
        r[:] = np.where(gap > 0, np.minimum(r, 0.45 * gap), r)
    mults = _multiplicities(f, locs, radii)
    for z, m in zip(locs, mults):
        if m <= 0:
            raise RootScanError(
                f"confirmation square near {z:.6g} found no zero")

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
