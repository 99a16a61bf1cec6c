"""Canonical per-side boundary samples: shared edges, densities, no spinning."""

import math
import signal
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest

from resonlab import rootscan
from resonlab.dickson import two_cosine_model
from resonlab.rootscan import BoundaryZeroError, Rectangle

# h = 10.5 and w = 71.5 halve exactly, so every halving below has
# mid - lo == (hi - lo) / 2 in floating point
BOX = Rectangle(0.5, 72.0, -11.0, -0.5)


def far_line(z):
    # no zero anywhere near, and too flat to trigger any refinement
    return np.asarray(z) - (1e4 + 1e4j)


def samples_by_density(rect):
    """The points f sees in the winding of one rectangle, one array per
    density; the first two densities agree on far_line, so there are two."""
    calls = []

    def f(z):
        calls.append(np.array(z, copy=True))
        return far_line(z)

    result, = rootscan._rect_windings(f, [rect])
    assert result[0] == 0 and len(calls) == 2
    return calls


def on_segment(pts, a, b):
    """The points on the closed segment a -> b (a horizontal or vertical
    edge), as sorted bytes."""
    if a.imag == b.imag:
        keep = ((pts.imag == a.imag) & (pts.real >= min(a.real, b.real))
                & (pts.real <= max(a.real, b.real)))
    else:
        keep = ((pts.real == a.real) & (pts.imag >= min(a.imag, b.imag))
                & (pts.imag <= max(a.imag, b.imag)))
    return sorted(p.tobytes() for p in pts[keep])


def test_siblings_sample_their_shared_edges_at_the_same_bits():
    quad = BOX.quadrisect()
    seen = [samples_by_density(child) for child in quad]
    xm, ym = quad[0].re_max, quad[0].im_max
    inner = [  # (sibling, sibling, edge)
        (0, 1, (complex(xm, BOX.im_min), complex(xm, ym))),
        (2, 3, (complex(xm, ym), complex(xm, BOX.im_max))),
        (0, 2, (complex(BOX.re_min, ym), complex(xm, ym))),
        (1, 3, (complex(xm, ym), complex(BOX.re_max, ym))),
    ]
    for density in range(2):
        for a, b, edge in inner:
            on_a = on_segment(seen[a][density], *edge)
            on_b = on_segment(seen[b][density], *edge)
            assert len(on_a) >= 3
            assert on_a == on_b


def test_a_half_side_from_a_parent_corner_keeps_every_parent_sample():
    quad = BOX.quadrisect()
    xm, ym = quad[0].re_max, quad[0].im_max
    halves = [  # (child, half-side starting at a parent corner)
        (0, (complex(BOX.re_min, BOX.im_min), complex(xm, BOX.im_min))),
        (0, (complex(BOX.re_min, BOX.im_min), complex(BOX.re_min, ym))),
        (1, (complex(BOX.re_max, BOX.im_min), complex(BOX.re_max, ym))),
        (2, (complex(BOX.re_min, BOX.im_max), complex(xm, BOX.im_max))),
    ]
    parent = samples_by_density(BOX)
    for child, half in halves:
        seen = samples_by_density(quad[child])
        for density in range(2):
            from_parent = on_segment(parent[density], *half)
            assert len(from_parent) >= 2
            assert set(from_parent) <= set(on_segment(seen[density], *half))


@pytest.mark.parametrize("rect", [
    BOX, BOX.quadrisect()[3], Rectangle(-300.0, 300.0, -2.0, 2.0),
    Rectangle(0.0, 1.0, 0.0, 1.0), Rectangle(0.0, 1.0, 0.0, 37.0),
    Rectangle(-1.0, 1.0, 5.0, 5.0 + 1e-9)])
def test_successive_densities_are_coprime_on_every_side(rect):
    paths = rootscan._RectSides([astuple(rect)], 64)
    assert paths.counts.sum() >= 64 - 2
    for _ in range(rootscan.DENSITY_ESCALATIONS):
        prev, n = paths.counts.copy(), paths.n
        paths.escalate()
        assert paths.n == 2 * n + 17
        assert np.all(np.gcd(paths.counts, prev) == 1)
        assert paths.counts.sum() >= 2 * n + 17
    # opposite sides have the same length and so the same count
    assert np.array_equal(paths.counts[:, :2], paths.counts[:, 2:])


def fewest_samples(n, prev_a, prev_b):
    """The least a + b with 2 (a + b) >= n, each count coprime with its
    previous one, by brute force."""
    total = (n + 1) // 2
    while not any(math.gcd(a, prev_a) == 1 and math.gcd(total - a, prev_b) == 1
                  for a in range(1, total)):
        total += 1
    return total


def test_later_densities_take_the_fewest_samples():
    # the 6.5:1 froese-sharp cells, the 47 x 11 recon-bump box, and more
    rects = [BOX.quadrisect()[0], Rectangle(0.5, 47.5, -5.5, 5.5), BOX,
             Rectangle(-300.0, 300.0, -2.0, 2.0), Rectangle(0.0, 1.0, 0.0, 1.0),
             Rectangle(0.0, 1.0, 0.0, 37.0), Rectangle(0.0, 3.0, 0.0, 1.7)]
    together = rootscan._RectSides([astuple(r) for r in rects], 64)
    alone = [rootscan._RectSides([astuple(r)], 64) for r in rects]
    for density in range(rootscan.DENSITY_ESCALATIONS):
        prev, n = together.counts.copy(), together.n
        together.escalate()
        for i, paths in enumerate(alone):
            paths.escalate()
            assert np.array_equal(paths.counts[0], together.counts[i])
            a, b = together.counts[i, :2]
            assert a + b == fewest_samples(2 * n + 17, *prev[i, :2])
        if density == 0:
            # raising each side on its own took 65 + 11 and 59 + 17
            assert together.counts[0, :2].tolist() == [65, 9]
            assert together.counts[1, :2].tolist() == [61, 13]


def test_escalation_counts_only_undecided_rectangles(monkeypatch):
    # the first rectangle has the zero of f on its bottom side and fails at
    # the first density; only the second goes on to the next density
    rects = [Rectangle(0.0, 1.0, 0.0, 1.0), Rectangle(2.0, 4.0, 0.0, 1.0)]
    handed = []
    side_counts = rootscan._side_counts

    def recording_side_counts(lengths, n, prev=None):
        if prev is not None:
            handed.append(lengths.copy())
        return side_counts(lengths, n, prev)

    monkeypatch.setattr(rootscan, "_side_counts", recording_side_counts)
    out = rootscan._rect_windings(lambda z: z - 0.5, rects)
    assert isinstance(out[0], BoundaryZeroError)
    assert out[1][0] == 0
    assert handed
    for lengths in handed:
        assert lengths.tolist() == [[2.0, 1.0, 2.0, 1.0]]


@contextmanager
def time_limit(seconds):
    def stop(signum, frame):
        raise TimeoutError(f"sweep still refining after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def counting(g):
    seen = [0]

    def f(z):
        seen[0] += np.size(z)
        return g(z)

    return f, seen


def test_zeros_on_an_edge_reach_the_floor():
    # the bottom edge runs through the ~190 real zeros of 2 cos 2z + 1/2;
    # the ticks must let refinement close in on one of them until the floor
    # test fires
    f, seen = counting(two_cosine_model())
    with time_limit(30.0):
        result, = rootscan._rect_windings(
            f, [Rectangle(-300.0, 0.0, 0.0, 2.0)])
    assert isinstance(result, BoundaryZeroError)
    assert "below floor" in str(result)
    assert seen[0] <= 4000 < rootscan.MAX_BOUNDARY_POINTS


def test_a_step_that_cannot_be_split_ends_the_path():
    # a sign jump on the bottom and top edges: |f| = 1 never meets the
    # floor, and the bad step closes in on x = 1/3 until its ends are
    # adjacent ticks, where the path must stop instead of refining forever
    jump = lambda z: np.where(np.real(z) < 1.0 / 3.0, 1.0, -1.0) + 0j
    f, seen = counting(jump)
    with time_limit(30.0):
        result, = rootscan._rect_windings(f, [Rectangle(0.0, 1.0, 0.0, 1.0)])
    assert isinstance(result, BoundaryZeroError)
    assert "cannot be split" in str(result)
    assert seen[0] <= 1000
