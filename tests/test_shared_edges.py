"""Per-side boundary samples at float side parameters: densities that share
only the corners, the fewest samples, and no spinning."""

import math
import signal
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest

from resonlab import rootscan
from resonlab.dickson import two_cosine_model
from resonlab.rootscan import BoundaryZeroError, Rectangle, wind_count

BOX = Rectangle(0.5, 72.0, -11.0, -0.5)


def sample_points(paths):
    """The points of the one path of paths at its current density."""
    ts = paths.start(np.array([0]))
    return {(z.real, z.imag)
            for z in paths.points(np.zeros(ts.size, dtype=np.intp), ts)}


@pytest.mark.parametrize("rect", [
    BOX, BOX.quadrisect()[3], Rectangle(-300.0, 300.0, -2.0, 2.0),
    Rectangle(0.0, 1.0, 0.0, 1.0), Rectangle(0.0, 1.0, 0.0, 37.0),
    Rectangle(-1.0, 1.0, 5.0, 5.0 + 1e-9)])
def test_successive_densities_are_coprime_on_every_side(rect):
    corners = {(x, y) for x in (rect.re_min, rect.re_max)
               for y in (rect.im_min, rect.im_max)}
    paths = rootscan._RectSides([astuple(rect)], 64)
    assert paths.counts.sum() >= 64 - 2
    points = sample_points(paths)
    for _ in range(rootscan.DENSITY_ESCALATIONS):
        prev, n = paths.counts.copy(), paths.n
        paths.escalate()
        assert paths.n == 2 * n + 17
        assert np.all(np.gcd(paths.counts, prev) == 1)
        assert paths.counts.sum() >= 2 * n + 17
        # so the two samplings meet only at the corners
        points, before = sample_points(paths), points
        assert points & before == corners
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
    # the side parameters must let refinement close in on one of them until
    # the floor test fires
    f, seen = counting(two_cosine_model())
    with time_limit(30.0):
        result, = rootscan._rect_windings(
            f, [Rectangle(-300.0, 0.0, 0.0, 2.0)])
    assert isinstance(result, BoundaryZeroError)
    assert "below floor" in str(result)
    assert seen[0] <= 4000 < rootscan.MAX_BOUNDARY_POINTS


def test_a_step_that_cannot_be_split_ends_the_path():
    # a sign jump on the bottom and top edges: |f| = 1 never meets the
    # floor, and the bad step closes in on x = 1/3 until its midpoint
    # rounds to one of its ends, where the path must stop instead of
    # refining forever
    jump = lambda z: np.where(np.real(z) < 1.0 / 3.0, 1.0, -1.0) + 0j
    f, seen = counting(jump)
    with time_limit(30.0):
        result, = rootscan._rect_windings(f, [Rectangle(0.0, 1.0, 0.0, 1.0)])
    assert isinstance(result, BoundaryZeroError)
    assert "cannot be split" in str(result)
    assert seen[0] <= 1000


@pytest.mark.parametrize("above", [1e-9, 1e-12])
def test_a_zero_just_above_the_lower_left_corner_ends_the_wrap_step(above):
    # the zero lies on the left side, where the step from the path's last
    # sample back to its first ends at t = 4 and refines towards the corner;
    # the exact square meets the floor, and the jitter ladder counts it
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    f, seen = counting(lambda z: np.asarray(z) - 1j * above)
    with time_limit(30.0):
        result, = rootscan._rect_windings(f, [rect])
        assert isinstance(result, BoundaryZeroError)
        assert seen[0] <= 1000
        assert wind_count(f, rect) == 1
