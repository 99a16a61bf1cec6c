"""Per-side boundary samples at float side parameters: densities that share
only the corners, each side more than doubling its count from one density
to the next (the least count >= 2 N + 4 coprime with its N), a count
trusted only once two densities agree, and no spinning."""

import math
import signal
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest

from resonlab import rootscan
from resonlab.dickson import two_cosine_model
from resonlab.ftransform import pair_function
from resonlab.potential import make_truncated_gaussian
from resonlab.rootscan import BoundaryZeroError, Rectangle, wind_count

BOX = Rectangle(0.5, 72.0, -11.0, -0.5)


def sample_points(paths):
    """The points of the one path of paths at its current density."""
    ts = paths.start(np.array([0]))
    return {(z.real, z.imag)
            for z in paths.points(np.zeros(ts.size, dtype=np.intp), ts)}


RECTS = [BOX, BOX.quadrisect()[3], Rectangle(-300.0, 300.0, -2.0, 2.0),
         Rectangle(0.0, 1.0, 0.0, 1.0), Rectangle(0.0, 1.0, 0.0, 37.0),
         Rectangle(-1.0, 1.0, 5.0, 5.0 + 1e-9)]


@pytest.mark.parametrize("rect", RECTS)
def test_successive_densities_are_coprime_on_every_side(rect):
    corners = {(x, y) for x in (rect.re_min, rect.re_max)
               for y in (rect.im_min, rect.im_max)}
    paths = rootscan._RectSides([astuple(rect)], 64)
    # the same rectangle in a batch with the others, the 6.5:1 froese-sharp
    # cells and the 47 x 11 recon-bump box among them
    batch = RECTS + [BOX.quadrisect()[0], Rectangle(0.5, 47.5, -5.5, 5.5),
                     Rectangle(0.0, 3.0, 0.0, 1.7)]
    together = rootscan._RectSides([astuple(r) for r in batch], 64)
    at = RECTS.index(rect)
    assert paths.counts.sum() >= 64 - 2
    points = sample_points(paths)
    for _ in range(rootscan.DENSITY_ESCALATIONS):
        prev = paths.counts[0].tolist()
        paths.escalate(np.array([0]))
        together.escalate(np.arange(len(batch)))
        assert np.array_equal(paths.counts[0], together.counts[at])
        # each side takes the least count >= 2 N + 4 coprime with its N
        for n, m in zip(prev, paths.counts[0].tolist()):
            assert m >= 2 * n + 4 and math.gcd(m, n) == 1
            assert all(math.gcd(c, n) > 1 for c in range(2 * n + 4, m))
        # so the two samplings meet only at the corners
        points, before = sample_points(paths), points
        assert points & before == corners
    # opposite sides have the same length and so the same count
    assert np.array_equal(paths.counts[:, :2], paths.counts[:, 2:])


def test_escalation_counts_only_undecided_rectangles(monkeypatch):
    # the first rectangle has the zero of f on its bottom side and fails at
    # the first density; only the second goes on to the next density
    rects = [Rectangle(0.0, 1.0, 0.0, 1.0), Rectangle(2.0, 4.0, 0.0, 1.0)]
    handed = []
    escalate = rootscan._RectSides.escalate

    def recording_escalate(paths, ids):
        handed.append(np.asarray(ids).tolist())
        return escalate(paths, ids)

    monkeypatch.setattr(rootscan._RectSides, "escalate", recording_escalate)
    out = rootscan._rect_windings(lambda z: z - 0.5, rects)
    assert isinstance(out[0], BoundaryZeroError)
    assert out[1][0] == 0
    assert handed and all(ids == [1] for ids in handed)


# the froese-sharp F box, whose first density counts -4 zeros of the 22
FROESE_F = pair_function(make_truncated_gaussian(sharp_edge=True), 1e-12)
FROESE_BOX = Rectangle(0.5, 72.0, -11.0, -0.05)


def test_density_agreement_rejects_a_wrong_first_count(monkeypatch):
    counts = []
    windings = rootscan._windings

    def recording_windings(f, paths, ids, **kwargs):
        out = windings(f, paths, ids, **kwargs)
        counts.append(out[0][0])
        return out

    monkeypatch.setattr(rootscan, "_windings", recording_windings)
    result, = rootscan._rect_windings(FROESE_F, [FROESE_BOX])
    assert counts == [-4, 22, 22]
    assert result[0] == 22


def test_a_count_that_never_settles_names_the_rectangle(monkeypatch):
    # with one escalation the first density's -4 meets 22 and nothing more
    monkeypatch.setattr(rootscan, "DENSITY_ESCALATIONS", 1)
    with pytest.raises(rootscan.RootScanError) as err:
        wind_count(FROESE_F, FROESE_BOX)
    paths = rootscan._RectSides([astuple(FROESE_BOX)], 64)
    paths.escalate(np.array([0]))
    assert str(err.value) == (
        f"winding over {FROESE_BOX} did not stabilize across sampling "
        f"densities up to {paths.counts.sum()} samples")


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
