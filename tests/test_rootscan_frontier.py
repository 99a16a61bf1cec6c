"""Breadth-first zero location: batched sweeps, batch-size invariance and
exact merges of repeated zeros."""

import numpy as np
import pytest

from resonlab import rootscan
from resonlab.ftransform import pair_function
from resonlab.potential import make_poly_bump
from resonlab.rootscan import Rectangle, ZeroSet, locate_zeros

STRIP = Rectangle(-60.0, 60.0, -2.0, 2.0)


def two_cosine(z):
    return 2.0 * np.cos(2.0 * z) + 0.5


def test_frontier_batches_the_winding_calls():
    # 76 zeros; a depth-first scan that sweeps one contour per call makes
    # 927 calls with more than three points here
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        return two_cosine(z)

    zs = locate_zeros(f, STRIP)
    assert zs.total_multiplicity() == 76
    assert sum(n > 3 for n in sizes) <= 300


def test_wide_strip_needs_few_refinement_rounds():
    # 382 zeros; sweeps in batches that start with at most 2048 samples
    # made 813 calls with more than three points here
    sizes = []

    def f(z):
        sizes.append(np.size(z))
        return two_cosine(z)

    zs = locate_zeros(f, Rectangle(-300.0, 300.0, -2.0, 2.0))
    assert zs.total_multiplicity() == 382
    assert sum(n > 3 for n in sizes) <= 400


@pytest.mark.parametrize("f, rect", [
    (two_cosine, STRIP),
    (pair_function(make_poly_bump(), 1e-10), Rectangle(0.5, 8.0, -6.0, 6.0)),
], ids=["two-cosine-strip", "poly-bump-pair"])
def test_batch_size_changes_no_bits(monkeypatch, f, rect):
    batched = locate_zeros(f, rect)
    monkeypatch.setattr(rootscan, "_BATCH_POINTS", 1)
    alone = locate_zeros(f, rect)
    assert len(batched) > 0
    assert alone == batched              # bitwise identical entries


def test_identical_zeros_merge_exactly():
    z = -1 + 1.6568257917690948e-295j
    (loc, m), = ZeroSet.from_pairs([(z, 1)] * 3).entries
    assert m == 3 and loc == z
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.uniform(-50, 50), rng.uniform(-5, 5))
        k = int(rng.integers(2, 5))
        assert ZeroSet.from_pairs([(z, 1)] * k).entries == ((z, k),)


# ZeroSet.to_text() of two scans as the one-cell-at-a-time Newton polish
# found them: each isolated cell's run started at its boundary centroid, and
# each cell of two or three zeros polished from its power-sum starts;
# polishing a level's cells in lockstep keeps every bit
SINE_LATTICE_TEXT = (
    "# zeroset v1\n# count: 7\n# columns: re im multiplicity\n"
    "2.03473345377661e-25 -3.6059609668164e-25 1\n"
    "1 1.23378766492787e-21 1\n"
    "-1 6.22191374022146e-19 1\n"
    "2 4.78449451116516e-25 1\n"
    "-2 -9.5544454049873e-19 1\n"
    "3 -1.96548374742332e-19 1\n"
    "-3 8.22576795066609e-19 1\n")
# the sine lattice with every cell of two or three zeros split until each
# zero sits alone (the poly-bump pair splits its cell of two zeros into
# cells of one either way)
SINE_LATTICE_SPLIT_TEXT = (
    "# zeroset v1\n# count: 7\n# columns: re im multiplicity\n"
    "-4.15216735514688e-22 -8.00849228184188e-21 1\n"
    "1 2.98705165412606e-25 1\n"
    "-1 -2.44097227378183e-21 1\n"
    "2 -2.02277110706873e-21 1\n"
    "-2 -9.86197363670179e-22 1\n"
    "3 -6.92847344403791e-22 1\n"
    "-3 -5.77897600386184e-22 1\n")
POLY_BUMP_PAIR_TEXT = (
    "# zeroset v1\n# count: 2\n# columns: re im multiplicity\n"
    "4.72674286592643 -1.62936353132447 1\n"
    "4.72674286592643 1.62936353132447 1\n")
# the same two scans with every Newton run started at its cell's centre,
# and every cell split until each zero sits alone
SINE_LATTICE_CENTRE_START_TEXT = (
    "# zeroset v1\n# count: 7\n# columns: re im multiplicity\n"
    "-9.87076590502616e-26 7.10507627069885e-26 1\n"
    "1 7.62011504648116e-19 1\n"
    "-1 3.21696571191683e-25 1\n"
    "2 7.53221379007132e-26 1\n"
    "-2 5.44820682825106e-21 1\n"
    "3 -1.02247912773965e-22 1\n"
    "-3 4.48143336892453e-23 1\n")
POLY_BUMP_PAIR_CENTRE_START_TEXT = (
    "# zeroset v1\n# count: 2\n# columns: re im multiplicity\n"
    "4.72674286592644 -1.62936353132447 1\n"
    "4.72674286592643 1.62936353132447 1\n")


def sine(z):
    return np.sin(np.pi * z)


SINE_RECT = Rectangle(-3.5, 3.5, -1.0, 1.0)


@pytest.mark.parametrize("f, rect, text", [
    (sine, SINE_RECT, SINE_LATTICE_TEXT),
    (pair_function(make_poly_bump(), 1e-10), Rectangle(0.5, 8.0, -6.0, 6.0),
     POLY_BUMP_PAIR_TEXT),
], ids=["sine-lattice", "poly-bump-pair"])
def test_lockstep_newton_keeps_the_bits(f, rect, text):
    assert locate_zeros(f, rect).to_text() == text


@pytest.mark.parametrize("f, rect, text", [
    (sine, SINE_RECT, SINE_LATTICE_CENTRE_START_TEXT),
    (pair_function(make_poly_bump(), 1e-10), Rectangle(0.5, 8.0, -6.0, 6.0),
     POLY_BUMP_PAIR_CENTRE_START_TEXT),
], ids=["sine-lattice", "poly-bump-pair"])
def test_centroid_start_moves_the_zeros_by_roundoff_only(f, rect, text):
    old, _ = ZeroSet.from_text(text)
    new = locate_zeros(f, rect)
    assert [m for _, m in new] == [m for _, m in old]
    for (z, _), (w, _) in zip(new, old):
        assert abs(z - w) <= 1e-12 * max(1.0, abs(w))


def test_power_sum_starts_move_the_zeros_by_roundoff_only():
    old, _ = ZeroSet.from_text(SINE_LATTICE_SPLIT_TEXT)
    new = locate_zeros(sine, SINE_RECT)
    assert [m for _, m in new] == [m for _, m in old]
    for (z, _), (w, _) in zip(new, old):
        assert abs(z - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("centroid", [np.nan, 1e6], ids=["nan", "far-off"])
def test_cells_without_a_usable_centroid_start_at_the_centre(monkeypatch,
                                                             centroid):
    moments = rootscan._moments

    def unusable(paths, ids, *args):
        _, sums = moments(paths, ids, *args)
        return np.full(ids.size, centroid, dtype=complex), sums

    monkeypatch.setattr(rootscan, "_moments", unusable)
    assert locate_zeros(sine, SINE_RECT).to_text() == \
        SINE_LATTICE_CENTRE_START_TEXT


def recording(g):
    calls = []

    def f(z):
        calls.append(np.array(z, copy=True))
        return g(z)

    return f, calls


def test_lockstep_newton_saves_calls_and_repeats_no_point(monkeypatch):
    polish, lockstep = rootscan._newton_polish, rootscan._polish_in_lockstep
    jobs, levels = [], []

    def recorded_polish(*args):
        jobs.append(args)
        return polish(*args)

    def recorded_lockstep(f, runs):
        counted, calls = recording(f)
        out = lockstep(counted, runs)
        levels.append((jobs[-len(runs):] if runs else [], calls, out))
        return out

    monkeypatch.setattr(rootscan, "_newton_polish", recorded_polish)
    monkeypatch.setattr(rootscan, "_polish_in_lockstep", recorded_lockstep)
    assert locate_zeros(sine, SINE_RECT).to_text() == SINE_LATTICE_TEXT

    newton_points = np.concatenate([p for _, calls, _ in levels
                                    for p in calls])
    assert np.unique(newton_points).size == newton_points.size
    crowded = [lv for lv in levels if len(lv[0]) >= 3]
    assert crowded
    for level_jobs, calls, out in crowded:
        alone_calls = 0
        for args, z in zip(level_jobs, out):
            counted, one = recording(sine)
            assert lockstep(counted, [polish(*args)]) == [z]
            alone_calls += len(one)
        assert len(calls) < alone_calls


def test_a_stalled_polish_takes_f_of_z_from_its_newton_call():
    # a zero derivative at the first point: f(z) comes with it, one call
    f, calls = recording(lambda z: (z - 0.5) ** 2)
    region = Rectangle(0.0, 1.0, -0.5, 0.5)
    out = rootscan._polish_in_lockstep(
        f, [rootscan._newton_polish(0.5, 2, 1e-10, 1e-12, region)])
    assert out == [0.5] and len(calls) == 1
    # 80 unsettled steps between two simple zeros read as a double one:
    # the stall test and the last step share one call, so no point repeats
    d = 1e-9
    f, calls = recording(lambda z: (z - 1) * (z - 1 - d))
    region = Rectangle(1 - 1e-8, 1 + 1.1e-8, -1e-8, 1.2e-8)
    out, = rootscan._polish_in_lockstep(
        f, [rootscan._newton_polish(region.center, 2, 1e-10, 1.0, region)])
    assert region.contains(out) and abs(out - (1 + d / 2)) < d
    points = np.concatenate(calls)
    assert len(calls) == 81 and np.unique(points).size == points.size


def test_a_cell_of_negative_count_still_fails_its_refinement():
    # tan(z) - z has a pole at pi/2, where the winding counts -1
    with pytest.raises(rootscan.RootScanError, match="refinement did not "
                       "converge in cell around 1.5708"):
        locate_zeros(lambda z: np.tan(z) - z, Rectangle(0.1, 20.0, -2.0, 2.0))
