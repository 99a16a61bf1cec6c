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
