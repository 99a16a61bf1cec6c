"""Cells of two or three zeros polished from the roots of their boundary
power sums: the starts, what they save, and the fallback to splitting."""

import cmath
import math

import numpy as np
import pytest

from resonlab import rootscan, scatter
from resonlab.ftransform import pair_function
from resonlab.potential import make_truncated_gaussian
from resonlab.rootscan import Rectangle, ZeroSet, locate_zeros
from test_rootscan_frontier import (
    SINE_LATTICE_SPLIT_TEXT, SINE_LATTICE_TEXT, SINE_RECT, sine,
)

# the integers inside each cell, none of them on its boundary
CELLS = {
    (1, 2): Rectangle(0.45, 2.6, -0.3, 0.7),
    (1, 2, 3): Rectangle(0.4, 3.35, -0.45, 0.6),
}


def starts_of(results):
    return [rootscan._power_sum_starts(rect.center, s1, sums)
            for rect, (_, _, s1, sums) in zip(CELLS.values(), results)]


def test_the_starts_are_the_zeros_inside():
    results = rootscan._rect_windings(sine, list(CELLS.values()))
    for (zeros, rect), (n, _, _, sums), starts in zip(
            CELLS.items(), results, starts_of(results)):
        assert n == len(zeros) == len(sums) + 1 == len(starts)
        for k in zeros:
            assert min(abs(z - k) for z in starts) <= 1e-3 * rect.diameter


def test_batch_size_changes_no_start_bit(monkeypatch):
    batched = rootscan._rect_windings(sine, list(CELLS.values()))
    monkeypatch.setattr(rootscan, "_BATCH_POINTS", 1)
    alone = rootscan._rect_windings(sine, list(CELLS.values()))
    assert alone == batched
    assert starts_of(alone) == starts_of(batched)


def test_every_winding_result_has_one_shape():
    # cells holding 0 .. 4 integers: (count, max |f|, centroid, power sums)
    cells = [Rectangle(0.2, 0.8, -1.0, 1.0), Rectangle(0.45, 1.6, -0.3, 0.7),
             *CELLS.values(), Rectangle(0.4, 4.35, -0.45, 0.6)]
    results = rootscan._rect_windings(sine, cells)
    for count, result in enumerate(results):
        assert isinstance(result, tuple) and len(result) == 4
        n, _, s1, sums = result
        assert n == count
        assert cmath.isnan(s1) == (n == 0)
        if 2 <= n <= rootscan._MAX_DIRECT_COUNT:
            assert len(sums) == n - 1
        else:
            assert sums == ()


@pytest.mark.parametrize("zeros", [
    (1.0, 2.0), (1.0, 2.0, 3.0), (1j, 1j, -1j), (0.0, 0.0, 0.0),
    (0.3 - 0.2j, -0.4 + 0.1j, 0.25 + 0.45j),
], ids=["quadratic", "cubic", "double-root", "triple-root", "complex"])
def test_the_starts_are_the_roots_of_the_power_sum_polynomial(zeros):
    # the centroid and the power sums about the centre c of given zeros
    c = 0.5
    sums = tuple(sum((z - c) ** k for z in zeros)
                 for k in range(2, len(zeros) + 1))
    s1 = sum(zeros)
    starts = rootscan._power_sum_starts(c, s1, sums)
    assert len(starts) == len(zeros)
    for z in zeros:
        assert min(abs(w - z) for w in starts) <= 1e-5


def counted_quadrisects(monkeypatch):
    splits = [0]
    quadrisect = Rectangle.quadrisect

    def counted(self, *args):
        splits[0] += 1
        return quadrisect(self, *args)

    monkeypatch.setattr(Rectangle, "quadrisect", counted)
    return splits


def test_the_sine_lattice_needs_fewer_splits(monkeypatch):
    # 7 splits when every cell of two or three zeros is split
    splits = counted_quadrisects(monkeypatch)
    assert locate_zeros(sine, SINE_RECT).to_text() == SINE_LATTICE_TEXT
    assert splits[0] <= 3


def nan_power_sums(moments):
    def fake(*args):
        centroids, power_sums = moments(*args)
        return centroids, [tuple(complex(math.nan) for _ in sums)
                           for sums in power_sums]

    return fake


def equal_starts(_):
    return lambda center, s1, sums: [center] * (len(sums) + 1)


@pytest.mark.parametrize("name, fake", [
    ("_moments", nan_power_sums),
    ("_power_sum_starts", equal_starts),
], ids=["nan-power-sums", "equal-starts"])
def test_a_cell_whose_polish_fails_is_split(monkeypatch, name, fake):
    monkeypatch.setattr(rootscan, name, fake(getattr(rootscan, name)))
    splits = counted_quadrisects(monkeypatch)
    assert locate_zeros(sine, SINE_RECT).to_text() == SINE_LATTICE_SPLIT_TEXT
    assert splits[0] == 7


def test_no_lapack_root_finder_is_reached(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a scan reached a LAPACK root finder")

    monkeypatch.setattr(np, "roots", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    splits = counted_quadrisects(monkeypatch)
    assert locate_zeros(sine, SINE_RECT).to_text() == SINE_LATTICE_TEXT
    assert splits[0] <= 3
    cubic = locate_zeros(lambda z: (z - 0.3) * (z + 0.2j) * (z - 0.6 - 0.5j),
                         Rectangle(-1.0, 1.1, -0.9, 1.0))
    assert [m for _, m in cubic] == [1, 1, 1]


@pytest.mark.parametrize("f, rect, tol, want", [
    (lambda z: z ** 3, Rectangle(-1, 1, -1, 1), 1e-12, [(0j, 3)]),
    (lambda z: (z - 0.2) ** 2 * (z - 0.201), Rectangle(-0.8, 0.9, -0.7, 0.6),
     1e-10, [(0.2 + 0j, 2), (0.201 + 0j, 1)]),
], ids=["triple", "double-next-to-simple"])
def test_multiple_zeros_keep_their_multiplicities(monkeypatch, f, rect, tol,
                                                  want):
    attempts = [0]
    starts = rootscan._power_sum_starts

    def counted(*args):
        attempts[0] += 1
        return starts(*args)

    monkeypatch.setattr(rootscan, "_power_sum_starts", counted)
    zs = locate_zeros(f, rect, tol)
    assert [m for _, m in zs] == [m for _, m in want]
    for (z, _), (w, _) in zip(zs, want):
        assert abs(z - w) <= 1e-6
    # a failed polish is not retried on a child that holds the same zeros
    assert 1 <= attempts[0] <= 2


@pytest.mark.parametrize("f, rect, mult, calls", [
    (lambda z: z ** 3, Rectangle(-1, 1, -1, 1), 3, 134),
    (lambda z: (z - 1.5) ** 2, Rectangle(0.5, 2.5, -1, 1), 2, 86),
], ids=["triple", "double"])
def test_a_polish_that_meets_a_multiple_zero_gives_up_early(f, rect, mult,
                                                            calls):
    # the runs from power-sum starts converge only linearly to a multiple
    # zero; _DIRECT_ROUNDS ends them long before an isolated cell's budget
    # (206 and 111 calls of f when they ran 80 rounds)
    counted = [0]

    def g(z):
        counted[0] += 1
        return f(z)

    zs = locate_zeros(g, rect, 1e-12)
    assert [m for _, m in zs] == [mult]
    assert counted[0] <= calls


FROESE_BOX = Rectangle(0.5, 72.0, -11.0, -0.05)
FROESE_TOL = 1e-6

# the zero sets of the acceptance box (froese_run) with every cell of two
# or three zeros split until each zero sits alone
FROESE_RESONANCES_SPLIT_TEXT = """\
# zeroset v1
# count: 22
# columns: re im multiplicity
4.53230037850979 -5.78369466196623 1
8.13299438412607 -6.52049653648264 1
11.5192038399807 -7.0575672430878 1
14.8183086374579 -7.47988054504652 1
18.0716093499318 -7.82820379816873 1
21.2973097582917 -8.1247774929675 1
24.5048913210503 -8.3830721427631 1
27.6998489951076 -8.6118785447655 1
30.8856152222541 -8.81725849875084 1
34.0644572940755 -9.00357242997744 1
37.2379393658257 -9.17406361993567 1
40.4071787878507 -9.3312108386906 1
43.5729969296897 -9.47695168271426 1
46.7360122472267 -9.61282973399638 1
49.8967000155895 -9.74009478501748 1
53.0554319635508 -9.85977305354886 1
56.2125033238613 -9.97271756432131 1
59.3681517684479 -10.0796450946532 1
62.5225709208094 -10.1811637261187 1
65.6759202273445 -10.2777937988739 1
68.8283322540365 -10.3699840113634 1
71.9799185459758 -10.4581243457132 1
"""
FROESE_FOURIER_ZEROS_SPLIT_TEXT = """\
# zeroset v1
# count: 22
# columns: re im multiplicity
3.30911578173735 -0.5 1
6.36363993786854 -0.499999999999925 1
9.47808317340364 -0.500000000000067 1
12.6062654382179 -0.500000000068889 1
15.7398483681452 -0.499999999999797 1
18.876112995987 -0.500000000000259 1
22.0139046509467 -0.500000000065531 1
25.1526487537973 -0.500000000000045 1
28.2920270006225 -0.500000000080788 1
31.4318487604039 -0.499999999999822 1
34.5719928757201 -0.499999999999795 1
37.7123786478205 -0.499999999999898 1
40.8529502458839 -0.499999999999778 1
43.9936678112185 -0.500000000086732 1
47.1345021256849 -0.499999999999814 1
50.2754312832861 -0.499999999830758 1
53.4164385346186 -0.49999999998938 1
56.5575108585908 -0.499999999999884 1
59.698637974213 -0.500000000089375 1
62.8398116591812 -0.499999999999928 1
65.9810252579945 -0.499999999999997 1
69.1222733258031 -0.499999999999993 1
"""


@pytest.fixture(scope="module")
def froese_scan():
    """The resonance scan of the acceptance box, with the number of momenta
    X is evaluated at."""
    momenta = [0]
    magnus = scatter._magnus_m

    def counted_magnus(v, ks, *args, **kwargs):
        momenta[0] += np.size(ks)
        return magnus(v, ks, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scatter, "_magnus_m", counted_magnus)
        zs = scatter.resonances(make_truncated_gaussian(sharp_edge=True),
                                FROESE_BOX, FROESE_TOL)
    return zs, momenta[0]


def test_the_resonance_scan_evaluates_x_at_fewer_momenta(froese_scan):
    # 9,341 momenta when every cell of two or three zeros is split
    _, momenta = froese_scan
    assert momenta <= 5_500


def assert_moved_within(new: ZeroSet, old_text: str, bound: float):
    old, _ = ZeroSet.from_text(old_text)
    assert [m for _, m in new] == [m for _, m in old]
    for (z, _), (w, _) in zip(new, old):
        assert abs(z - w) <= bound * max(1.0, abs(w))


def test_the_resonances_move_by_far_less_than_tol(froese_scan):
    zs, _ = froese_scan
    assert_moved_within(zs, FROESE_RESONANCES_SPLIT_TEXT, FROESE_TOL / 100)


def test_the_fourier_zeros_move_by_far_less_than_tol():
    v = make_truncated_gaussian(sharp_edge=True)
    zs = locate_zeros(pair_function(v, 1e-12), FROESE_BOX, FROESE_TOL)
    assert_moved_within(zs, FROESE_FOURIER_ZEROS_SPLIT_TEXT, FROESE_TOL / 100)
