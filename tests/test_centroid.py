"""Newton starts at the argument-principle centroid of a cell's boundary
samples: the centroid itself, and what starting there saves."""

import math

import numpy as np
import pytest

from resonlab import rootscan, scatter
from resonlab.ftransform import pair_function
from resonlab.potential import make_truncated_gaussian
from resonlab.rootscan import Rectangle, ZeroSet, locate_zeros


def sine(z):
    return np.sin(np.pi * z)


# each cell holds one integer, off its centre; the last holds 1 and 2
ONE_ZERO_CELLS = [Rectangle(k - 0.4, k + 0.55, -0.6, 0.35)
                  for k in range(-3, 4)]
TWO_ZERO_CELL = Rectangle(0.45, 2.6, -0.3, 0.7)


def test_the_centroid_is_the_sum_of_the_zeros_inside():
    cells = ONE_ZERO_CELLS + [TWO_ZERO_CELL]
    out = rootscan._rect_windings(sine, cells)
    for k, (cell, (n, _, s1, _)) in enumerate(zip(ONE_ZERO_CELLS, out), -3):
        assert n == 1
        assert abs(s1 - k) <= 1e-3 * cell.diameter
    n, _, s1, _ = out[-1]
    assert n == 2
    assert abs(s1 - 3.0) <= 1e-3 * TWO_ZERO_CELL.diameter


def test_a_cell_without_zeros_has_no_centroid():
    (n, _, s1, _), = rootscan._rect_windings(sine,
                                             [Rectangle(0.2, 0.8, -1, 1)])
    assert n == 0 and math.isnan(s1.real)


def test_batch_size_changes_no_centroid_bit(monkeypatch):
    cells = ONE_ZERO_CELLS + [TWO_ZERO_CELL]
    batched = rootscan._rect_windings(sine, cells)
    monkeypatch.setattr(rootscan, "_BATCH_POINTS", 1)
    alone = rootscan._rect_windings(sine, cells)
    assert [r[2] for r in alone] == [r[2] for r in batched]
    assert alone == batched


@pytest.mark.parametrize("centroid", [
    complex(math.nan), complex(math.inf, 0.0), 5.0 + 0.2j, 1.0 + 3.0j,
], ids=["nan", "inf", "right-of-cell", "above-cell"])
def test_a_centroid_off_its_cell_falls_back_to_the_centre(centroid):
    rect = Rectangle(0.0, 2.0, -1.0, 1.0)
    cell = rootscan._Cell(rect, 2, 1.0, 0, centroid)
    assert cell.newton_start() == rect.center == 1.0


def test_a_centroid_in_its_cell_is_the_start():
    rect = Rectangle(0.0, 2.0, -1.0, 1.0)
    cell = rootscan._Cell(rect, 2, 1.0, 0, 3.0 + 0.5j)
    assert cell.newton_start() == 1.5 + 0.25j


FROESE_BOX = Rectangle(0.5, 72.0, -11.0, -0.05)
FROESE_TOL = 1e-6

# the zero sets of the acceptance box (froese_run) with every Newton run
# started at its cell's centre
FROESE_RESONANCES_CENTRE_START_TEXT = """\
# zeroset v1
# count: 22
# columns: re im multiplicity
4.53230037850958 -5.78369466196659 1
8.1329943841149 -6.52049653648715 1
11.5192038399644 -7.05756724309429 1
14.8183086374355 -7.4798805450596 1
18.0716093499312 -7.82820379816893 1
21.2973097582915 -8.12477749296777 1
24.5048913210719 -8.38307214276866 1
27.6998489951079 -8.6118785447643 1
30.8856152221798 -8.81725849880495 1
34.0644572936905 -9.00357242978974 1
37.2379393658355 -9.17406361994723 1
40.4071787878511 -9.33121083869386 1
43.5729969298162 -9.47695168241403 1
46.7360122470813 -9.6128297335569 1
49.8967000156362 -9.74009478493873 1
53.0554319630242 -9.85977305450904 1
56.2125033254608 -9.97271756658333 1
59.3681517683724 -10.0796450947647 1
62.5225709205292 -10.181163726946 1
65.6759202273427 -10.2777937988714 1
68.8283322540652 -10.3699840113727 1
71.9799185459693 -10.4581243457169 1
"""
FROESE_FOURIER_ZEROS_CENTRE_START_TEXT = """\
# zeroset v1
# count: 22
# columns: re im multiplicity
3.30911578173914 -0.50000000000283 1
6.36363993786856 -0.5 1
9.47808317341302 -0.499999999991195 1
12.6062654381886 -0.500000000096474 1
15.7398483681452 -0.499999999999794 1
18.876112995987 -0.50000000000026 1
22.0139046510889 -0.500000000000211 1
25.152648753796 -0.500000000001128 1
28.2920270005586 -0.500000000000131 1
31.4318487604193 -0.499999999935411 1
34.5719928754902 -0.500000000030955 1
37.7123786478283 -0.499999999999995 1
40.8529502458837 -0.499999999998986 1
43.9936678111847 -0.499999999999792 1
47.1345021256839 -0.499999999999922 1
50.2754312828372 -0.499999999999834 1
53.4164385349544 -0.499999999932839 1
56.5575108585908 -0.499999999999884 1
59.6986379755578 -0.499999999914596 1
62.8398116581397 -0.499999998947999 1
65.9810252582392 -0.50000000021192 1
69.1222733257991 -0.499999999988957 1
"""


@pytest.fixture(scope="module")
def froese_scan():
    """The resonance scan of the acceptance box, with the start of every
    Newton run and the number of momenta X is evaluated at."""
    starts, momenta = [], [0]
    polish, magnus = rootscan._newton_polish, scatter._magnus_m

    def counted_polish(z0, *args):
        starts.append(z0)
        return polish(z0, *args)

    def counted_magnus(v, ks, *args, **kwargs):
        momenta[0] += np.size(ks)
        return magnus(v, ks, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootscan, "_newton_polish", counted_polish)
        mp.setattr(scatter, "_magnus_m", counted_magnus)
        zs = scatter.resonances(make_truncated_gaussian(sharp_edge=True),
                                FROESE_BOX, FROESE_TOL)
    return zs, starts, momenta[0]


def test_one_newton_run_per_resonance(froese_scan):
    # 30 runs when every run starts at its cell's centre: 8 of them fail
    # and their cells are split and polished again
    zs, starts, _ = froese_scan
    assert zs.total_multiplicity() == 22
    assert len(starts) == 22


def test_the_resonance_scan_evaluates_x_at_fewer_momenta(froese_scan):
    # 12,719 momenta when every run starts at its cell's centre
    _, _, momenta = froese_scan
    assert momenta <= 10_500


def assert_moved_within(new: ZeroSet, old_text: str, bound: float):
    old, _ = ZeroSet.from_text(old_text)
    assert [m for _, m in new] == [m for _, m in old]
    for (z, _), (w, _) in zip(new, old):
        assert abs(z - w) <= bound * max(1.0, abs(w))


def test_the_resonances_move_by_far_less_than_tol(froese_scan):
    zs, _, _ = froese_scan
    assert_moved_within(zs, FROESE_RESONANCES_CENTRE_START_TEXT,
                        FROESE_TOL / 100)


def test_the_fourier_zeros_move_by_far_less_than_tol():
    v = make_truncated_gaussian(sharp_edge=True)
    zs = locate_zeros(pair_function(v, 1e-12), FROESE_BOX, FROESE_TOL)
    assert_moved_within(zs, FROESE_FOURIER_ZEROS_CENTRE_START_TEXT,
                        FROESE_TOL / 100)
