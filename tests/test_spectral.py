"""Resonances from the eigenvalues of outgoing collocation.

spectral_resonances is an oracle independent of the rectangle scans: its
eigenvalues must be the certified zeros of X (full line) or of the Jost
function m(0) (half line). resonances polishes those eigenvalues and
certifies them instead of searching the rectangle, so it must agree with
the search on the same X, and cost fewer momenta.
"""

import numpy as np
import pytest

from resonlab import scatter
from resonlab.potential import make_poly_bump, make_truncated_gaussian
from resonlab.rootscan import Rectangle, ZeroSet, locate_zeros, match_zero_sets
from resonlab.scatter import (_magnus_m, resonances, spectral_resonances,
                              xhat_function)
from test_rootscan import no_search

FROESE_SHARP = Rectangle(0.5, 72.0, -11.0, -0.05)


def jost_m0(v, rtol, atol):
    """The half-line Jost function m(0) on the Magnus path, vectorized."""

    def f(ks):
        arr = np.asarray(ks, dtype=complex)
        return _magnus_m(v, arr.ravel(), rtol, atol)[0].reshape(arr.shape)

    return f


@pytest.mark.parametrize("v, line, rect", [
    (make_truncated_gaussian(sharp_edge=True), "full", FROESE_SHARP),
    (make_truncated_gaussian(sharp_edge=True), "half",
     Rectangle(0.05, 74.0, -8.0, -0.01)),
    (make_poly_bump(), "half", Rectangle(0.05, 74.0, -14.0, -0.01)),
], ids=["gaussian-sharp-full", "gaussian-sharp-half", "poly-bump-half"])
def test_eigenvalues_are_the_certified_zeros(v, line, rect):
    if line == "full":
        f = xhat_function(v, rtol=1e-12, atol=1e-14)
    else:
        f = jost_m0(v, 1e-12, 1e-14)
    scanned = locate_zeros(f, rect, 1e-11)
    ks = spectral_resonances(v, line)
    inside = ks[(ks.real > rect.re_min) & (ks.real < rect.re_max)
                & (ks.imag > rect.im_min) & (ks.imag < rect.im_max)]
    assert inside.size == scanned.total_multiplicity() > 0
    pairs = match_zero_sets(ZeroSet((k, 1) for k in inside), scanned).pairs
    for k, z in pairs:
        assert abs(k - z) <= 1e-6 * max(1.0, abs(z))


def test_spectral_resonances_takes_a_full_or_a_half_line():
    with pytest.raises(ValueError, match="line must be 'full' or 'half'"):
        spectral_resonances(make_poly_bump(), "whole")


def test_certified_resonances_move_by_under_1e_10_from_the_search():
    v = make_truncated_gaussian(sharp_edge=True)
    searched = locate_zeros(xhat_function(v, rtol=1e-10), FROESE_SHARP, 1e-6)
    certified = resonances(v, FROESE_SHARP, 1e-6)
    assert len(certified) == len(searched) == 22
    assert [m for _, m in certified] == [m for _, m in searched]
    for (a, _), (b, _) in zip(certified, searched):
        assert abs(a - b) <= 1e-10 * abs(b)


def test_resonances_on_the_froese_sharp_box_take_under_1600_momenta(
        monkeypatch):
    # the search took 5,041 distinct momenta; one winding count of the box,
    # one Newton round per start and the multiplicity squares take 1,372
    seen = []
    magnus = scatter._magnus_m

    def recording(v, ks, *args):
        seen.append(np.array(ks, copy=True))
        return magnus(v, ks, *args)

    monkeypatch.setattr(scatter, "_magnus_m", recording)
    zs = resonances(make_truncated_gaussian(sharp_edge=True), FROESE_SHARP,
                    1e-6)
    assert zs.total_multiplicity() == 22
    assert np.unique(np.concatenate(seen).view("V16")).size <= 1600


def test_a_box_without_resonances_makes_no_eigen_solve(monkeypatch):
    solves = []

    def spectral(v, line, k_max):
        solves.append(line)
        return spectral_resonances(v, line, k_max)

    monkeypatch.setattr(scatter, "spectral_resonances", spectral)
    v = make_truncated_gaussian(sharp_edge=True)
    assert len(resonances(v, Rectangle(0.5, 10.0, -2.0, -0.05), 1e-8)) == 0
    assert solves == []
    assert len(resonances(v, Rectangle(0.5, 10.0, -8.0, -0.05), 1e-8)) == 2
    assert solves == ["full"]


def recording_spectral(monkeypatch):
    """The number of eigenvalues of each eigen-solve that resonances makes:
    2n - 2 on the full line for n nodes."""
    sizes = []

    def spectral(*args):
        ks = spectral_resonances(*args)
        sizes.append(ks.size)
        return ks

    monkeypatch.setattr(scatter, "spectral_resonances", spectral)
    return sizes


def test_a_box_inside_the_reach_of_65_nodes_collocates_on_65(monkeypatch):
    sizes = recording_spectral(monkeypatch)
    zs = resonances(make_truncated_gaussian(sharp_edge=True), FROESE_SHARP,
                    1e-6)
    assert zs.total_multiplicity() == 22
    assert sizes == [2 * 65 - 2]


def test_a_box_past_the_reach_of_65_nodes_is_certified(monkeypatch):
    # 65 nodes miss these zeros by up to 4% above |k| = 100; 97 resolve
    # them, so no search runs, and every zero confirms on DOP853
    no_search(monkeypatch)
    sizes = recording_spectral(monkeypatch)
    confirm, confirmed = scatter._confirm_on_ode, []

    def recording_confirm(v, zs, *args):
        confirm(v, zs, *args)
        confirmed.append(len(zs))

    monkeypatch.setattr(scatter, "_confirm_on_ode", recording_confirm)
    zs = resonances(make_truncated_gaussian(sharp_edge=True),
                    Rectangle(0.5, 120.0, -12.0, -0.05), 1e-6)
    assert len(zs) == zs.total_multiplicity() == 37
    assert sizes == [2 * 97 - 2]
    assert confirmed == [37]


@pytest.mark.parametrize("v, rect", [
    (make_truncated_gaussian(sharp_edge=True),
     Rectangle(72.0, 118.0, -12.0, -10.0)),
    (make_poly_bump(), Rectangle(72.0, 118.0, -18.0, -15.0)),
], ids=["gaussian-sharp", "poly-bump"])
def test_97_nodes_hold_1e_6_up_to_their_reach(v, rect):
    # the second rung of SPECTRAL_RUNGS, past the reach of 65 nodes
    scanned = locate_zeros(xhat_function(v, rtol=1e-12, atol=1e-14), rect,
                           1e-11)
    ks = spectral_resonances(v, "full", 118.0)
    assert ks.size == 2 * 97 - 2
    inside = ks[(ks.real > rect.re_min) & (ks.real < rect.re_max)
                & (ks.imag > rect.im_min) & (ks.imag < rect.im_max)]
    assert inside.size == scanned.total_multiplicity() == 14
    pairs = match_zero_sets(ZeroSet((k, 1) for k in inside), scanned).pairs
    for k, z in pairs:
        assert abs(k - z) <= 1e-6 * max(1.0, abs(z))
