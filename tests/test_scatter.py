"""Jost data, scattering matrix, and resonance scans.

The strongest checks run against a constant square well, where the Jost data
has a closed form that exercises none of the ODE machinery: matching
A e^{ik'x} + B e^{-ik'x} (k' = sqrt(k^2 - V0)) to e^{ikx} at the right edge
gives X(k) explicitly, and the ODE route must reproduce it everywhere in the
complex plane.
"""

import math
import re
import warnings

import numpy as np
import pytest

from resonlab import scatter
from resonlab.potential import load_table, make_poly_bump, make_truncated_gaussian
from resonlab.rootscan import (Rectangle, ZeroSet, locate_zeros,
                               match_zero_sets, wind_count)
from resonlab.scatter import (
    DEFAULT_ATOL, DEFAULT_RTOL, EXCLUSION_RADIUS, JostIntegrationError,
    _confirm_on_ode, _jost_many, _magnus_m, _x_and_y, froese_compare,
    jost_solve, resonances, scattering_matrix, xhat_function,
)
from test_shared_edges import time_limit

WELL_DEPTH = 2.0


def make_zero_potential():
    xs = np.linspace(0.0, 1.0, 5)
    return load_table(np.column_stack([xs, np.zeros_like(xs)]))


def make_square_well(v0=WELL_DEPTH):
    xs = np.linspace(0.0, 1.0, 9)
    return load_table(np.column_stack([xs, np.full_like(xs, v0)]))


def xhat_well_exact(ks, v0=WELL_DEPTH):
    # either branch of the root works: the expression is even in k'
    ks = np.asarray(ks, dtype=complex)
    kp = np.sqrt(ks * ks - v0)
    a = np.exp(1j * ks) * np.exp(-1j * kp) * (1.0 + ks / kp) / 2.0
    b = np.exp(1j * ks) * np.exp(1j * kp) * (1.0 - ks / kp) / 2.0
    return (1j * ks * (a + b) + 1j * kp * (a - b)) / 2.0


ALL_FAMILIES = [
    make_poly_bump(),
    make_truncated_gaussian(sharp_edge=True),
    make_truncated_gaussian(sharp_edge=False),
]


def test_free_field_exact():
    v0 = make_zero_potential()
    rng = np.random.default_rng(11)
    ks = rng.uniform(-10, 10, 100) + 1j * rng.uniform(-5, 5, 100)
    ks = ks[np.abs(ks) > 0.1]
    vals = xhat_function(v0)(ks)
    assert np.max(np.abs(vals - 1j * ks) / np.abs(ks)) <= 1e-12
    jd = jost_solve(v0, 2 + 1j)
    assert jd.x_hat == 1j * (2 + 1j)
    assert jd.y_hat_minus == 0.0
    assert jd.ode_error_estimate >= 0.0


def test_free_field_scattering_matrix():
    sm = scattering_matrix(make_zero_potential(), 1.0)
    assert sm.t == 1.0
    assert sm.r_right == 0.0
    assert sm.l_left == 0.0
    assert sm.unitarity_defect <= 1e-15


def test_k_zero_rejected():
    v = make_poly_bump()
    with pytest.raises(ValueError):
        jost_solve(v, 0.0)
    with pytest.raises(ValueError):
        scattering_matrix(v, 0.0)


def test_conjugation_symmetry_real_k():
    # V is real and IEEE +, * and abs commute with conjugation, so DOP853
    # takes the same steps at -k as at k: the Jost data are exact conjugates
    for v in ALL_FAMILIES:
        for k in (0.05, 0.7, 3.0, 12.0, 20.0):
            plus = jost_solve(v, k)
            minus = jost_solve(v, -k)
            assert minus.x_hat == plus.x_hat.conjugate()
            assert minus.y_hat_minus == plus.y_hat_minus.conjugate()


def test_scattering_matrix_bits_match_the_two_solve_assembly():
    for v in ALL_FAMILIES:
        for k in (0.05, 0.7, 3.0, 12.0, 20.0):
            plus = jost_solve(v, k)
            minus = jost_solve(v, -k)
            t = 1j * k / plus.x_hat
            r_right = minus.y_hat_minus / plus.x_hat
            sm = scattering_matrix(v, k)
            assert sm.t == t
            assert sm.r_right == r_right
            assert sm.l_left == plus.y_hat_minus / plus.x_hat
            assert sm.unitarity_defect == abs(abs(t) ** 2 + abs(r_right) ** 2 - 1.0)


def test_scattering_matrix_solves_once_per_piece(monkeypatch):
    solve_ivp = scatter.solve_ivp
    spans = []

    def counting_solve_ivp(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(scatter, "solve_ivp", counting_solve_ivp)
    for v in ALL_FAMILIES:
        spans.clear()
        scattering_matrix(v, 3.0)
        ends = v.edges[::-1]
        assert spans == list(zip(ends, ends[1:]))


def test_square_well_closed_form():
    well = make_square_well()
    rng = np.random.default_rng(7)
    ks = rng.uniform(-8, 8, 40) + 1j * rng.uniform(-4, 2, 40)
    ks = ks[np.abs(ks * ks - WELL_DEPTH) > 0.3]  # stay away from k' = 0
    num = xhat_function(well)(ks)
    exact = xhat_well_exact(ks)
    assert np.max(np.abs(num - exact) / np.abs(exact)) <= 1e-8


def test_square_well_resonances_two_routes():
    well = make_square_well()
    rect = Rectangle(0.5, 7.0, -4.0, -0.05)
    via_ode = resonances(well, rect, 1e-10)
    via_formula = locate_zeros(xhat_well_exact, rect, 1e-10)
    assert len(via_ode) == len(via_formula) > 0
    assert match_zero_sets(via_ode, via_formula).sup_distance <= 1e-8


def test_born_regime_transmission():
    v = make_poly_bump()
    sm = scattering_matrix(v, 200.0)
    assert abs(sm.t - 1.0) <= 2.0 * v.abs_moments[0] / 200.0
    assert sm.unitarity_defect <= 1e-10


def test_unitarity_real_axis():
    for v in ALL_FAMILIES:
        for k in (0.5, 2.0, 7.3, 20.0):
            assert scattering_matrix(v, k).unitarity_defect <= 1e-8


def test_upper_half_plane_clear_of_zeros():
    # a nonnegative potential supports no bound states, and off-axis zeros
    # of X in the upper half plane would contradict self-adjointness
    zs = resonances(make_poly_bump(), Rectangle(0.5, 10.0, 0.05, 5.0), 1e-9)
    assert len(zs) == 0


def test_cauchy_mean_value_entirety():
    f = xhat_function(make_poly_bump())
    center = 3.0 - 1.0j
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = f(center + 0.5 * np.exp(1j * th))
    assert abs(np.mean(ring) - f(np.array([center]))[0]) <= 1e-8


def test_resonances_origin_exclusion():
    v = make_poly_bump()
    with pytest.raises(ValueError):
        resonances(v, Rectangle(-0.2, 0.2, -0.2, 0.2))
    assert Rectangle(0.5, 2.0, -1.0, -0.05).distance_to(0.0) > EXCLUSION_RADIUS


def test_resonance_count_matches_wind_count():
    vg = make_truncated_gaussian(sharp_edge=True)
    rect = Rectangle(0.5, 6.0, -6.5, -0.05)
    zs = resonances(vg, rect, 1e-8)
    assert zs.total_multiplicity() == wind_count(xhat_function(vg), rect)


def test_resonances_stable_under_tolerance_halving():
    vg = make_truncated_gaussian(sharp_edge=True)
    rect = Rectangle(0.5, 10.0, -8.0, -0.05)
    a = resonances(vg, rect, 1e-9, rtol=1e-10)
    b = resonances(vg, rect, 1e-9, rtol=5e-11)
    assert len(a) == len(b) > 0
    assert match_zero_sets(a, b).sup_distance <= 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_imaginary_momentum_reported():
    # e^{|Im k| L} overruns double range long before the integrator finishes
    with pytest.raises(JostIntegrationError, match=r"k = -?0-500j: "):
        jost_solve(make_poly_bump(), -500j)
    with pytest.raises(JostIntegrationError,
                       match=r"k = 1\+0j \(first of a batch of 2\): "):
        _jost_many(make_poly_bump(), np.array([1.0, -500j]),
                   DEFAULT_RTOL, DEFAULT_ATOL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_imaginary_momentum_named_by_the_scanned_x():
    with pytest.raises(JostIntegrationError,
                       match=r"k = -?0-500j: .* overflowed on the piece "
                             r"\[0, 1\] with 4 cells"):
        xhat_function(make_poly_bump())(-500j)


def test_magnus_mesh_cap_names_the_momentum():
    # a zero target cannot be met, so the doubling runs into its cap
    with pytest.raises(JostIntegrationError,
                       match=r"k = 3-1j: .* at 4096 cells per piece"):
        xhat_function(make_poly_bump(), rtol=0.0, atol=0.0)(np.array([3 - 1j]))


def test_xhat_bits_do_not_depend_on_the_batch():
    # 300 momenta on the froese rectangle reach 64 cells and more, where one
    # unblocked (cells, momenta) complex array passes numpy's 256 KiB
    # threshold for reusing temporaries in place
    f = xhat_function(make_truncated_gaussian(sharp_edge=True))
    rng = np.random.default_rng(12)
    ks = rng.uniform(0.5, 72.0, 300) + 1j * rng.uniform(-11.0, -0.05, 300)
    batch = f(ks)
    perm = rng.permutation(ks.size)
    assert np.array_equal(f(ks[perm]), batch[perm])
    assert np.array_equal(f(ks.reshape(20, 15)), batch.reshape(20, 15))
    alone = np.array([f(np.array([k]))[0] for k in ks])
    assert np.array_equal(alone, batch)


def test_xhat_zero_dim_input_gives_a_zero_dim_array_with_the_batch_bits():
    f = xhat_function(make_poly_bump())
    ks = np.array([3.0 - 1.0j, 7.5 - 0.4j, 1.2 - 2.0j])
    batch = f(ks)
    for k, expected in zip(ks, batch):
        got = f(k)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_magnus_within_its_proxy_of_a_tight_ode_solve(rtol):
    v = make_truncated_gaussian(sharp_edge=True)
    rng = np.random.default_rng(9)
    ks = np.concatenate([
        rng.uniform(0.5, 72.0, 150) + 1j * rng.uniform(-11.0, -0.05, 150),
        [72 - 11j, 0.5 - 11j, 72 - 0.05j]])
    atol = 1e-2 * rtol
    x_ref, y_ref, _ = _jost_many(v, ks, 1e-13, 1e-15)
    x_hat, _ = _x_and_y(ks, *_magnus_m(v, ks, rtol, atol))
    bound = rtol * (np.abs(x_ref) + np.abs(y_ref)) + atol
    assert np.all(np.abs(x_hat - x_ref) <= bound)


def test_confirmation_names_a_moved_resonance():
    vg = make_truncated_gaussian(sharp_edge=True)
    zs = resonances(vg, Rectangle(0.5, 6.0, -6.5, -0.05), 1e-8)
    assert len(zs) > 0
    _confirm_on_ode(vg, zs, 1e-8, DEFAULT_RTOL, DEFAULT_ATOL)
    moved = ZeroSet([(z + 1e-3, m) for z, m in zs])
    first = moved.locations()[0]
    with pytest.raises(JostIntegrationError,
                       match=f"resonance {re.escape(f'{first:.10g}')} is not "
                             "confirmed"):
        _confirm_on_ode(vg, moved, 1e-8, DEFAULT_RTOL, DEFAULT_ATOL)


def test_confirmation_failure_names_no_integration_position():
    # the confirmation solve ran to x = 0; the failure is its Newton step,
    # not a position the integrator stopped at
    vg = make_truncated_gaussian(sharp_edge=True)
    moved = ZeroSet([(z + 1e-3, m) for z, m in resonances(
        vg, Rectangle(0.5, 6.0, -6.5, -0.05), 1e-8)])
    with pytest.raises(JostIntegrationError) as info:
        _confirm_on_ode(vg, moved, 1e-8, DEFAULT_RTOL, DEFAULT_ATOL)
    assert "last trusted x" not in str(info.value)
    assert re.search(r"exceeds [0-9.e+-]+$", str(info.value))


def test_resonances_confirm_with_their_own_defaults():
    # tol = rtol = 1e-10: a Magnus X at rtol 1e-10 puts the zero near
    # 8.13 - 6.52i 2e-9 off, twice the Newton bound of the confirmation, so
    # the scan runs at rtol 1e-11 and confirms at 1e-10
    zs = resonances(make_truncated_gaussian(sharp_edge=True),
                    Rectangle(0.5, 16.0, -8.2, -0.05))
    assert len(zs) == 4


@pytest.mark.parametrize("tol, rtol, scanned", [
    (1e-10, 1e-10, 1e-10 / 10), (1e-9, 1e-10, 1e-10), (1e-6, 1e-10, 1e-10),
    (1e-9, 5e-11, 5e-11)])
def test_the_scan_rtol_is_the_smaller_of_rtol_and_a_tenth_of_tol(
        monkeypatch, tol, rtol, scanned):
    seen = []

    def recording(v, *, rtol, atol):
        seen.append(rtol)
        return xhat_function(v, rtol=rtol, atol=atol)

    monkeypatch.setattr(scatter, "xhat_function", recording)
    monkeypatch.setattr(scatter, "locate_zeros", lambda *a: ZeroSet(()))
    resonances(make_poly_bump(), Rectangle(0.5, 9.0, -2.0, -0.05), tol,
               rtol=rtol)
    assert seen == [scanned]


def test_a_resonance_scan_evaluates_each_momentum_once(monkeypatch):
    seen = []
    magnus = scatter._magnus_m

    def recording(v, ks, *args):
        seen.append(np.array(ks, copy=True))
        return magnus(v, ks, *args)

    monkeypatch.setattr(scatter, "_magnus_m", recording)
    zs = resonances(make_truncated_gaussian(sharp_edge=True),
                    Rectangle(0.5, 16.0, -8.2, -0.05), 1e-8)
    assert len(zs) == 4
    ks = np.concatenate(seen)
    assert np.unique(ks.view("V16")).size == ks.size


def test_the_exact_memo_returns_the_bits_of_a_fresh_evaluation():
    v = make_truncated_gaussian(sharp_edge=True)
    rng = np.random.default_rng(5)
    ks = rng.uniform(0.5, 72.0, 40) + 1j * rng.uniform(-11.0, -0.05, 40)
    fresh = xhat_function(v)(ks)
    memo = scatter._exact_memo(xhat_function(v))
    picks = np.concatenate([np.arange(25), np.arange(5), np.arange(3, 8)])
    assert memo(ks[picks]).tobytes() == fresh[picks].tobytes()
    perm = rng.permutation(ks.size)
    got = memo(ks[perm].reshape(8, 5))
    assert got.shape == (8, 5)
    assert got.tobytes() == fresh[perm].reshape(8, 5).tobytes()
    one = memo(ks[7])
    assert one.shape == () and one.tobytes() == fresh[7].tobytes()


def test_the_exact_memo_evaluates_each_key_once_and_splits_signed_zeros():
    calls = []
    signs = lambda ks: (np.copysign(1.0, ks.real)
                        + 1j * np.copysign(2.0, ks.imag))

    def f(ks):
        calls.append(np.array(ks, copy=True))
        return signs(ks)

    memo = scatter._exact_memo(f)
    zs = np.array([complex(0.0, 1.0), complex(-0.0, 1.0), complex(0.0, 1.0),
                   complex(2.0, 0.0), complex(2.0, -0.0)])
    assert memo(zs).tobytes() == signs(zs).tobytes()
    # the repeat is evaluated once; the rest go in order of appearance
    assert calls[1:] == []
    assert calls[0].tobytes() == zs[[0, 1, 3, 4]].tobytes()
    calls.clear()
    assert memo(zs[::-1]).tobytes() == signs(zs[::-1]).tobytes()
    assert calls == []
    more = np.array([complex(-0.0, 1.0), 3.0 + 0j, 3.0 + 0j])
    assert memo(more).tobytes() == signs(more).tobytes()
    assert len(calls) == 1 and calls[0].tobytes() == more[1:2].tobytes()
    assert memo(np.empty((0, 3), dtype=complex)).shape == (0, 3)


def test_froese_compare_sharp_gaussian():
    vg = make_truncated_gaussian(sharp_edge=True)
    cmp = froese_compare(vg, Rectangle(0.5, 16.0, -8.2, -0.05), 1e-7)
    # counts differ near the rectangle boundary; the mismatch is data
    assert len(cmp.resonance_set) == 4
    assert len(cmp.fourier_set) == 5
    assert len(cmp.pairs) == 4
    mods = [abs(p.resonance) for p in cmp.pairs]
    assert mods == sorted(mods)
    for p in cmp.pairs:
        assert p.distance == abs(p.resonance - p.fourier_zero)
        assert p.relative == pytest.approx(p.distance / abs(p.resonance))
    # transform zeros hug Im = -log(V(0)/V(L))/(2 L) = -1/2 while the
    # resonances dive, so the raw gap widens and the relative gap closes
    assert all(abs(p.fourier_zero.imag + 0.5) < 0.05 for p in cmp.pairs)
    assert cmp.median_last_third > cmp.median_first_third
    assert cmp.relative_median_last_third < cmp.relative_median_first_third


def test_froese_pairs_follow_the_canonical_resonance_order(monkeypatch):
    # the first two moduli tie to within MERGE_RESOLUTION, so the canonical
    # order puts the smaller argument first although its modulus is larger
    res = ZeroSet.from_pairs([(5.0 * np.exp(-0.4j) * (1.0 + 1e-13), 1),
                              (5.0 * np.exp(-0.2j), 1), (8.0 - 1.0j, 1)])
    locs = res.locations()
    assert abs(locs[0]) > abs(locs[1])
    near = ZeroSet.from_pairs([(z + 0.01, 1) for z in locs])
    monkeypatch.setattr(scatter, "resonances", lambda *a, **k: res)
    monkeypatch.setattr(scatter, "locate_zeros", lambda *a, **k: near)
    cmp = froese_compare(make_poly_bump(), Rectangle(0.5, 9.0, -2.0, -0.05))
    assert [p.resonance for p in cmp.pairs] == list(locs)
    assert [p.fourier_zero for p in cmp.pairs] == list(locs + 0.01)


def test_froese_compare_zero_potential():
    cmp = froese_compare(make_zero_potential(), Rectangle(0.5, 7.0, -4.0, -0.05))
    assert len(cmp.resonance_set) == 0
    assert len(cmp.fourier_set) == 0
    assert cmp.pairs == ()
    assert np.isnan(cmp.median_first_third)


# the momenta of perfbench/configs/scatter-grid.ini
SCATTER_GRID = np.linspace(0.05, 20.0, 201)


def test_scattering_matrix_grid_solves_once_per_piece(monkeypatch):
    solve_ivp = scatter.solve_ivp
    spans = []

    def counting_solve_ivp(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(scatter, "solve_ivp", counting_solve_ivp)
    for v in ALL_FAMILIES:
        spans.clear()
        entries = scattering_matrix(v, SCATTER_GRID)
        ends = v.edges[::-1]
        assert spans == list(zip(ends, ends[1:]))
        assert [sm.k for sm in entries] == list(SCATTER_GRID)


def test_batched_scattering_matrix_within_ten_rtol_of_the_scalar_calls():
    # |T|, |R| and |L| are at most 1 on the real axis, so each entry is
    # measured against max(1, |value|), the scale of the benchmark's check;
    # every fifth momentum keeps the lone solves short
    for v in ALL_FAMILIES:
        batch = scattering_matrix(v, SCATTER_GRID)
        for i in range(0, SCATTER_GRID.size, 5):
            got, want = batch[i], scattering_matrix(v, SCATTER_GRID[i])
            assert got.k == want.k
            for entry in ("t", "r_right", "l_left"):
                a, b = getattr(got, entry), getattr(want, entry)
                assert abs(a - b) <= 10.0 * DEFAULT_RTOL * max(1.0, abs(b))


def test_batched_transmission_of_the_square_well_closed_form():
    ks = np.linspace(0.1, 20.0, 200)
    ks = ks[np.abs(ks * ks - WELL_DEPTH) > 0.3]  # stay away from k' = 0
    t = np.array([sm.t for sm in scattering_matrix(make_square_well(), ks)])
    exact = 1j * ks / xhat_well_exact(ks)
    assert np.max(np.abs(t - exact) / np.abs(exact)) <= 10.0 * DEFAULT_RTOL


def test_zero_momentum_keeps_its_place_in_a_grid():
    v = make_poly_bump()
    ks = np.array([0.5, 1.5, 0.0, 3.0, 7.0])
    entries = scattering_matrix(v, ks)
    with pytest.raises(ValueError) as lone:
        scattering_matrix(v, 0.0)
    assert isinstance(entries[2], ValueError)
    assert str(entries[2]) == str(lone.value)
    assert entries[:2] + entries[3:] == scattering_matrix(v, np.delete(ks, 2))
    # a grid with no admissible momentum solves nothing
    only_zero = scattering_matrix(v, np.array([0.0]))
    assert [str(e) for e in only_zero] == [str(lone.value)]
    assert scattering_matrix(v, np.array([])) == []


def test_pole_proximity_keeps_its_place_in_a_grid(monkeypatch):
    # a floor between the scaled |X| of the momenta rejects the smaller ones
    v = make_poly_bump()
    ks = np.array([0.5, 1.5, 3.0, 7.0])
    x_hat = jost_solve(v, ks.astype(complex)).x_hat
    scaled = np.abs(x_hat) / np.maximum(1.0, ks)
    monkeypatch.setattr(scatter, "POLE_FLOOR", float(np.median(scaled)))
    entries = scattering_matrix(v, ks)
    for k, entry, low in zip(ks, entries, scaled < scatter.POLE_FLOOR):
        if low:
            with pytest.raises(ValueError, match="pole proximity") as lone:
                scattering_matrix(v, k)
            assert str(entry) == str(lone.value)
        else:
            assert entry.k == k
    assert sum(isinstance(e, ValueError) for e in entries) == 2


def test_jost_batch_is_chunked_above_the_rtol_floor(monkeypatch):
    # scipy raises an rtol below 100 eps to that floor with a UserWarning;
    # 1e-13 / sqrt(201) would be below it, so the batch is cut into chunks
    solve_ivp = scatter.solve_ivp
    rtols = []

    def recording_solve_ivp(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scatter, "solve_ivp", recording_solve_ivp)
    v = make_truncated_gaussian(sharp_edge=True)
    rtol, atol = 1e-13, 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        batch = jost_solve(v, SCATTER_GRID.astype(complex), rtol=rtol, atol=atol)
        assert len(rtols) > len(v.edges) - 1
        assert min(rtols) >= scatter.RTOL_FLOOR
        for i in range(0, SCATTER_GRID.size, 10):
            lone = jost_solve(v, SCATTER_GRID[i], rtol=rtol, atol=atol)
            scale = abs(lone.x_hat) + abs(lone.y_hat_minus)
            assert abs(batch.x_hat[i] - lone.x_hat) <= 10.0 * rtol * scale
            assert (abs(batch.y_hat_minus[i] - lone.y_hat_minus)
                    <= 10.0 * rtol * scale)


def test_rtol_below_the_floor_is_rejected():
    v = make_poly_bump()
    floor = r"rtol = 1e-14 is below the DOP853 floor 100 eps = 2.22e-14"
    with pytest.raises(ValueError, match=floor):
        jost_solve(v, 1.0, rtol=1e-14)
    with pytest.raises(ValueError, match=floor):
        scattering_matrix(v, SCATTER_GRID, rtol=1e-14)


@pytest.mark.parametrize("atol", [math.nan, 0.0, -1e-12])
def test_atol_that_is_not_positive_is_rejected(atol):
    # DOP853 never accepts a step at atol = nan; under the alarm a hang
    # fails the test instead of stalling the suite
    v = make_poly_bump()
    with time_limit(10.0), pytest.raises(ValueError, match="atol"):
        jost_solve(v, 1.0, atol=atol)
    with time_limit(10.0), pytest.raises(ValueError, match="atol"):
        scattering_matrix(v, SCATTER_GRID, atol=atol)


# The DOP853 path pinned bit for bit: X(k) and Y(-k) from jost_solve, each
# as the hex of its real and imaginary parts, for each momentum of
# JOST_MOMENTA alone and in one batch (the batch shrinks the tolerances, see
# _jost_many, so its bits are its own). Recorded with numpy 2.4 on an x86-64
# CPU with AVX-512.
JOST_MOMENTA = (0.7, 12.0, 2.5 - 1.5j, 6.0 - 3.0j)
JOST_BITS = {
    'gaussian-smooth': {
        "lone": (
            ("-0x1.58e44786c8025p-2 0x1.631d926f01b2bp-1",
             "0x1.257c3473f62a6p-2 0x1.32383e0fe31d5p-3"),
            ("-0x1.412d023442707p-2 0x1.7fde921039bc1p+3",
             "-0x1.2ad1ba9fe6983p-11 0x1.5d000553049aap-6"),
            ("0x1.2d8762adf2f09p+0 0x1.3bf6b02de560ep+1",
             "-0x1.0922dbddd3a9ap-1 0x1.7fd874dcfc259p-2"),
            ("0x1.575aef3041211p+1 0x1.7f96e6f0c4ea5p+2",
             "-0x1.1416c820e7da4p-1 0x1.22a43f2eb724cp+0"),
        ),
        "batch": (
            ("-0x1.58e44786d1c05p-2 0x1.631d926efec6ap-1",
             "0x1.257c3473ebb09p-2 0x1.32383e0ff2980p-3"),
            ("-0x1.412d0234426d2p-2 0x1.7fde921039bc1p+3",
             "-0x1.2ad1ba916bad6p-11 0x1.5d00055300981p-6"),
            ("0x1.2d8762adf3b51p+0 0x1.3bf6b02de5796p+1",
             "-0x1.0922dbddb5c8ep-1 0x1.7fd874dca768ep-2"),
            ("0x1.575aef304155ep+1 0x1.7f96e6f0c4edap+2",
             "-0x1.1416c820823e6p-1 0x1.22a43f2e81517p+0"),
        ),
    },
    'gaussian-sharp': {
        "lone": (
            ("-0x1.a8af1461f5506p-2 0x1.5f09f66234095p-1",
             "0x1.4aea95c59ad0fp-2 0x1.bf0af9547fe53p-3"),
            ("-0x1.7edc2dfe860cap-2 0x1.7fd06969752aep+3",
             "-0x1.03dde086ebf08p-7 0x1.2fabbfaeeb1d5p-6"),
            ("0x1.232cd20f13405p+0 0x1.38fca98675d3fp+1",
             "-0x1.b06876cecb385p-1 -0x1.432f1f314934ep-2"),
            ("0x1.53627ac256d02p+1 0x1.7d985c2d06ff1p+2",
             "-0x1.b9dd28ece7329p+0 -0x1.74c01ce032c78p+2"),
        ),
        "batch": (
            ("-0x1.a8af146204364p-2 0x1.5f09f6622f8bdp-1",
             "0x1.4aea95c58683ep-2 0x1.bf0af954a3399p-3"),
            ("-0x1.7edc2dfe860cfp-2 0x1.7fd06969752b1p+3",
             "-0x1.03dde086ef759p-7 0x1.2fabbfaef5f5cp-6"),
            ("0x1.232cd20f13ff4p+0 0x1.38fca98676af1p+1",
             "-0x1.b06876ce50bebp-1 -0x1.432f1f31514bbp-2"),
            ("0x1.53627ac2547c9p+1 0x1.7d985c2d07a66p+2",
             "-0x1.b9dd28ed51740p+0 -0x1.74c01cdf4727ap+2"),
        ),
    },
    'poly-bump': {
        "lone": (
            ("-0x1.ea5c4572f0e3ep-3 0x1.650e25d6a202cp-1",
             "0x1.b7fc30c2519cdp-3 0x1.62cfde131b89dp-4"),
            ("-0x1.d4b2d8f8abfe9p-3 0x1.7fee45c2e0ae3p+3",
             "-0x1.7742767356f86p-12 0x1.59361103102e7p-6"),
            ("0x1.43e8e0223b325p+0 0x1.3e4edbf8a65dap+1",
             "-0x1.1b548f3598f60p-3 0x1.4fb136da4c76fp-2"),
            ("0x1.62ba6eb3a3af3p+1 0x1.7fc61926e186ap+2",
             "-0x1.6267eb437af0cp-5 0x1.20fb150c386a1p-2"),
        ),
        "batch": (
            ("-0x1.ea5c4572f7407p-3 0x1.650e25d6a0803p-1",
             "0x1.b7fc30c2456d9p-3 0x1.62cfde1337620p-4"),
            ("-0x1.d4b2d8f8abfbcp-3 0x1.7fee45c2e0ae9p+3",
             "-0x1.77427665c9367p-12 0x1.593611030b60fp-6"),
            ("0x1.43e8e0223b80ep+0 0x1.3e4edbf8a648cp+1",
             "-0x1.1b548f35ab41fp-3 0x1.4fb136da2050bp-2"),
            ("0x1.62ba6eb3a3d05p+1 0x1.7fc61926e1861p+2",
             "-0x1.6267eb405109cp-5 0x1.20fb150ba01bcp-2"),
        ),
    },
}
# numpy's exp, pow and complex-product loops at a few points, as they ran
# where JOST_BITS was recorded. Builds whose loops round differently (no
# AVX-512, another numpy) move the last bits all along the DOP853 path.
ARITHMETIC_BITS = (
    ("0x1.dd62b906fa24bp-1 0x1.68cce09671f71p-1 "
     "0x1.3064ff4ca9f9cp-1 0x1.2765f72e0901cp-1"),
    ("0x1.cc198288051c9p-1 0x1.1f7ef9db22d0dp-1 "
     "0x1.9ef30a4e379b7p-2 0x1.86395810624dcp-2"),
    ("-0x1.1eb851eb851ebp+0 0x1.0f5c28f5c28f5p+0 "
     "0x1.03d70a3d70a3dp+0 0x1.1a3d70a3d70a4p+1"),
)


def _arithmetic_bits():
    # points where these loops and libm round differently
    x = np.array([0.07, 0.35, 0.52, 0.55])
    a = np.array([0.3 + 0.7j, 1.1 - 0.3j])
    b = np.array([0.7 + 1.9j, 0.35 + 2.1j])
    return tuple(" ".join(float(t).hex() for t in r)
                 for r in (np.exp(-x), np.power(1.0 - x / 2.0, 3),
                           (a * b).view(float)))


@pytest.mark.parametrize("v", ALL_FAMILIES, ids=lambda v: v.kind)
def test_jost_solve_keeps_its_recorded_dop853_bits(v):
    if _arithmetic_bits() != ARITHMETIC_BITS:
        pytest.skip("JOST_BITS were recorded under numpy loops that round "
                    "differently from these")

    def hexes(z):
        return f"{z.real.hex()} {z.imag.hex()}"

    lone = [jost_solve(v, k) for k in JOST_MOMENTA]
    batch = jost_solve(v, np.array(JOST_MOMENTA))
    assert JOST_BITS[v.kind] == {
        "lone": tuple((hexes(j.x_hat), hexes(j.y_hat_minus)) for j in lone),
        "batch": tuple((hexes(complex(x)), hexes(complex(y)))
                       for x, y in zip(batch.x_hat, batch.y_hat_minus)),
    }


def test_the_scatter_grid_takes_976_right_hand_side_evaluations(monkeypatch):
    solve_ivp = scatter.solve_ivp
    nfev = []

    def counting_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(scatter, "solve_ivp", counting_solve_ivp)
    scattering_matrix(make_truncated_gaussian(sharp_edge=False), SCATTER_GRID)
    assert sum(nfev) == 976


def test_the_right_hand_side_returns_a_fresh_array_on_every_call(monkeypatch):
    # scipy's first-step choice holds f(t0, y0) while it evaluates the next
    # point, so an rhs that reused one output buffer would alias the two
    solve_ivp = scatter.solve_ivp
    calls = []

    def recording_solve_ivp(fun, *args, **kwargs):
        def rhs(x, y):
            dy = fun(x, y)
            calls.append((y, dy))
            return dy
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr(scatter, "solve_ivp", recording_solve_ivp)
    jost_solve(make_truncated_gaussian(sharp_edge=False), np.array([0.7, 3.0j]))
    assert len(calls) > 2
    # every output is kept alive above, so owners with distinct ids never
    # share memory
    assert all(dy.base is None and dy is not y for y, dy in calls)
    assert len({id(dy) for _, dy in calls}) == len(calls)
