"""Jost data, scattering matrix, and resonance scans.

The strongest checks run against a constant square well, where the Jost data
has a closed form that exercises none of the ODE machinery: matching
A e^{ik'x} + B e^{-ik'x} (k' = sqrt(k^2 - V0)) to e^{ikx} at the right edge
gives X(k) explicitly, and the ODE route must reproduce it everywhere in the
complex plane.
"""

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
        assert spans == scatter._pieces(v)


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
        assert spans == scatter._pieces(v)
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
        assert len(rtols) > len(scatter._pieces(v))
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
