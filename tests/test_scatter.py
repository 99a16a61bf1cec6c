"""Jost data, scattering matrix, and resonance scans.

The strongest checks run against a constant square well, where the Jost data
has a closed form that exercises none of the ODE machinery: matching
A e^{ik'x} + B e^{-ik'x} (k' = sqrt(k^2 - V0)) to e^{ikx} at the right edge
gives X(k) explicitly, and the ODE route must reproduce it everywhere in the
complex plane.
"""

import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

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


def jost_well_exact(ks, v0=WELL_DEPTH):
    # X and Y(-k) from phi = a + b and phi' = ik'(a - b) at x = 0; either
    # branch of the root works: the expressions are even in k'
    ks = np.asarray(ks, dtype=complex)
    kp = np.sqrt(ks * ks - v0)
    a = np.exp(1j * ks) * np.exp(-1j * kp) * (1.0 + ks / kp) / 2.0
    b = np.exp(1j * ks) * np.exp(1j * kp) * (1.0 - ks / kp) / 2.0
    return ((1j * ks * (a + b) + 1j * kp * (a - b)) / 2.0,
            (1j * ks * (a + b) - 1j * kp * (a - b)) / 2.0)


def xhat_well_exact(ks, v0=WELL_DEPTH):
    return jost_well_exact(ks, v0)[0]


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
    # the stepper names its cause and the x it reached
    cause = r"step size becomes too small; stopped at x = 0\.\d+$"
    with pytest.raises(JostIntegrationError, match=r"k = -?0-500j: " + cause):
        jost_solve(make_poly_bump(), -500j)
    with pytest.raises(JostIntegrationError,
                       match=r"k = 1\+0j \(first of a batch of 2\): " + cause):
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
    x_ref, y_ref = _jost_many(v, ks, 1e-13, 1e-15)
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
    scans = []
    monkeypatch.setattr(scatter, "locate_zeros",
                        lambda *a: scans.append(a) or ZeroSet(()))
    resonances(make_poly_bump(), Rectangle(0.5, 9.0, -2.0, -0.05), tol,
               rtol=rtol)
    assert seen == [scanned]
    assert len(scans) == 1


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


# DOP853 at the default tolerances, one momentum at a time and in one batch,
# against independent references: the closed form on the square well, and
# on the smooth families Magnus at rtol 1e-14 (at 1e-12 its Y(-k) errs by up
# to 23 of the units below, as its stop test watches X alone). Each error
# is in units of DEFAULT_RTOL (|X| + |Y(-k)|). X stays below 0.06 units;
# so does Y(-k) on the real axis, but in the lower half plane Y(-k) is small
# beside the state that DOP853 controls, and a lone solve there reached 187
# units at k = 33.2 - 7.68i on poly-bump.
ERROR_BOUNDS = {"x": 1.0, "y real": 1.0, "y lower": 400.0}


@pytest.mark.parametrize("family", ["square-well", "poly-bump",
                                    "gaussian-smooth"])
def test_dop853_error_per_momentum_at_the_default_tolerances(family):
    rng = np.random.default_rng(1)
    real = SCATTER_GRID[::10].astype(complex)
    lower = rng.uniform(0.5, 40.0, 30) + 1j * rng.uniform(-8.0, 0.0, 30)
    for where, ks in (("real", real), ("lower", lower)):
        if family == "square-well":
            v = make_square_well()
            ks = ks[np.abs(ks * ks - WELL_DEPTH) > 0.3]  # stay away from k' = 0
            x_ref, y_ref = jost_well_exact(ks)
        else:
            v = {f.kind: f for f in ALL_FAMILIES}[family]
            x_ref, y_ref = _x_and_y(ks, *_magnus_m(v, ks, 1e-14, 0.0))
        unit = DEFAULT_RTOL * (np.abs(x_ref) + np.abs(y_ref))
        batch = jost_solve(v, ks)
        lone = [jost_solve(v, k) for k in ks]
        for x_hat, y_hat_minus in ((batch.x_hat, batch.y_hat_minus),
                                   ([j.x_hat for j in lone],
                                    [j.y_hat_minus for j in lone])):
            assert np.all(np.abs(x_hat - x_ref) <= ERROR_BOUNDS["x"] * unit)
            assert np.all(np.abs(y_hat_minus - y_ref)
                          <= ERROR_BOUNDS["y " + where] * unit)


# T, R and L at every 20th momentum (from the 6th) of the scatter-grid
# benchmark grid on gaussian-smooth and of the default config's grid on
# poly-bump, each grid solved as one batch, as the interpreted solve_ivp
# DOP853 stepper gave them before the compiled one replaced it. The new
# stepper moved them by at most 3.3e-14, relative to max(1, |value|).
RETIRED_STEPPER_SMATRIX = {
    "gaussian-smooth": (
        (0.54875, (0.7287830432303142-0.452219728712782j),
         (-0.4130094692165041-0.3062609527843908j),
         (-0.0910391468460211-0.5060478896354078j)),
        (2.5437499999999997, (0.9894771706348147-0.12714907796492814j),
         (-0.06733346613605815+0.015305067895842362j),
         (0.06901543577941266-0.0022159398389393725j)),
        (4.538749999999999, (0.9975379593555085-0.06968983950161756j),
         (-0.007799351644673612+0.000718351592759299j),
         (0.007823472417902908-0.0003730876765657398j)),
        (6.5337499999999995, (0.9988112303782584-0.04816069452927659j),
         (-0.007500649787536492+0.0006432926950934757j),
         (0.007527745707806985-8.134669892123982e-05j)),
        (8.52875, (0.9993170372577869-0.0368249685351486j),
         (-0.0030428081626731195+0.0003493668436122882j),
         (0.0030602690270189756+0.00012446762034404877j)),
        (10.52375, (0.9995526714708901-0.02981573890591584j),
         (-0.0023393903271717274+7.69532174173166e-05j),
         (0.0023398177764651176-6.262326623029353e-05j)),
        (12.518749999999999, (0.99968482877627-0.025051468999006447j),
         (-0.0016305108103061604+9.192413953747474e-05j),
         (0.0016330684957893877+1.0140908003860093e-05j)),
        (14.51375, (0.9997659866452986-0.021601154261291486j),
         (-0.0011655079193180703+6.0605475967381414e-05j),
         (0.001167037930169872+1.0207999568536595e-05j)),
        (16.50875, (0.9998193038545081-0.01898678668268893j),
         (-0.0009278363483896196+2.6288067692071258e-05j),
         (0.0009281654537370215-8.957811402090295e-06j)),
        (18.50375, (0.9998562841555428-0.01693727085971901j),
         (-0.0007342926280503888+2.6548662036211148e-05j),
         (0.000734770528088333+1.66316501043614e-06j)),
    ),
    "poly-bump": (
        (0.25, (0.5207062882983885-0.5015887103663463j),
         (-0.5429594179460009-0.42716366585101906j),
         (-0.4065647143432112-0.5585506781041127j)),
        (1.25, (0.9680483892852167-0.1852522551253859j),
         (-0.12868489932745358-0.1095632906512887j),
         (0.07914053965379551-0.14933416540283623j)),
        (2.25, (0.9918379568259638-0.10416554370029664j),
         (-0.07022535897968088-0.021803803821666183j),
         (0.06416329156086432-0.03591766864642342j)),
        (3.25, (0.9968479863568972-0.07160067369068246j),
         (-0.03414410043064083+0.001271231301384045j),
         (0.03397528143457171-0.0036215845538870345j)),
        (4.25, (0.9983885246273068-0.05436985575278667j),
         (-0.016030916106193362+0.0026985934722626877j),
         (0.01622916251481585+0.00094178660005572j)),
        (5.25, (0.9989939790090063-0.0438327691473848j),
         (-0.00943549776927426+0.0008304423351589681j),
         (0.009471971912899021+8.409850467201742e-07j)),
        (6.25, (0.9993014792342143-0.03674263650827051j),
         (-0.006812375687447632+0.00035185256263028984j),
         (0.006819820249471002-0.0001493803791077335j)),
        (7.25, (0.9994868816404833-0.03163665920037784j),
         (-0.004996097345209663+0.00036638032108529184j),
         (0.005009266909364793+4.9681518017386264e-05j)),
        (8.25, (0.9996070330926207-0.027779459299817913j),
         (-0.003745643195041878+0.00022625170176233394j),
         (0.0037524276373292523+1.7877464067563835e-05j)),
        (9.25, (0.9996888856373706-0.02476247927934122j),
         (-0.002989264851401969+0.00012589162018770197j),
         (0.002991831794808659-2.2261254068872036e-05j)),
    ),
}


@pytest.mark.parametrize("v, grid", [
    (make_truncated_gaussian(sharp_edge=False), SCATTER_GRID),
    (make_poly_bump(), np.linspace(0.0, 10.0, 201)),
], ids=["scatter-grid", "default-config"])
def test_the_s_matrix_stays_within_1e_12_of_the_retired_stepper(v, grid):
    entries = scattering_matrix(v, grid)
    for i, (k, *want) in zip(range(5, grid.size, 20),
                             RETIRED_STEPPER_SMATRIX[v.kind]):
        got = entries[i]
        assert got.k == k
        for a, b in zip((got.t, got.r_right, got.l_left), want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan)])
def test_a_momentum_that_is_not_finite_is_named(bad):
    # a NaN momentum once kept the stepper rejecting steps until its step
    # size underflowed; under the alarm a hang fails the test
    name = re.escape(f"k = {complex(bad):.6g}: not a finite momentum")
    with time_limit(10.0), pytest.raises(ValueError, match=name):
        jost_solve(make_poly_bump(), np.array([0.5, bad, 3.0]))


def test_a_momentum_that_is_not_finite_keeps_its_place_in_a_grid():
    v = make_poly_bump()
    ks = np.array([0.5, math.nan, 3.0, math.inf, -math.inf])
    with time_limit(10.0):
        entries = scattering_matrix(v, ks)
    for i in (1, 3, 4):
        with pytest.raises(ValueError, match="not a finite momentum") as lone:
            scattering_matrix(v, ks[i])
        assert isinstance(entries[i], ValueError)
        assert str(entries[i]) == str(lone.value)
    assert [entries[0], entries[2]] == scattering_matrix(v, ks[[0, 2]])


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
    # no DOP853 solve is handed an rtol below scatter.RTOL_FLOOR = 100 eps;
    # 1e-13 / sqrt(2 * 201) would be below it, so the batch is cut into chunks
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
    # DOP853 accepts no step at atol = nan and stops only once its step
    # size underflows; under the alarm a hang fails the test instead of
    # stalling the suite
    v = make_poly_bump()
    with time_limit(10.0), pytest.raises(ValueError, match="atol"):
        jost_solve(v, 1.0, atol=atol)
    with time_limit(10.0), pytest.raises(ValueError, match="atol"):
        scattering_matrix(v, SCATTER_GRID, atol=atol)


# The DOP853 path pinned bit for bit: X(k) and Y(-k) from jost_solve, each
# as the hex of its real and imaginary parts, for each momentum of
# JOST_MOMENTA alone and in one batch (the batch shrinks the tolerances, see
# _jost_many, so its bits are its own). Recorded with numpy 2.4 and scipy
# 1.17's compiled DOP853 on an x86-64 CPU with AVX-512.
JOST_MOMENTA = (0.7, 12.0, 2.5 - 1.5j, 6.0 - 3.0j)
JOST_BITS = {
    'gaussian-smooth': {
        "lone": (
            ("-0x1.58e44786d1907p-2 0x1.631d926efee6dp-1",
             "0x1.257c3473ec1cep-2 0x1.32383e0ff2571p-3"),
            ("-0x1.412d02344270ap-2 0x1.7fde921039bbep+3",
             "-0x1.2ad1baa128cbbp-11 0x1.5d0005530f8c9p-6"),
            ("0x1.2d8762adf33f8p+0 0x1.3bf6b02de56d2p+1",
             "-0x1.0922dbddc6b90p-1 0x1.7fd874dcdad24p-2"),
            ("0x1.575aef30412f4p+1 0x1.7f96e6f0c4eb8p+2",
             "-0x1.1416c820cb627p-1 0x1.22a43f2ea8fa8p+0"),
        ),
        "batch": (
            ("-0x1.58e44786d1c00p-2 0x1.631d926efec67p-1",
             "0x1.257c3473ebb05p-2 0x1.32383e0ff297bp-3"),
            ("-0x1.412d0234426dap-2 0x1.7fde921039bbep+3",
             "-0x1.2ad1ba9494ad4p-11 0x1.5d00055308876p-6"),
            ("0x1.2d8762adf3b54p+0 0x1.3bf6b02de5795p+1",
             "-0x1.0922dbddb5b5ep-1 0x1.7fd874dca758dp-2"),
            ("0x1.575aef3041794p+1 0x1.7f96e6f0c4f0dp+2",
             "-0x1.1416c8203cc16p-1 0x1.22a43f2e5e5b3p+0"),
        ),
    },
    'gaussian-sharp': {
        "lone": (
            ("-0x1.a8af146203a38p-2 0x1.5f09f6622fcc8p-1",
             "0x1.4aea95c587688p-2 0x1.bf0af954a1f85p-3"),
            ("-0x1.7edc2dfe860c3p-2 0x1.7fd06969752adp+3",
             "-0x1.03dde086c2f5cp-7 0x1.2fabbfae77e5dp-6"),
            ("0x1.232cd20f13978p+0 0x1.38fca986763d9p+1",
             "-0x1.b06876ce90c67p-1 -0x1.432f1f314afeep-2"),
            ("0x1.53627ac256c0dp+1 0x1.7d985c2d07014p+2",
             "-0x1.b9dd28ececbdcp+0 -0x1.74c01ce02d805p+2"),
        ),
        "batch": (
            ("-0x1.a8af146204362p-2 0x1.5f09f6622f8b8p-1",
             "0x1.4aea95c58683dp-2 0x1.bf0af954a3397p-3"),
            ("-0x1.7edc2dfe860c2p-2 0x1.7fd06969752b2p+3",
             "-0x1.03dde086cc27ep-7 0x1.2fabbfae91f9cp-6"),
            ("0x1.232cd20f13ffcp+0 0x1.38fca98676afap+1",
             "-0x1.b06876ce50bf2p-1 -0x1.432f1f3151492p-2"),
            ("0x1.53627ac25477ap+1 0x1.7d985c2d07a6fp+2",
             "-0x1.b9dd28ed5267ep+0 -0x1.74c01cdf45956p+2"),
        ),
    },
    'poly-bump': {
        "lone": (
            ("-0x1.ea5c4572f7a4bp-3 0x1.650e25d6a0886p-1",
             "0x1.b7fc30c245e3bp-3 0x1.62cfde1337f0ap-4"),
            ("-0x1.d4b2d8f8abf85p-3 0x1.7fee45c2e0ae5p+3",
             "-0x1.77427655d850cp-12 0x1.5936110310ef5p-6"),
            ("0x1.43e8e0223b65dp+0 0x1.3e4edbf8a64dfp+1",
             "-0x1.1b548f35a8ee8p-3 0x1.4fb136da2f04ep-2"),
            ("0x1.62ba6eb3a3bebp+1 0x1.7fc61926e185bp+2",
             "-0x1.6267eb42314a5p-5 0x1.20fb150bed11bp-2"),
        ),
        "batch": (
            ("-0x1.ea5c4572f740dp-3 0x1.650e25d6a080ap-1",
             "0x1.b7fc30c2456dep-3 0x1.62cfde1337624p-4"),
            ("-0x1.d4b2d8f8abfc9p-3 0x1.7fee45c2e0ae3p+3",
             "-0x1.7742766b9fd53p-12 0x1.593611030aa1dp-6"),
            ("0x1.43e8e0223b80cp+0 0x1.3e4edbf8a648bp+1",
             "-0x1.1b548f35ab42cp-3 0x1.4fb136da20511p-2"),
            ("0x1.62ba6eb3a3cffp+1 0x1.7fc61926e1866p+2",
             "-0x1.6267eb4058658p-5 0x1.20fb150ba37cbp-2"),
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


# The Magnus path pinned bit for bit: X(k) from xhat_function at each
# momentum of JOST_MOMENTA, as the hex of its real and imaginary parts. A
# momentum keeps its bits alone and in any batch, so one list serves both.
# Recorded beside JOST_BITS.
MAGNUS_BITS = {
    'gaussian-smooth': (
        "-0x1.58e447869cb90p-2 0x1.631d926eff0e0p-1",
        "-0x1.412d0234744bcp-2 0x1.7fde9210388e1p+3",
        "0x1.2d8762adcc5adp+0 0x1.3bf6b02de106fp+1",
        "0x1.575aef302a5dap+1 0x1.7f96e6f0c35efp+2",
    ),
    'gaussian-sharp': (
        "-0x1.a8af1461ea31bp-2 0x1.5f09f662379d5p-1",
        "-0x1.7edc2dfe8f9adp-2 0x1.7fd0696974172p+3",
        "0x1.232cd20f0d267p+0 0x1.38fca98671dfap+1",
        "0x1.53627ac254f52p+1 0x1.7d985c2d03e25p+2",
    ),
    'poly-bump': (
        "-0x1.ea5c4572e5f3dp-3 0x1.650e25d69b72ap-1",
        "-0x1.d4b2d8f968c22p-3 0x1.7fee45c2e0317p+3",
        "0x1.43e8e022233f0p+0 0x1.3e4edbf8a8088p+1",
        "0x1.62ba6eb39ec95p+1 0x1.7fc61926e1f7ap+2",
    ),
}


@pytest.mark.parametrize("v", ALL_FAMILIES, ids=lambda v: v.kind)
def test_xhat_function_keeps_its_recorded_magnus_bits(v):
    if _arithmetic_bits() != ARITHMETIC_BITS:
        pytest.skip("MAGNUS_BITS were recorded under numpy loops that round "
                    "differently from these")

    def hexes(x):
        return tuple(f"{z.real.hex()} {z.imag.hex()}" for z in x.tolist())

    lone = np.concatenate([xhat_function(v)(np.array([k]))
                           for k in JOST_MOMENTA])
    assert hexes(lone) == MAGNUS_BITS[v.kind]
    assert hexes(xhat_function(v)(np.array(JOST_MOMENTA))) == MAGNUS_BITS[v.kind]


def test_the_scatter_grid_takes_1048_right_hand_side_evaluations(monkeypatch):
    solve_ivp = scatter.solve_ivp
    nfev = []

    def counting_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(scatter, "solve_ivp", counting_solve_ivp)
    scattering_matrix(make_truncated_gaussian(sharp_edge=False), SCATTER_GRID)
    assert sum(nfev) == 1048


def test_a_solve_keeps_nothing_alive(monkeypatch):
    # the compiled stepper never releases the callbacks it is handed, so a
    # right-hand side handed to it directly would outlive its solve
    solve_ivp = scatter.solve_ivp
    funs = []

    def recording_solve_ivp(fun, *args, **kwargs):
        funs.append(weakref.ref(fun))
        return solve_ivp(fun, *args, **kwargs)

    monkeypatch.setattr(scatter, "solve_ivp", recording_solve_ivp)
    scattering_matrix(make_truncated_gaussian(sharp_edge=False), SCATTER_GRID)
    assert funs and all(fun() is None for fun in funs)


# Runs in a fresh process, whose peak RSS is its own: ru_maxrss of the test
# process is the peak of every test before this one. It prints the growth
# of the peak RSS in KiB and of the objects held by Python's allocator.
RSS_PROBE = """
import resource
import sys
import numpy as np
from resonlab.potential import make_truncated_gaussian
from resonlab.scatter import scattering_matrix
v = make_truncated_gaussian(sharp_edge=False)
grid = np.linspace(0.05, 20.0, 201)
for _ in range(30):
    scattering_matrix(v, grid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
blocks = sys.getallocatedblocks()
for _ in range(300):
    scattering_matrix(v, grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before,
      sys.getallocatedblocks() - blocks)
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux only")
def test_300_scatter_grids_grow_the_peak_rss_by_under_1_mb():
    # a right-hand-side closure kept alive per solve holds its 2ik array:
    # handed to the stepper directly, it grew this probe by 1.0-1.1 MiB
    # and some 3,500 allocated blocks, against 0 KiB and at most a dozen
    src = str(Path(scatter.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", RSS_PROBE], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    rss_kib, blocks = map(int, run.stdout.split())
    assert rss_kib < 1024
    assert blocks < 300         # fewer than one per grid


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
