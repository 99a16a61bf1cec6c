"""Argument-principle scanner against functions with known zero sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from resonlab import rootscan
from resonlab.ftransform import pair_function
from resonlab.potential import make_poly_bump
from resonlab.rootscan import (
    BoundaryZeroError, Rectangle, RootScanError, ZeroSet, locate_zeros,
    match_zero_sets, wind_count,
)

SQUARE = Rectangle(-1.0, 1.0, -1.0, 1.0)


def poly_from_roots(roots):
    roots = np.asarray(roots, dtype=complex)

    def f(z):
        z = np.asarray(z, dtype=complex)
        if roots.size == 0:
            return np.ones_like(z)
        return np.prod(z[..., None] - roots, axis=-1)

    return f


# ---------------------------------------------------------------- rectangle

def test_rectangle_geometry():
    r = Rectangle(0.0, 3.0, -1.0, 1.0)
    assert r.width == 3.0 and r.height == 2.0
    assert r.center == 1.5 + 0.0j
    assert r.diameter == pytest.approx(math.hypot(3.0, 2.0))
    assert r.contains(1.0 + 0.5j) and not r.contains(1.0 + 1.5j)
    children = r.quadrisect()
    assert sum(ch.width * ch.height for ch in children) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bounds", [
    (0.0, math.inf, -1.0, 1.0), (-math.inf, 1.0, -1.0, 1.0),
    (0.0, 1.0, math.nan, 1.0), (0.0, 1.0, -1.0, math.inf)])
def test_rectangle_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match=r"bounds must be finite, got "
                       r"Rectangle\(re_min="):
        Rectangle(*bounds)


# ----------------------------------------------------------------- winding

def test_wind_count_monomials():
    for m in (1, 2, 3):
        f = poly_from_roots([0.0] * m)
        assert wind_count(f, SQUARE) == m


def test_wind_count_no_zero():
    f = poly_from_roots([2.0 + 2.0j])
    assert wind_count(f, SQUARE) == 0
    assert wind_count(lambda z: np.exp(z), SQUARE) == 0


def test_wind_count_pole_free_mixture():
    f = lambda z: (z * z + 1.0) * np.exp(z)
    assert wind_count(f, Rectangle(-2.0, 2.0, -2.0, 2.0)) == 2


def test_wind_count_cosine_strip():
    assert wind_count(np.cos, Rectangle(0.0, 10.0, -1.0, 1.0)) == 3


def test_winding_raises_on_boundary_zero():
    # the exact contour of this rectangle passes through the zero at 0
    rect = Rectangle(0.0, 1.0, -0.5, 0.5)
    result, = rootscan._rect_windings(lambda z: z, [rect])
    assert isinstance(result, BoundaryZeroError)


def test_wind_count_jitter_resolves_boundary_zero():
    # with jitter the same configuration lands on a definite count
    rect = Rectangle(0.0, 1.0, -0.5, 0.5)
    n = wind_count(lambda z: np.asarray(z), rect)
    assert n in (0, 1)
    assert wind_count(lambda z: np.asarray(z), rect) == n


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                                allow_infinity=False),
             min_size=0, max_size=4),
    st.lists(st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                                allow_infinity=False),
             min_size=0, max_size=4),
)
def test_wind_count_additive_under_products(roots_f, roots_g):
    f = poly_from_roots(roots_f)
    g = poly_from_roots(roots_g)
    fg = lambda z: f(z) * g(z)
    assert wind_count(f, SQUARE) == len(roots_f)
    assert wind_count(fg, SQUARE) == len(roots_f) + len(roots_g)


# ------------------------------------------------------------ zero location

def assert_matches(zs, expected, tol):
    ref = ZeroSet.from_pairs(expected)
    match = match_zero_sets(zs, ref)
    assert match.sup_distance <= tol
    assert [m for _, m in zs.entries] == [m for _, m in ref.entries]


def test_locate_simple_roots_of_cubic():
    f = poly_from_roots([1.0, np.exp(2j * math.pi / 3), np.exp(-2j * math.pi / 3)])
    zs = locate_zeros(f, Rectangle(-2.0, 2.0, -2.0, 2.0))
    expected = [(np.exp(2j * math.pi * k / 3), 1) for k in range(3)]
    assert_matches(zs, expected, 1e-10)


def test_locate_multiple_zero_at_origin():
    for m in (2, 3):
        zs = locate_zeros(poly_from_roots([0.0] * m), SQUARE)
        assert len(zs) == 1
        (z, mult), = zs.entries
        assert mult == m
        assert abs(z) <= 1e-10


def test_locate_mixed_multiplicities():
    a, b = 0.3 + 0.4j, -0.5 - 0.2j
    zs = locate_zeros(poly_from_roots([a, a, b]), SQUARE)
    assert_matches(zs, [(b, 1), (a, 2)], 1e-9)


def test_locate_cosine_zeros():
    zs = locate_zeros(np.cos, Rectangle(0.0, 10.0, -1.0, 1.0))
    expected = [(math.pi / 2, 1), (3 * math.pi / 2, 1), (5 * math.pi / 2, 1)]
    assert_matches(zs, expected, 1e-10)


def test_locate_zeros_never_repeats_a_newton_call(monkeypatch):
    # the polish step after an accepted residual reuses the samples the
    # Newton loop just took instead of evaluating f on them again
    calls = []
    lockstep = rootscan._polish_in_lockstep

    def recorded_lockstep(f, runs):
        def counted(z):
            calls.append(np.array(z, copy=True))
            return f(z)

        # a level's first Newton call follows no Newton call of its own
        calls.append(None)
        return lockstep(counted, runs)

    monkeypatch.setattr(rootscan, "_polish_in_lockstep", recorded_lockstep)
    rect = Rectangle(0.0, 10.0, -1.0, 1.0)
    zs = locate_zeros(np.cos, rect)
    monkeypatch.undo()
    assert zs == locate_zeros(np.cos, rect)
    newton = [i for i, z in enumerate(calls) if z is not None]
    assert len(newton) >= len(zs)
    assert [i for i in newton if calls[i - 1] is not None
            and np.array_equal(calls[i], calls[i - 1])] == []


def test_locate_exponential_factor_does_not_disturb():
    f = lambda z: (z * z + 1.0) * np.exp(z)
    zs = locate_zeros(f, Rectangle(-2.0, 2.0, -2.0, 2.0))
    assert_matches(zs, [(1j, 1), (-1j, 1)], 1e-10)


def test_locate_two_cosine_model():
    # 2cos(2z) + 1/2 has only real zeros; the first is arccos(-1/4)/2
    f = lambda z: 2.0 * np.cos(2.0 * z) + 0.5
    x0 = brentq(lambda x: 2.0 * math.cos(2.0 * x) + 0.5, 0.5, 1.5,
                xtol=1e-14)
    assert x0 == pytest.approx(0.9117382909684875, abs=1e-13)
    zs = locate_zeros(f, Rectangle(0.0, 4.5, -1.0, 1.0))
    expected = [(x0, 1), (math.pi - x0, 1), (math.pi + x0, 1)]
    assert_matches(zs, expected, 1e-9)


def test_locate_sine_lattice():
    f = lambda z: np.sin(math.pi * z)
    zs = locate_zeros(f, Rectangle(-3.5, 3.5, -1.0, 1.0))
    expected = [(float(n), 1) for n in range(-3, 4)]
    assert_matches(zs, expected, 1e-10)


def test_locate_zeros_deterministic():
    f = poly_from_roots([0.2 + 0.3j, 0.2 + 0.3j, -0.6, 0.1 - 0.7j])
    first = locate_zeros(f, SQUARE)
    second = locate_zeros(f, SQUARE)
    assert first == second           # bitwise identical entries


@pytest.mark.parametrize("roots", [
    [1.0, 1.5], [1.0, 1.5, 1.2 + 0.3j]], ids=["two", "three"])
def test_locate_splits_the_rectangle_it_counted(roots):
    # the zero at 1 lies on the left edge, so the count needs the jitter;
    # the split must start from the jittered rectangle, whose children keep
    # 1 off their edges, and 1.5 sits on the first split line
    rect = Rectangle(1.0, 2.0, -1.0, 1.0)
    f = poly_from_roots(roots)
    assert wind_count(f, rect) == len(roots)
    zs = locate_zeros(f, rect)
    assert_matches(zs, [(z, 1) for z in roots], 1e-10)


def test_locate_empty_rectangle():
    zs = locate_zeros(lambda z: np.exp(z) + 3.0, SQUARE)
    assert len(zs) == 0 and zs.total_multiplicity() == 0


# ------------------------------------------------------------------ starts

CUBIC = [0.3 + 0.2j, -0.5 - 0.4j, 0.6 - 0.7j]


def no_search(monkeypatch):
    def search(*args):
        raise AssertionError("locate_zeros searched instead of certifying")

    monkeypatch.setattr(rootscan, "_search", search)


def test_certify_without_a_start_falls_back_to_the_search(monkeypatch):
    f = poly_from_roots(CUBIC)
    search, searched = rootscan._search, []

    def recording(*args):
        # the rectangle, its count and tol
        searched.append((args[1], args[2], args[4]))
        return search(*args)

    monkeypatch.setattr(rootscan, "_search", recording)
    zs = locate_zeros(f, SQUARE, 1e-12,
                      lambda near: [z + 1e-3 for z in CUBIC[1:]])
    assert searched == [(SQUARE, 3, 1e-12)]
    assert zs == locate_zeros(f, SQUARE, 1e-12)
    assert_matches(zs, [(z, 1) for z in CUBIC], 1e-12)


def test_a_failed_start_counts_the_rectangle_once():
    # the fallback searches the rectangle already counted: the first sweep
    # of its boundary is not evaluated again
    poly, calls = poly_from_roots(CUBIC), []

    def f(z):
        calls.append(np.array(z, copy=True))
        return poly(z)

    zs = locate_zeros(f, SQUARE, 1e-12, lambda near: [CUBIC[1]])
    assert_matches(zs, [(z, 1) for z in CUBIC], 1e-12)
    assert sum(np.array_equal(c, calls[0]) for c in calls) == 1


def test_certify_drops_a_spurious_and_a_duplicate_start(monkeypatch):
    # 2.9 lies outside the square and its margin, so it is never polished;
    # the duplicate start runs to the zero that CUBIC[0] + 1e-3 finds too
    no_search(monkeypatch)
    f = poly_from_roots(CUBIC + [3.0])
    starts = [z + 1e-3 for z in CUBIC] + [CUBIC[0] - 1e-3j, 2.9]
    zs = locate_zeros(f, SQUARE, 1e-12, lambda near: starts)
    assert_matches(zs, [(z, 1) for z in CUBIC], 1e-12)


def test_certify_counts_a_double_zero_on_its_square(monkeypatch):
    # two runs to the double zero end apart by less than MERGE_RESOLUTION
    # and merge; its square then counts 2
    no_search(monkeypatch)
    f = poly_from_roots([1.0, 1.0, 2.0])
    rect = Rectangle(0.5, 2.5, -0.5, 0.5)
    starts = [1.05 + 0.02j, 0.97 - 0.01j, 2.03]
    zs = locate_zeros(f, rect, 1e-10, lambda near: starts)
    assert_matches(zs, [(1.0, 2), (2.0, 1)], 1e-8)


def test_certify_keeps_no_zero_from_outside_the_counted_rectangle(
        monkeypatch):
    # the zero at 1 + 1e-5 lies outside the square but inside Newton's
    # acceptance pad of 1e-5 times its diameter, so the run accepts it
    outside = 1.0 + 1e-5 + 0.3j
    f = poly_from_roots([0.2 + 0.1j, outside])
    polished, = rootscan._polish_in_lockstep(f, [rootscan._newton_polish(
        1.0 + 0.3j, 1, 1e-12, 0.0, SQUARE)])
    assert abs(polished - outside) <= 1e-12
    no_search(monkeypatch)
    zs = locate_zeros(f, SQUARE, 1e-12, lambda near: [0.2 + 0.1j, 1.0 + 0.3j])
    assert_matches(zs, [(0.2 + 0.1j, 1)], 1e-12)


def test_certify_of_a_zero_free_rectangle_asks_for_no_starts(monkeypatch):
    no_search(monkeypatch)

    def starts(near):
        raise AssertionError("starts asked for")

    zs = locate_zeros(poly_from_roots([2.0 + 2.0j]), SQUARE, 1e-10, starts)
    assert zs == ZeroSet(())


def test_starts_are_asked_for_the_given_rectangle_with_its_margin(
        monkeypatch):
    # the zero on the right edge makes the count jitter outward, yet the
    # starts are asked for on the square itself, inflated by the margin;
    # only those inside that are polished, in the order given
    no_search(monkeypatch)
    poly, calls, asked = poly_from_roots(CUBIC + [1.0]), [], []

    def f(z):
        calls.append(np.array(z, copy=True))
        return poly(z)

    starts = [1.001, 2.9, CUBIC[2] + 1e-3, CUBIC[0] + 1e-3, 1.01j,
              CUBIC[1] + 1e-3]
    zs = locate_zeros(f, SQUARE, 1e-12,
                      lambda near: asked.append(near) or starts)
    assert asked == [SQUARE.inflated(
        rootscan._START_MARGIN * SQUARE.diameter)]
    first = next(c for c in calls if c[0] == starts[0])
    assert first[::3].tolist() == [starts[i] for i in (0, 2, 3, 5)]
    assert_matches(zs, [(z, 1) for z in CUBIC + [1.0]], 1e-12)


# ------------------------------------------------------------------ ZeroSet

def test_zeroset_canonical_order_and_merge():
    zs = ZeroSet.from_pairs([
        (1.0 + 0.0j, 1),
        (0.5j, 1),
        (0.5j + 1e-12, 2),          # merges into the previous entry
        (-0.2, 1),
    ])
    assert len(zs) == 3
    mods = np.abs(zs.locations())
    assert np.all(np.diff(mods) >= 0)
    merged = dict(zip(np.round(zs.locations(), 6), (m for _, m in zs.entries)))
    assert merged[np.complex128(0.5j)] == 3


def test_zeroset_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        ZeroSet.from_pairs([(1.0, 0)])


def test_zeroset_text_round_trip():
    zs = ZeroSet.from_pairs([
        (0.9117382909684875, 1),
        (-1.25 + 3.5e-3j, 2),
        (7.0j, 1),
    ])
    text = zs.to_text({"function": "corpus example", "tolerance": "1e-10"})
    back, meta = ZeroSet.from_text(text)
    assert meta["function"] == "corpus example"
    assert meta["tolerance"] == "1e-10"
    assert meta["count"] == "3"
    assert [m for _, m in back.entries] == [m for _, m in zs.entries]
    np.testing.assert_allclose(back.locations(), zs.locations(), rtol=1e-14)


def test_zeroset_from_text_sorts_unordered_input():
    text = "3 0 1\n1 0 1\n2 0 1\n"
    zs, _ = ZeroSet.from_text(text)
    np.testing.assert_array_equal(zs.locations(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("resolution", [0.0, 1e-8])
def test_zeroset_rows_survive_roundoff_moves(resolution):
    # conjugate- and mirror-symmetric, like the zeros of an even F that is
    # real on the real axis: quadruples, an imaginary pair and a real pair
    quads = [1.5 + 0.7j, 4.0 + 2.0j, 9.25 + 0.125j, 20.0 + 5.0j]
    base = [s * w for z in quads for w in (z, np.conj(z)) for s in (1, -1)]
    base += [3.0j, -3.0j, 7.5, -7.5]
    ref = ZeroSet.from_pairs([(z, 1) for z in base], resolution).locations()
    rng = np.random.default_rng(3)
    for _ in range(20):
        kick = 1.0 + 1e-14 * (rng.standard_normal(len(base))
                              + 1j * rng.standard_normal(len(base)))
        moved = ZeroSet.from_pairs(
            [(z * k, 1) for z, k in zip(base, kick)], resolution).locations()
        # every moved zero is still in the row of the zero it came from
        rows = np.argmin(np.abs(moved[:, None] - ref[None, :]), axis=1)
        np.testing.assert_array_equal(rows, np.arange(len(ref)))


def test_match_zero_sets():
    a = ZeroSet.from_pairs([(1.0, 1), (2.0j, 2)])
    b = ZeroSet.from_pairs([(1.0 + 1e-6j, 1), (2.0j + 1e-7, 2)])
    match = match_zero_sets(a, b)
    assert len(match.pairs) == 3
    assert match.sup_distance == pytest.approx(1e-6, rel=1e-6)
    with pytest.raises(ValueError, match="cardinality"):
        match_zero_sets(a, ZeroSet.from_pairs([(1.0, 1)]))


def test_tall_window_accepts_newton_on_its_step():
    # |F| is ~1e-2 near these zeros while the boundary maximum of their cell
    # is ~7e4, so a residual target relative to the boundary accepted a
    # point outside the 1e-6 |z| confirmation circle
    f = pair_function(make_poly_bump(1.0), 1e-12)
    zs = locate_zeros(f, Rectangle(0.5, 12.5, -12.0, 12.0), 1e-9)
    assert zs.total_multiplicity() == 6
    for z in zs.locations():
        assert abs(f(np.array([z]))[0]) < 1e-9


def test_tall_box_fails_the_floor():
    # |F| grows like e^{2L |Im z|}, to ~6e18 on this boundary, so near the
    # top edge a sample of order 1 falls below FLOOR_RATIO times the
    # boundary maximum and every jitter offset meets a "boundary zero".
    # This pins the defect, so that a change to the floor shows up here
    f = pair_function(make_poly_bump(), 1e-12)
    with pytest.raises(BoundaryZeroError,
                       match=r"boundary jitter exhausted.*below floor"):
        locate_zeros(f, Rectangle(0.05, 40.0, -30.0, -0.05), 1e-9)
