import numpy as np
import pytest
import sympy

from resonlab.potential import load_table, make_poly_bump, make_truncated_gaussian
from resonlab.quadrature import adaptive_quadrature


def bump_mass_oracle() -> float:
    """Symbolic integral of the bump profile over its support."""
    x = sympy.symbols("x")
    return float(sympy.integrate((1 - x ** 2) ** 3, (x, 0, 1)))


BUMP_MASS = 16.0 / 35.0


def test_bump_mass_oracle_is_frozen_value():
    assert abs(bump_mass_oracle() - BUMP_MASS) < 1e-15


def test_bump_mass_by_quadrature():
    v = make_poly_bump(1.0)
    val, err = adaptive_quadrature(lambda x: v(x), 0.0, 1.0, atol=1e-13,
                                   rtol=1e-13)
    assert abs(val - BUMP_MASS) < 1e-12
    assert abs(v.abs_moments[0] - BUMP_MASS) < 1e-10  # V >= 0 on the support


def test_bump_endpoint_values():
    v = make_poly_bump(1.0)
    assert v(1.0) == 0.0
    assert v.derivative(1.0, 1) == 0.0
    assert v.derivative(1.0, 2) == 0.0
    assert v(0.0) == 1.0
    assert v.derivative(0.0, 1) == 0.0
    assert v.unit_normalized


def test_bump_vanishes_outside_support():
    v = make_poly_bump(1.0)
    xs = np.array([-5.0, -1e-9, 1.0 + 1e-9, 7.3])
    assert np.all(v(xs) == 0.0)
    assert np.all(v.derivative(xs, 1) == 0.0)
    assert v(-0.5) == 0.0


def test_bump_c2_extension_across_right_edge():
    # Centered second differences straddling x = L must vanish as h -> 0.
    v = make_poly_bump(1.0)
    prev = None
    for h in [1e-2, 1e-3, 1e-4]:
        fd2 = (v(1.0 - h) - 2.0 * v(1.0) + v(1.0 + h)) / h ** 2
        assert prev is None or abs(fd2) < abs(prev)
        prev = fd2
    assert abs(prev) < 1e-3


def test_bump_derivatives_match_finite_differences():
    v = make_poly_bump(1.0)
    for x in [0.2, 0.5, 0.8]:
        h = 1e-6
        fd1 = (v(x + h) - v(x - h)) / (2 * h)
        assert abs(v.derivative(x, 1) - fd1) < 1e-9
        h = 1e-4  # wider step: second differences amplify rounding noise
        fd2 = (v(x + h) - 2 * v(x) + v(x - h)) / h ** 2
        assert abs(v.derivative(x, 2) - fd2) < 1e-5


def test_gaussian_sharp_edge():
    v = make_truncated_gaussian(1.0, sharp_edge=True)
    assert abs(v.endpoint_data(0, "right") - np.exp(-1.0)) < 1e-15
    assert abs(v(1.0) - np.exp(-1.0)) < 1e-15
    assert v(1.0 + 1e-12) == 0.0
    assert v.unit_normalized
    assert abs(v(0.3) - np.exp(-0.09)) < 1e-15


def test_gaussian_smooth_edge_is_c2():
    v = make_truncated_gaussian(1.0, sharp_edge=False)
    assert v.endpoint_data(0, "right") == 0.0
    assert v.endpoint_data(1, "right") == 0.0
    assert abs(v.derivative(1.0, 2)) < 1e-12
    # untouched inner half
    assert abs(v(0.4) - np.exp(-0.16)) < 1e-15
    prev = None
    for h in [1e-2, 1e-3, 1e-4]:
        fd2 = (v(1.0 - h) - 2.0 * v(1.0) + v(1.0 + h)) / h ** 2
        assert prev is None or abs(fd2) < abs(prev)
        prev = fd2


def test_gaussian_smooth_derivative_consistency():
    v = make_truncated_gaussian(1.0, sharp_edge=False)
    h = 1e-6
    for x in [0.6, 0.75, 0.9]:
        fd1 = (v(x + h) - v(x - h)) / (2 * h)
        assert abs(v.derivative(x, 1) - fd1) < 1e-8


def test_table_interpolation_fourth_order():
    # Halving the sample spacing of a smooth profile should cut the sup error
    # by roughly 2^4.
    f = lambda x: np.exp(-x * x) * (1.0 + 0.5 * np.sin(3.0 * x))
    dense = np.linspace(0.0, 1.0, 1001)
    errs = []
    for n in [17, 33, 65]:
        xs = np.linspace(0.0, 1.0, n)
        v = load_table(np.column_stack([xs, f(xs)]), 1.0)
        errs.append(np.max(np.abs(v(dense) - f(dense))))
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_table_validation():
    good = np.column_stack([np.linspace(0, 1, 8), np.ones(8)])
    with pytest.raises(ValueError):
        load_table(good[:3], 1.0)
    bad = good.copy()
    bad[4, 0] = bad[3, 0]
    with pytest.raises(ValueError):
        load_table(bad, 1.0)
    with pytest.raises(ValueError):
        load_table(np.column_stack([np.linspace(0, 2, 8), np.ones(8)]), 1.0)


def test_table_zero_potential():
    xs = np.linspace(0.0, 1.0, 9)
    v = load_table(np.column_stack([xs, np.zeros(9)]), 1.0)
    assert np.all(v(np.linspace(-1, 2, 50)) == 0.0)
    assert not v.unit_normalized
    assert v.abs_moments[0] < 1e-13


def test_table_normalization_report():
    xs = np.linspace(0.0, 1.0, 33)
    v = load_table(np.column_stack([xs, np.exp(-xs * xs)]), 1.0)
    assert abs(v.endpoint_data(0, "left") - 1.0) < 1e-12
    # not-a-knot slope at 0 is only approximately 0 for sampled data
    assert abs(v.endpoint_data(1, "left")) < 1e-4
    assert not v.unit_normalized


def test_endpoint_data_accessors():
    v = make_truncated_gaussian(1.0, sharp_edge=True)
    assert v.endpoint_data(0, "left") == 1.0
    assert abs(v.endpoint_data(2, "left") + 2.0) < 1e-14  # (4x^2-2)e^{-x^2} at 0
    for side, edge in (("left", 0.0), ("right", 1.0)):
        for order in (0, 1, 2):
            assert v.endpoint_data(order, side) == v.derivative(edge, order)


def test_endpoint_data_rejects_unknown_orders_and_sides():
    v = make_truncated_gaussian(1.0, sharp_edge=True)
    for order in (-1, 3):
        with pytest.raises(ValueError, match="up to order 2"):
            v.endpoint_data(order, "left")
    for side in ("lft", "Right", ""):
        with pytest.raises(ValueError, match="'left' or 'right'"):
            v.endpoint_data(0, side)


def test_scalar_call_matches_the_array_call_bit_for_bit():
    # numpy's scalar ** and its array power loop differ in the last bit at
    # about 1 point in 20, so the points are many: 20,000 seeded ones on and
    # around the support, plus its edges, its breakpoints and nan, passed
    # in turn as np.float64 (as scipy passes them) and as float
    rng = np.random.default_rng(0)
    xs = np.linspace(0.0, 1.0, 17)
    table = load_table(np.column_stack([xs, np.exp(-xs) * np.cos(4.0 * xs)]), 1.0)
    for v in (make_poly_bump(1.0), make_truncated_gaussian(1.0, sharp_edge=True),
              make_truncated_gaussian(1.0, sharp_edge=False), table):
        L = v.support_length
        points = np.concatenate([
            [-0.1, 0.0, L / 3.0, *v.breakpoints, L, L + 0.1, np.nan],
            rng.uniform(-0.1 * L, 1.1 * L, 20_000)])
        scalars = [float(x) if i % 2 else x for i, x in enumerate(points)]
        for order in (0, 1, 2):
            batch = v.derivative(points, order) if order else v(points)
            got = [v.derivative(x, order) if order else v(x) for x in scalars]
            assert all(type(g) is float for g in got)
            differ = np.flatnonzero(np.array(got).view(np.uint64)
                                    != batch.view(np.uint64))
            assert differ.size == 0, (
                f"{v.kind}, order {order}: {differ.size} points differ, "
                f"the first at x = {points[differ[0]]!r}")
