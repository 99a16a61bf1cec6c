import mpmath
import numpy as np
import pytest

from resonlab.quadrature import QuadratureError, adaptive_quadrature


def mp_quad(f, a, b):
    """High-precision oracle, independent of the package integrator."""
    mpmath.mp.dps = 40
    return complex(mpmath.quad(f, [a, b]))


def test_polynomial_exactness_single_panel():
    # The 15-point Kronrod rule is exact through degree 22; a loose tolerance
    # keeps the initial panel untouched so the rule itself is what we check.
    val, err = adaptive_quadrature(lambda x: x ** 20, 0.0, 1.0, atol=1.0)
    assert abs(val - 1.0 / 21.0) < 1e-15


def test_rule_normalization():
    val, err = adaptive_quadrature(lambda x: np.ones_like(x), -1.0, 1.0, atol=1e-15)
    assert abs(val - 2.0) < 1e-14
    assert err < 1e-14


def test_smooth_integral_matches_oracle():
    val, err = adaptive_quadrature(lambda x: np.exp(-x * x), 0.0, 1.0,
                                   atol=1e-14, rtol=1e-14)
    ref = mp_quad(lambda t: mpmath.exp(-t * t), 0, 1)
    assert abs(val - ref.real) <= max(err, 1e-14)


def test_oscillatory_complex_integral_matches_oracle():
    w = 57.0
    val, err = adaptive_quadrature(
        lambda x: np.exp(-x * x) * np.exp(-1j * w * x), 0.0, 1.0,
        atol=1e-13, min_panels=8)
    ref = mp_quad(lambda t: mpmath.exp(-t * t) * mpmath.exp(-1j * w * t), 0, 1)
    assert abs(val - ref) < 5e-13
    assert abs(val - ref) <= 10 * max(err, 1e-15)


def test_batch_matches_scalar_runs():
    ws = np.array([3.0, 11.0, 29.0])

    def batch(x):
        return np.exp(-1j * ws[:, None] * x[None, :]) / (1.0 + x[None, :] ** 2)

    vals, errs = adaptive_quadrature(batch, 0.0, 2.0, atol=1e-12, min_panels=4)
    assert vals.shape == (3,)
    for i, w in enumerate(ws):
        v, e = adaptive_quadrature(
            lambda x: np.exp(-1j * w * x) / (1.0 + x ** 2), 0.0, 2.0,
            atol=1e-12, min_panels=4)
        assert abs(vals[i] - v) < 5e-12


def test_breakpoint_pins_kink():
    # |x - 1/3| integrates exactly once the kink is a panel edge.
    val, err = adaptive_quadrature(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                                   atol=1e-14, breakpoints=(1.0 / 3.0,))
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    assert abs(val - exact) < 1e-14


def test_panel_budget_exhaustion_reports_partial_result():
    with pytest.raises(QuadratureError) as info:
        adaptive_quadrature(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                            atol=1e-300, max_panels=8)
    assert info.value.value is not None
    assert info.value.error is not None


def test_zero_integrand_accepts_zero_tolerance():
    val, err = adaptive_quadrature(lambda x: np.zeros_like(x), 0.0, 1.0, atol=0.0)
    assert val == 0.0
    assert err == 0.0


def test_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0, atol=1e-10)


def test_per_element_tolerances():
    # Tight tolerance on one batch element only; both must still satisfy it.
    def batch(x):
        return np.stack([np.cos(40.0 * x), np.ones_like(x)])

    vals, errs = adaptive_quadrature(batch, 0.0, 1.0,
                                     atol=np.array([1e-13, 1e-13]), min_panels=2)
    assert abs(vals[0] - np.sin(40.0) / 40.0) < 1e-12
    assert abs(vals[1] - 1.0) < 1e-13
    assert np.all(errs <= 1e-13)
