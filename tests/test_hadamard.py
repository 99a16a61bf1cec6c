"""Truncated products, the exact prefactor, contour counts, perturbations,
and the zero-perturbation stability experiment.

The sin model supplies the oracle throughout: zeros at the nonzero
integers give Pi(1 - z^2/n^2) -> sin(pi z)/(pi z), so values, truncation
errors, and prefactors are all checkable against closed forms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resonlab.cli import ExperimentConfig
from resonlab.ftransform import pair_function
from resonlab.hadamard import (
    LOG_GUARD, ContourCountError, ProductOverflowError, build_product,
    convergence_curve, count_difference, eval_product, fit_prefactor,
    mirrored_reconstruction, perturb_zeros, stability_experiment,
)
from resonlab.potential import make_poly_bump
from resonlab.rootscan import Rectangle, ZeroSet, match_zero_sets

TWO_OVER_PI = 2.0 / math.pi


def sin_set(n):
    pairs = [(float(k), 1) for k in range(1, n + 1)]
    pairs += [(-float(k), 1) for k in range(1, n + 1)]
    return ZeroSet.from_pairs(pairs, resolution=0.0)


# ------------------------------------------------------------ construction

def test_truncation_is_strict_by_modulus():
    zs = ZeroSet.from_pairs([(1.0, 1), (2.0, 1), (3.0, 1)])
    assert len(build_product(zs, 2.0).zeros) == 1
    assert len(build_product(zs, 2.5).zeros) == 2
    # any radius between consecutive moduli retains the same factors
    assert build_product(zs, 2.5).zeros == build_product(zs, 2.2).zeros


def test_origin_zero_must_live_in_the_prefactor():
    zs = ZeroSet.from_pairs([(0.0, 1), (1.0, 1)])
    with pytest.raises(ValueError):
        build_product(zs, 2.0)
    with pytest.raises(ValueError):
        build_product(sin_set(2), 0.0)


# ------------------------------------------------------------ evaluation

def test_eval_trivia_exact():
    one = build_product(ZeroSet(()), 1.0)
    assert eval_product(one, 3.0 + 4.0j) == 1.0
    lin = build_product(ZeroSet.from_pairs([(1.0, 1)]), 2.0)
    assert eval_product(lin, 2.0) == -1.0
    assert eval_product(lin, 1.0) == 0.0
    # z = 0 reads off the constant exactly
    tilted = build_product(ZeroSet.from_pairs([(2.0, 1)]), 3.0, c=0.7 + 0.1j)
    assert eval_product(tilted, 0.0) == 0.7 + 0.1j


def test_sin_model_value_against_partial_product_oracle():
    p = build_product(sin_set(200), 200.5)
    val = eval_product(p, 0.5)
    ns = np.arange(1, 201, dtype=float)
    oracle = np.prod(1.0 - 0.25 / ns ** 2)
    assert abs(val - oracle) <= 1e-13
    assert abs(val - TWO_OVER_PI) <= 1e-2


def leaves_guard(zero_set, w):
    """Whether eval_product must raise at w: w is no zero, no factor is
    exactly 0, and log |prod (1 - w/z_n)|, summed in the log domain, lies
    beyond +-LOG_GUARD."""
    locs = zero_set.locations(expand=True)
    # the factor (z_n - w) / z_n as eval_product forms it: CPython's complex
    # quotient, which it follows bit for bit
    factors = [abs((complex(z_n) - complex(w)) / complex(z_n)) for z_n in locs]
    return (w not in locs and 0.0 not in factors
            and abs(math.fsum(map(math.log, factors))) > LOG_GUARD)


# z next to a double zero: log|P| = -994, or -1382 where the accumulator
# would underflow to exactly 0
@example(zeros=[1 + 1.56e-216j] * 2, z=1 + 0j, points=[])
@example(zeros=[1 + 1e-300j] * 2, z=1 + 0j, points=[])
@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(min_magnitude=0.3, max_magnitude=5.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=0, max_size=8),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False),
       st.lists(st.complex_numbers(max_magnitude=30.0, allow_nan=False,
                                   allow_infinity=False), max_size=8))
def test_appending_a_zero_multiplies_exactly(zeros, z, points):
    base = ZeroSet.from_pairs([(w, 1) for w in zeros], resolution=0.0)
    z0 = 9.0 + 1.5j  # strictly largest modulus, so it is the final factor
    ext = ZeroSet.from_pairs(list(base) + [(z0, 1)], resolution=0.0)
    product = build_product(ext, 20.0)
    pts = np.array([z, z0, *zeros, *points], dtype=complex)
    # a point next to a zero can take the product beyond the guard range,
    # where eval_product raises instead of returning a value
    out = np.array([leaves_guard(ext, w) for w in pts])
    for w in pts[out]:
        with pytest.raises(ProductOverflowError):
            eval_product(product, w)
    if out.any():
        with pytest.raises(ProductOverflowError):
            eval_product(product, pts)
    if not (out[0] or leaves_guard(base, z)):
        lhs = eval_product(product, z)
        rhs = eval_product(build_product(base, 20.0), z) * ((z0 - z) / z0)
        assert type(lhs) is complex
        assert lhs == rhs
    # an array of points, the zeros included, carries the scalar bits
    inside = pts[~out]
    scalar = np.array([eval_product(product, w) for w in inside])
    assert eval_product(product, inside).tobytes() == scalar.tobytes()


def ring(n, center, radius):
    """n distinct zeros on a slowly widening circle about center."""
    return [center + radius * (1.0 + 1e-3 * k) * np.exp(2j * np.pi * k / n)
            for k in range(n)]


def log_magnitude(c, zeros, z):
    """log |c prod (1 - z/z_n)|, summed with math.fsum in the log domain."""
    return math.fsum([math.log(abs(c))]
                     + [math.log(abs(1.0 - z / w)) for w in zeros])


def test_eval_keeps_its_digits_next_to_a_zero():
    # the default-config product of F, at distances 1e-3 ... 1e-12 from each
    # of its zeros: every factor is formed as (z_n - z) / z_n, so the one
    # next to z keeps its relative accuracy, and the value is within
    # 8 (n + 1) eps relative of a 40-digit product of the same n factors
    cfg = ExperimentConfig()
    f = pair_function(cfg.potential(), cfg.quad_rtol)
    zeros, c = mirrored_reconstruction(f, cfg.rectangle(), cfg.root_tol)
    p = build_product(zeros, cfg.radius, c)
    locs = p.zeros.locations(expand=True)
    bound = 8.0 * (locs.size + 1) * np.finfo(float).eps
    mpmath.mp.dps = 40
    for z_k in locs:
        for d in 10.0 ** -np.arange(3, 13):
            for z in (z_k + d * np.exp(0.3j), z_k - d * np.exp(2.0j)):
                z = complex(z)
                oracle = mpmath.mpc(c)
                for z_n in locs:
                    z_n = mpmath.mpc(complex(z_n))
                    oracle *= (z_n - z) / z_n
                gap = abs(mpmath.mpc(eval_product(p, z)) - oracle)
                assert gap <= bound * abs(oracle), (z_k, d, gap / abs(oracle))


def test_eval_rescale_keeps_huge_magnitudes_honest():
    cases = [
        # each factor near 1e4: the partial products pass 2^500 near e^645
        (ring(70, 0.0, 0.01), 100.0),
        # each factor near 1e-4.8: the partial products pass 2^-500
        (ring(55, 1.0, 1.5e-5), 1.0),
        # the partial products pass e^730, beyond the double range, and the
        # larger zeros near z bring the value back to about e^620
        (ring(80, 0.0, 0.01) + ring(25, 100.0, 1.0), 100.0),
    ]
    for zeros, z in cases:
        p = build_product(ZeroSet.from_pairs([(w, 1) for w in zeros],
                                             resolution=0.0), 200.0, c=0.7)
        oracle = log_magnitude(0.7, zeros, z)
        assert 600.0 < abs(oracle) < 700.0
        assert abs(eval_product(p, z)) == pytest.approx(math.exp(oracle),
                                                        rel=1e-12)


def test_eval_overflow_reports_log_value():
    for zeros, z in ((ring(80, 0.0, 0.01), 100.0), (ring(70, 1.0, 1e-5), 1.0)):
        p = build_product(ZeroSet.from_pairs([(w, 1) for w in zeros],
                                             resolution=0.0), 200.0)
        oracle = log_magnitude(1.0, zeros, z)
        assert abs(oracle) > 700.0
        with pytest.raises(ProductOverflowError) as info:
            eval_product(p, z)
        assert info.value.log_value.real == pytest.approx(oracle, rel=1e-12)


# ------------------------------------------------------------ prefactor

def test_prefactor_is_the_value_at_the_origin():
    calls = []

    def f(z):
        calls.append(z)
        return np.sinc(z)

    c = fit_prefactor(f)
    assert c == 1
    assert type(c) is complex
    assert np.array(c).tobytes() == np.array(complex(np.sinc(0.0))).tobytes()
    assert calls == [0.0]


# ------------------------------------------------------------ convergence

def test_convergence_curve_sin_model():
    curve = convergence_curve(sin_set(200), 1.0, 0.5,
                              (25.0, 50.0, 100.0, 200.0))
    errs = [abs(v - TWO_OVER_PI) for v in curve.values]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-2
    for a, b, d in zip(curve.values, curve.values[1:], curve.differences):
        assert d == b - a


def test_convergence_curve_special_points():
    zs = ZeroSet.from_pairs([(2.0, 1), (5.0, 1)])
    hit = convergence_curve(zs, 1.0, 2.0, (1.5, 3.5, 6.5))
    assert hit.values[0] != 0.0
    assert hit.values[1] == 0.0 and hit.values[2] == 0.0
    const = convergence_curve(zs, 2.5 + 1j, 0.0, (1.5, 3.5))
    assert const.values == (2.5 + 1j, 2.5 + 1j)
    with pytest.raises(ValueError):
        convergence_curve(zs, 1.0, 0.5, (3.5, 1.5))


# ------------------------------------------------------------ contour counts

def strip_count(zs: ZeroSet, R: float, K: float) -> int:
    """Zeros of modulus < R in [0, R] x i[-K, K], by a numpy mask."""
    a = zs.locations(expand=True)
    inside = ((np.abs(a) < R) & (a.real > 0.0) & (a.real < R)
              & (np.abs(a.imag) < K))
    return int(np.count_nonzero(inside))


def test_count_difference_equal_sets_is_zero():
    z = sin_set(20)
    n = count_difference(z, z, 10.5, 1.0)
    assert type(n) is int
    assert n == 0


def test_count_difference_detects_a_migrated_zero():
    z1 = sin_set(20)
    moved = [(z, m) for z, m in z1 if z != 5.0] + [(11.2, 1)]
    z2 = ZeroSet.from_pairs(moved, resolution=0.0)
    n = count_difference(z1, z2, 10.5, 1.0)
    assert type(n) is int
    assert n == 1 == strip_count(z1, 10.5, 1.0) - strip_count(z2, 10.5, 1.0)


def test_count_difference_no_crossing_under_small_perturbation():
    z1 = sin_set(20)
    z2 = perturb_zeros(z1, 1e-4, "random-in-disk", seed=3)
    n = count_difference(z1, z2, 10.5, 1.0)
    assert type(n) is int
    assert n == 0 == strip_count(z1, 10.5, 1.0) - strip_count(z2, 10.5, 1.0)


def test_count_difference_small_strip_invariance():
    # with only real zeros the count must not depend on the strip height
    z1 = sin_set(20)
    moved = [(z, m) for z, m in z1 if z != 5.0] + [(11.2, 1)]
    z2 = ZeroSet.from_pairs(moved, resolution=0.0)
    for K in (1.0, 0.1, 1e-3):
        assert count_difference(z1, z1, 10.5, K) == 0
        assert count_difference(z1, z2, 10.5, K) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_count_difference_matches_a_point_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    locs = rng.uniform(0.3, 9.7, n) + 1j * rng.uniform(-0.9, 0.9, n)
    z1 = ZeroSet.from_pairs([(z, 1) for z in locs], resolution=0.0)
    z2 = perturb_zeros(z1, float(rng.uniform(0.0, 0.05)),
                       "random-in-disk", seed=seed)
    n_diff = count_difference(z1, z2, 10.0, 1.0)
    assert type(n_diff) is int
    assert n_diff == strip_count(z1, 10.0, 1.0) - strip_count(z2, 10.0, 1.0)


def test_count_difference_refuses_contour_riding_zeros():
    K = 1.0
    scale = 10.5
    offsets = (0.0, 2.3e-6, -2.3e-6, 5.1e-6, -5.1e-6)
    pinned = [(complex(1.0 + j, K + d * scale), 1)
              for j, d in enumerate(offsets)]
    z1 = ZeroSet.from_pairs(pinned, resolution=0.0)
    with pytest.raises(ContourCountError):
        count_difference(z1, z1, 10.5, K)


# ------------------------------------------------------------ perturbations

def conj_closed(zs: ZeroSet, tol=1e-12) -> bool:
    locs = zs.locations()
    return all(np.min(np.abs(np.conj(z) - locs)) <= tol * (1 + abs(z))
               for z in locs)


def mixed_set():
    return ZeroSet.from_pairs(
        [(2.0 + 1.0j, 1), (2.0 - 1.0j, 1), (4.0 + 0.5j, 2), (4.0 - 0.5j, 2),
         (3.0, 1), (-1.5, 1)], resolution=0.0)


def test_perturb_zero_delta_is_identity():
    z = mixed_set()
    for mode in ("uniform-shift", "random-in-disk"):
        assert perturb_zeros(z, 0.0, mode, seed=7) == z


def test_perturb_bounds_reality_and_determinism():
    z = mixed_set()
    out = perturb_zeros(z, 1e-3, "random-in-disk", seed=5)
    assert match_zero_sets(z, out).sup_distance <= 1e-3
    reals_in = sorted(w.real for w, _ in z if w.imag == 0.0)
    reals_out = sorted(w.real for w, _ in out if w.imag == 0.0)
    assert len(reals_in) == len(reals_out) == 2
    assert out == perturb_zeros(z, 1e-3, "random-in-disk", seed=5)
    assert out != perturb_zeros(z, 1e-3, "random-in-disk", seed=6)


def test_perturb_preserves_conjugate_symmetry():
    z = mixed_set()
    for mode in ("uniform-shift", "random-in-disk"):
        assert conj_closed(perturb_zeros(z, 1e-2, mode, seed=11))


def test_perturb_uniform_shift_geometry():
    z = mixed_set()
    out = perturb_zeros(z, 1e-2, "uniform-shift", seed=11)
    pairing = dict(match_zero_sets(z, out).pairs)
    moves = {a: b - a for a, b in pairing.items()}
    upper = [moves[a] for a in moves if a.imag > 0]
    assert all(abs(d - upper[0]) <= 1e-15 for d in upper)
    assert abs(abs(upper[0]) - 1e-2) <= 1e-15
    real_moves = [moves[a] for a in moves if a.imag == 0]
    assert all(d.imag == 0.0 for d in real_moves)
    assert all(abs(d.real - upper[0].real) <= 1e-15 for d in real_moves)


def test_perturb_displacements_scale_linearly_in_delta():
    z = mixed_set()
    big = perturb_zeros(z, 1e-1, "random-in-disk", seed=4)
    small = perturb_zeros(z, 1e-2, "random-in-disk", seed=4)
    mb = dict(match_zero_sets(z, big).pairs)
    ms = dict(match_zero_sets(z, small).pairs)
    for a in mb:
        assert abs((mb[a] - a) - 10.0 * (ms[a] - a)) <= 1e-12


def test_perturb_draws_ignore_the_last_bit_of_a_mirrored_modulus():
    # a mirrored quartet holds z and -conj(z'), z' the separately scanned
    # lower zero; a one-ulp move of z' flips which of the two has the
    # smaller modulus, and must not change the draw that z gets
    z = 4.72674286592643 + 1.62936353132447j
    moves = []
    for way in (-np.inf, np.inf):
        lower = complex(np.nextafter(z.real, way), -z.imag)
        quartet = ZeroSet.from_pairs(
            [(z, 1), (lower, 1), (-z, 1), (-lower, 1)], resolution=0.0)
        out = perturb_zeros(quartet, 0.1, "random-in-disk", seed=0)
        locs = out.locations()
        moves.append(locs[np.argmin(np.abs(locs - z))] - z)
    assert moves[0] == moves[1]


def test_perturb_validation():
    z = mixed_set()
    with pytest.raises(ValueError):
        perturb_zeros(z, -1e-3, "random-in-disk", seed=0)
    with pytest.raises(ValueError):
        perturb_zeros(z, 1e-3, "sideways", seed=0)


# ------------------------------------------------------------ stability

def test_stability_experiment_poly_bump():
    table = stability_experiment(
        make_poly_bump(), Rectangle(0.5, 12.0, -4.0, 4.0),
        (1e-3, 1e-1, 0.0, 1e-2), 12.5, np.linspace(0.0, 10.0, 101), seed=42)
    deltas = [r.delta for r in table.rows]
    assert deltas == sorted(deltas, reverse=True)
    sups = [r.sup_diff for r in table.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] == 0.0  # the delta = 0 row
    for r in table.rows:
        assert r.error is None
        assert r.n_diff == 0
        assert r.zero_sup_distance <= r.delta
        assert r.grid_size == 101
    # evenness mirroring doubles the scanned zeros
    assert len(table.base_zeros) == 12
    c = table.prefactor
    assert type(c) is complex and abs(c.imag) < 1e-9


def test_stability_table_serialization():
    table = stability_experiment(
        make_poly_bump(), Rectangle(0.5, 12.0, -4.0, 4.0),
        (1e-2, 1e-3), 12.5, np.linspace(0.0, 10.0, 51), seed=1)
    text = table.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "delta,sup_diff,n_diff,zero_sup_distance,R,K,grid_size"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1e-2
    assert int(first[2]) == 0
    assert int(first[6]) == 51


def test_stability_failed_rows_are_marked_not_fatal():
    table = stability_experiment(
        make_poly_bump(), Rectangle(0.5, 12.0, -4.0, 4.0),
        (1e-2, 1e-3), 12.5, np.linspace(0.0, 10.0, 21), mode="sideways")
    assert len(table.rows) == 2
    for r in table.rows:
        assert r.error is not None and "sideways" in r.error
        assert math.isnan(r.sup_diff)
        assert r.n_diff is None
    assert "# failed:" in table.to_text()


def test_stability_rejects_origin_straddling_rectangle():
    with pytest.raises(ValueError):
        stability_experiment(make_poly_bump(), Rectangle(-1.0, 12.0, -4.0, 4.0),
                             (1e-2,), 12.5, np.linspace(0.0, 10.0, 21))
