import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from goaltime import predictive as pred
from goaltime import specfun
from goaltime.errors import ConvergenceError, DomainError
from goaltime.specfun import gauss_2f1, log_beta, log_betainc

from oracles import log_reg_gauss_2f1_pos

mp.mp.dps = 30


class TestRegIncBeta:
    """The package's incomplete beta, ``log_betainc``."""

    def test_symmetry_midpoint(self):
        assert math.exp(log_betainc(3.0, 3.0, 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_polynomial_closed_form(self):
        # I_x(3,3) = x^3 (10 - 15x + 6x^2)
        x = 0.626
        expected = x**3 * (10 - 15 * x + 6 * x**2)
        assert math.exp(log_betainc(3.0, 3.0, x)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.7264, abs=5e-4)

    def test_endpoints(self):
        assert log_betainc(2.3, 4.5, 0.0) == -math.inf
        assert log_betainc(2.3, 4.5, 1.0) == 0.0

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 101)
        vals = log_betainc(2.7, 0.9, xs)
        assert np.all(np.diff(vals) >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_betainc(2.0, 2.0, 1.2)
        with pytest.raises(DomainError):
            log_betainc(2.0, 2.0, -0.1)
        with pytest.raises(DomainError):
            log_betainc(0.0, 2.0, 0.5)

    @pytest.mark.parametrize("a, b, x", [
        (math.nan, 2.0, 0.5), (math.inf, 2.0, 0.5), (2.0, math.nan, [0.2, 0.5]), (2.0, math.inf, 0.5),
    ])
    def test_shape_that_is_not_finite_is_a_domain_error(self, a, b, x):
        # up front, not after the continued fraction's last step
        with pytest.raises(DomainError):
            log_betainc(a, b, x)

    @pytest.mark.parametrize(
        "a, b, name", [(1e-310, 2.0, "a=1e-310"), (5e-324, 2.0, "a=5e-324"), (2.0, 1e-310, "b=1e-310")]
    )
    def test_subnormal_shape_is_a_domain_error(self, a, b, name):
        # the prefactor divides by the shape and would read NaN
        with pytest.raises(DomainError, match=name):
            log_betainc(a, b, 0.5)

    def test_smallest_normal_shape(self):
        assert log_betainc(sys.float_info.min, 2.0, 0.5) == -4.297667423083557e-309

    def test_underflow_region_against_mpmath(self):
        # scipy's betainc underflows here; log_betainc works in log space throughout
        for a, b, x in [(370.4, 240.7, 0.0564), (6.0, 3.0, 1e-200), (401.0, 1.1, 0.19)]:
            assert special.betainc(a, b, x) < 1e-280
            want = float(mp.log(mp.betainc(a, b, 0, x, regularized=True)))
            assert log_betainc(a, b, x) == pytest.approx(want, rel=1e-13)

    def test_continuous_across_the_underflow_floor(self):
        # the grid straddles the point where scipy's betainc underflows, and
        # log_betainc keeps its accuracy on both sides of it
        a, b = 60.0, 40.0
        xs = np.geomspace(1e-4, 1e-7, 30)
        direct = special.betainc(a, b, xs)
        assert direct[0] > 1e-280 > direct[-1]
        want = [float(mp.log(mp.betainc(a, b, 0, x, regularized=True))) for x in xs]
        np.testing.assert_allclose(log_betainc(a, b, xs), want, rtol=1e-13)


def mp_log_betainc(a, b, x):
    """log I_x(a, b) in mpmath at 50 digits, at the exact double x."""
    with mp.workdps(50):
        return float(mp.log(mp.betainc(a, b, 0, mp.mpf(x), regularized=True)))


def points_around_the_swap(a, b, logit):
    """The drawn point and the two doubles next to (a+1)/(a+b+2), where
    the continued fraction swaps to 1 - I_{1-x}(b, a)."""
    swap = (a + 1.0) / (a + b + 2.0)
    return np.array([1.0 / (1.0 + math.exp(-logit)), np.nextafter(swap, 0.0), np.nextafter(swap, 1.0)])


def check_against_mpmath(a, b, logit):
    xs = points_around_the_swap(a, b, logit)
    got = log_betainc(a, b, xs)
    for x, g in zip(xs, got):
        want = mp_log_betainc(a, b, x)
        assert abs(g - want) <= 1e-12 * max(1.0, abs(want)), (a, b, x)
    # one point alone sums in Python floats
    assert log_betainc(a, b, xs[0]) == pytest.approx(got[0], rel=1e-14, abs=1e-14)


SHAPE_A = st.floats(0.1, 400.0)
LOGIT = st.floats(-30.0, 30.0)


class TestLogBetaincOverDomain:
    """``log_betainc`` against mpmath over a in [0.1, 400], logit(x) in [-30, 30].

    Every example also takes the two doubles on either side of the swap
    point.  At logit -30 and a in the hundreds, I_x is far below the
    smallest double (``@example``), and only its log is representable.
    """

    @given(a=SHAPE_A, b=st.integers(1, 250), logit=LOGIT)
    @example(a=400.0, b=250, logit=-30.0)  # I_x near 1e-5200
    @example(a=0.1, b=1, logit=30.0)
    @example(a=400.0, b=250, logit=30.0)
    @settings(max_examples=200, deadline=None)
    def test_integer_b_against_mpmath(self, a, b, logit):
        check_against_mpmath(a, b, logit)

    @given(a=SHAPE_A, b=st.floats(0.1, 250.0).filter(lambda b: not b.is_integer()), logit=LOGIT)
    @example(a=400.0, b=249.5, logit=-30.0)  # I_x near 1e-5200
    @example(a=0.1, b=0.1, logit=30.0)
    @example(a=337.13, b=9.19, logit=3.45)  # just below the swap point
    @settings(max_examples=200, deadline=None)
    def test_non_integer_b_against_mpmath(self, a, b, logit):
        check_against_mpmath(a, b, logit)

    def test_underflow_is_reached(self):
        # the domain above holds points where I_x itself is not a double
        assert special.betainc(400.0, 250.0, 1.0 / (1.0 + math.exp(30.0))) == 0.0
        assert log_betainc(400.0, 250.0, 1.0 / (1.0 + math.exp(30.0))) < -10000.0

    def test_integer_sum_agrees_with_continued_fraction(self):
        # the two methods side by side at integer b: the finite sum of q1's
        # statistics' term (predictive._Kernel.log_stat), which on the
        # scale s = x1 + x2 is log I_w(a, b) - a log w with w = x1/s, less
        # log B(1, a) + log s, and log_betainc's continued fraction, at w
        # inside (0, 1)
        x1 = np.linspace(0.0, 1.0, 201)[1:-1]
        x2 = 1.0 - x1
        s = x1 + x2
        for a, b in [(6.0, 3), (2.5, 2), (150.0, 40), (0.3, 7)]:
            kernel = pred._Kernel(a, float(b), 1.0)
            by_sum = kernel.log_stat(x1, x2) - log_beta(1.0, a) - np.log(s) + a * np.log(x1 / s)
            np.testing.assert_allclose(by_sum, log_betainc(a, b, x1 / (x1 + x2)), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("b", [3.0, 2.5])
    def test_out_is_bit_identical(self, b):
        # the continued fraction at an integer and a non-integer b, over
        # more than one chunk and both ends of [0, 1]
        x = np.random.default_rng(2).random((7, 10_000))
        x[0, :2] = (0.0, 1.0)
        want = log_betainc(6.0, b, x)
        out = np.empty_like(x)
        assert log_betainc(6.0, b, x, out=out) is out
        assert out.tobytes() == want.tobytes()
        aliased = x.copy()
        log_betainc(6.0, b, aliased, out=aliased)
        assert aliased.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            log_betainc(6.0, b, x, out=np.empty((10_000, 7)).T)

    def test_unconverged_continued_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_TERMS", 2)
        with pytest.raises(ConvergenceError):
            log_betainc(30.0, 20.5, np.array([0.55, 0.6]))
        with pytest.raises(ConvergenceError, match=r"\(a=30\.0, b=20\.5\)"):
            log_betainc(30.0, 20.5, 0.6)  # past the swap point: the message names the caller's shapes


EPS = float(np.finfo(float).eps)


def cf_coefficient(p, q, k):
    """d_k / t of DLMF 8.17.22 for I_t(p, q)."""
    m = k // 2
    if k % 2:
        return -(p + m) * (p + q + m) / ((p + 2 * m) * (p + 2 * m + 1.0))
    return m * (q - m) / ((p + 2 * m - 1.0) * (p + 2 * m))


def lentz_steps(p, q, t):
    """Steps of modified Lentz at t until two convergents agree to rounding:
    d_1 first, then d_2m, d_2m+1 per step."""
    c, d = math.inf, 1.0
    for m in range(2000):
        for k in (2 * m, 2 * m + 1) if m else (1,):
            aa = cf_coefficient(p, q, k) * t
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
        if abs(d * c - 1.0) <= EPS:
            return m + 1
    raise AssertionError((p, q, t))


def log_betainc_by_long_sum(a, b, xs):
    """log I_x(a, b) with the continued fraction summed backward over the
    first 4n + 60 steps, n the Lentz steps at the side's largest argument."""
    swap = xs > (a + 1.0) / (a + b + 2.0)
    want = specfun._log_xy_over_beta(a, b, xs)
    for side, p, q, swapped in ((~swap, a, b, False), (swap, b, a, True)):
        ts = 1.0 - xs[side] if swapped else xs[side]
        steps = 4 * lentz_steps(p, q, float(ts.max())) + 60
        g = 1.0
        for k in range(2 * steps - 1, 0, -1):
            g = 1.0 + cf_coefficient(p, q, k) * ts / g
        want[side] -= np.log(g) + math.log(p)
    want[swap] = np.log1p(-np.exp(want[swap]))
    return want


def sweep_both_sides(a, b):
    """Points on both sides of the swap point, packed toward it and toward
    each end of [0, 1], with the two doubles beside it."""
    swap = (a + 1.0) / (a + b + 2.0)
    u = np.geomspace(1e-9, 0.5, 8)
    return np.concatenate([
        swap * u, swap * (1.0 - u), 1.0 - (1.0 - swap) * u, 1.0 - (1.0 - swap) * (1.0 - u),
        [np.nextafter(swap, 0.0), np.nextafter(swap, 1.0)],
    ])


def sampled_shapes(count, seed, a_range=(1.0, 200.0), b_range=(1.0, 200.0)):
    """Seeded (a, b), log-uniform in the ranges so that small shapes are
    drawn as often as large ones; every fourth b an integer."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(*np.log(a_range), count))
    b = np.exp(rng.uniform(*np.log(b_range), count))
    b[::4] = np.maximum(np.round(b[::4]), 1.0)
    return [(float(p), float(q)) for p, q in zip(a, b)]


class TestBackwardSum:
    """The continued fraction summed backward over the coefficients of the
    Lentz steps at a side's largest argument, plus spare steps."""

    @pytest.mark.parametrize("a_range, b_range", [((1.0, 200.0), (1.0, 200.0)), ((50.0, 400.0), (0.1, 5.0))])
    def test_equals_the_long_sum(self, a_range, b_range):
        # the second range is the corner of the domain with a >> b, where
        # the swap point nears 1 and the fraction converges slowest: Lentz
        # plus five steps stops up to 94 eps short of the long sum there
        for a, b in sampled_shapes(400, 3, a_range, b_range):
            xs = sweep_both_sides(a, b)
            got = log_betainc(a, b, xs)
            want = log_betainc_by_long_sum(a, b, xs)
            assert np.all(np.abs(got - want) <= 2 * EPS * np.maximum(1.0, np.abs(want))), (a, b)

    def test_lone_point_equals_the_point_in_an_array(self):
        # a side with one point sums in Python floats over its own Lentz
        # count, a larger one as an array over its largest argument's
        rng = np.random.default_rng(7)
        for a, b in sampled_shapes(30, 11):
            xs = np.concatenate([sweep_both_sides(a, b), rng.random(20)])
            got = log_betainc(a, b, xs)
            lone = np.array([log_betainc(a, b, float(x)) for x in xs])
            assert lone.tobytes() == got.tobytes(), (a, b)


class TestLogBeta:
    @given(a=st.floats(0.1, 1000.0), b=st.floats(0.1, 1000.0))
    @example(a=400.0, b=250.0)
    @example(a=0.5, b=400.0)
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath(self, a, b):
        with mp.workdps(50):
            want = float(mp.log(mp.beta(a, b)))
        assert abs(log_beta(a, b) - want) <= 1e-13 * max(1.0, abs(want)), (a, b)


class TestGauss2F1:
    def test_empty_series(self):
        assert gauss_2f1(2.3, 4.5, 1.7, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1-z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_transformed_region_against_mpmath(self):
        val = gauss_2f1(3.0, 6.0, 4.0, -0.9)
        assert val == pytest.approx(float(mp.hyp2f1(3, 6, 4, -0.9)), rel=1e-12)

    def test_grid_against_mpmath(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a, b = rng.uniform(0.3, 9.0, 2)
            c = rng.uniform(0.5, 12.0)
            z = -rng.uniform(0.0, 50.0)
            got = gauss_2f1(a, b, c, z)
            want = float(mp.hyp2f1(a, b, c, z))
            assert got == pytest.approx(want, rel=1e-10), (a, b, c, z)

    def test_deep_negative_terminating(self):
        # integer c - b gives a terminating Pfaff series; exercise z far out
        for z in (-1e3, -1e6, -1e9):
            got = gauss_2f1(6.0, 9.0, 7.0, z)
            want = float(mp.hyp2f1(6, 9, 7, mp.mpf(z)))
            assert got == pytest.approx(want, rel=1e-11)

    def test_far_negative_nonterminating_against_mpmath(self):
        # w = z/(z-1) extremely close to 1 with non-terminating parameters
        got = gauss_2f1(0.51, 0.493, 1.27, -1e12)
        want = float(mp.hyp2f1(0.51, 0.493, 1.27, mp.mpf(-1e12)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        zs = -np.geomspace(1e-3, 1e3, 25)
        vec = gauss_2f1(2.2, 5.1, 3.3, zs)
        scal = np.array([gauss_2f1(2.2, 5.1, 3.3, z) for z in zs])
        np.testing.assert_allclose(vec, scal, rtol=1e-14)

    def test_contiguous_relation(self):
        # (c-a) F(a-1) + (2a-c+(b-a)z) F(a) + a(z-1) F(a+1) = 0
        rng = np.random.default_rng(17)
        for _ in range(40):
            a, b = rng.uniform(1.2, 7.0, 2)
            c = rng.uniform(1.5, 9.0)
            z = -rng.uniform(0.01, 8.0)
            f_m = gauss_2f1(a - 1, b, c, z)
            f_0 = gauss_2f1(a, b, c, z)
            f_p = gauss_2f1(a + 1, b, c, z)
            resid = (c - a) * f_m + (2 * a - c + (b - a) * z) * f_0 + a * (z - 1) * f_p
            scale = max(abs((c - a) * f_m), abs(a * (z - 1) * f_p))
            assert abs(resid) <= 1e-8 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 0.0, -0.5)
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, -3.0, -0.5)
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 2.0, 0.5)

    def test_non_finite_value_raises_convergence_error(self):
        # large parameters far out on the negative axis: scipy returns NaN
        with pytest.raises(ConvergenceError):
            gauss_2f1(400.0, 650.0, 401.0, -1e10)


class TestRegGauss2F1:
    """``log_reg_gauss_2f1_pos``, the log of 2F1(a, b; c; z) / Gamma(c)."""

    def test_trivial(self):
        assert math.exp(log_reg_gauss_2f1_pos(2.0, 7.0, 1.0, 0.0)) == pytest.approx(1.0, rel=1e-14)
        assert math.exp(log_reg_gauss_2f1_pos(1.0, 1.0, 2.0, -1.0)) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_division_consistency(self):
        got = math.exp(log_reg_gauss_2f1_pos(4.0, 8.0, 5.0, -0.5))
        want = gauss_2f1(4.0, 8.0, 5.0, -0.5) / math.gamma(5.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_log_form_matches(self):
        zs = -np.geomspace(0.01, 200.0, 17)
        lg = log_reg_gauss_2f1_pos(6.0, 9.0, 7.0, zs)
        want = [float(mp.log(mp.hyp2f1(6, 9, 7, z) / mp.gamma(7))) for z in zs]
        np.testing.assert_allclose(lg, want, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_reg_gauss_2f1_pos(1.0, 1.0, 0.0, -0.5)
        with pytest.raises(DomainError):
            log_reg_gauss_2f1_pos(1.0, 1.0, 2.0, 0.5)
