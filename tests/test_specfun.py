import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

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
    # one point alone takes the scalar Lentz iteration at non-integer b
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
        # the two methods, side by side at integer b (log 0 at the ends)
        xs = np.linspace(0.0, 1.0, 201)
        for a, b in [(6.0, 3), (2.5, 1), (150.0, 40), (0.3, 7)]:
            with np.errstate(divide="ignore"):
                by_cf = specfun._log_betainc_cf(a, float(b), xs)
            np.testing.assert_allclose(log_betainc(a, b, xs), by_cf, rtol=1e-13, atol=1e-13)

    def test_unconverged_continued_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_TERMS", 2)
        with pytest.raises(ConvergenceError):
            log_betainc(30.0, 20.5, np.array([0.55, 0.6]))
        with pytest.raises(ConvergenceError):
            log_betainc(30.0, 20.5, 0.6)


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
