import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from goaltime import predictive as pred
from goaltime.distributions import summarize, truncate
from goaltime.errors import DomainError, InvalidShapeError
from goaltime.predictive import (
    PredictionProblem,
    SufficientStat,
    log_restricted_base,
    log_unrestricted_base,
    predictive_summaries,
    restricted_predictive,
    unrestricted_predictive,
)

from oracles import (
    log_ordering_constant_closed,
    marginal_flat,
    marginal_restricted,
    ordering_constant_closed,
    ordering_constant_quadrature,
    predictive_pdf_from_marginal,
    restricted_predictive_quadrature,
    weighted_beta_prime_logpdf,
    window_mass_quad,
    window_mean_quad,
)

X1_TABLE = 35.85
X2_TABLE = 39.07


class TestMarginals:
    def test_flat_values(self):
        assert marginal_flat(1.0, 1.0) == 1.0
        assert marginal_flat(5.0, 2.0) == 2.5
        assert marginal_flat(3.7, 0.4) == pytest.approx(9.25, rel=1e-14)

    def test_restricted_integer_case(self):
        assert marginal_restricted(1.0, 1.0, 1.0) == pytest.approx(2 * math.exp(-1.0), rel=1e-12)

    def test_restricted_tends_to_flat(self):
        for s1, s2 in [(2.0, 3.0), (0.7, 5.0), (4.4, 0.3)]:
            assert marginal_restricted(s1, s2, 1e9) == pytest.approx(
                marginal_flat(s1, s2), rel=1e-9
            )

    def test_restricted_against_defining_integral(self):
        # oracle: quadrature of int_0^upper (1/v) IG(s1, s2)(v) dv
        s1, s2, upper = 2.5, 3.0, 0.8

        def integrand(v):
            return (1 / v) * s2**s1 / math.gamma(s1) * v ** (-s1 - 1) * math.exp(-s2 / v)

        want, _ = integrate.quad(integrand, 0, upper, epsrel=1e-12)
        assert marginal_restricted(s1, s2, upper) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            marginal_flat(-1.0, 2.0)
        with pytest.raises(DomainError):
            marginal_restricted(1.0, 2.0, 0.0)


class TestOrderingConstant:
    """The incomplete-beta closed form of the paper's ordering constant,
    from which q1's ratio of constants reduces to a ratio of ordering
    probabilities (``predictive``), against its defining integral and its
    2F1 form."""

    def test_simple_point_against_quadrature(self):
        got = ordering_constant_closed(2.0, 1.0, 2.0, 1.0)
        want = ordering_constant_quadrature(2.0, 1.0, 2.0, 1.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_data_scale_point_against_quadrature(self):
        got = ordering_constant_closed(2.5, 40.0, 2.0, 36.0)
        want = ordering_constant_quadrature(2.5, 40.0, 2.0, 36.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_scaling_relation(self):
        # C(k1, c*k2, s1, c*s2) = c^-2 C(k1, k2, s1, s2)
        k1, k2, s1, s2 = 4.0, 70.0, 2.0, 40.0
        base = ordering_constant_closed(k1, k2, s1, s2)
        for c in (0.1, 3.0, 10.0):
            assert ordering_constant_closed(k1, c * k2, s1, c * s2) == pytest.approx(
                base / c**2, rel=1e-11
            )

    def test_grid_against_quadrature(self):
        for k1 in (1.5, 3.0, 5.0):
            for k2 in (5.0, 40.0, 90.0):
                for s1 in (1.0, 2.0, 4.0):
                    for s2 in (10.0, 39.0, 80.0):
                        got = ordering_constant_closed(k1, k2, s1, s2)
                        want = ordering_constant_quadrature(k1, k2, s1, s2)
                        assert got == pytest.approx(want, rel=1e-6), (k1, k2, s1, s2)

    def test_vectorized_over_k2_s2(self):
        # q1's constants take k2 = x1 (+ y) and s2 = x2: log_restricted_base
        # broadcast over arrays of both equals its scalar calls
        x1 = np.array([10.0, 40.0, 95.0])
        x2 = np.array([39.0, 20.0, 5.0])
        ys = np.array([[0.5], [12.0], [70.0]])
        for r2 in (3.0, 2.5):
            vec = log_restricted_base(ys, x1, x2, 6.0, r2, 1.5)
            scal = [
                [log_restricted_base(y, a, b, 6.0, r2, 1.5) for a, b in zip(x1, x2)] for y in ys[:, 0]
            ]
            np.testing.assert_allclose(vec, scal, rtol=1e-13)

    @given(
        k1=st.floats(0.1, 400.0),
        s1=st.floats(0.1, 250.0),
        log10_ratio=st.floats(-300.0, 300.0),
        log10_s2=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_against_mpmath_over_domain(self, k1, s1, log10_ratio, log10_s2):
        # oracle: the hypergeometric closed form of the module docstring at
        # 50 digits, over non-integer shapes and k2/s2 in [1e-300, 1e300]
        s2 = 10.0**log10_s2
        k2 = s2 * 10.0**log10_ratio
        with mp.workdps(50):
            m_k1, m_k2, m_s1, m_s2 = map(mp.mpf, (k1, k2, s1, s2))
            want = float(
                mp.log(m_k1)
                + m_k1 * mp.log(m_k2)
                - (m_k1 + 2) * mp.log(m_s2)
                + mp.loggamma(m_k1 + m_s1 + 2)
                - mp.loggamma(m_s1)
                + mp.log(mp.hyp2f1(m_k1 + 1, m_k1 + m_s1 + 2, m_k1 + 2, -m_k2 / m_s2))
                - mp.loggamma(m_k1 + 2)
            )
        got = log_ordering_constant_closed(k1, k2, s1, s2)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (k1, k2, s1, s2)

    def test_non_finite_result_is_a_domain_error(self):
        # x1/x2 = 1e-400 is below every double, so q1's denominator
        # weight x1/(x1 + x2) underflows to 0
        problem = PredictionProblem(
            obs_a=SufficientStat(x=1e-200, r=3.0), obs_b=SufficientStat(x=1e200, r=3.0)
        )
        with pytest.raises(DomainError):
            restricted_predictive(problem)
        with pytest.raises(DomainError):
            log_restricted_base(1.0, 1e-200, 1e200, 3.0, 3.0, 3.0)


class TestUnrestricted:
    def problem(self, window=(0.0, 60.0)):
        return PredictionProblem(
            obs_a=SufficientStat(x=X1_TABLE, r=3.0), r_prime=3.0, window=window
        )

    def test_matches_three_parameter_beta_prime(self):
        d = unrestricted_predictive(self.problem())
        ys = np.linspace(0.5, 59.5, 40)
        want = stats.betaprime.pdf(ys, 3.0, 3.0, scale=X1_TABLE) / d.mass
        np.testing.assert_allclose(d.pdf(ys), want, rtol=1e-12)

    def test_marginal_ratio_form_reduces_to_beta_prime(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            r1 = rng.uniform(1.5, 6.0)
            rp = rng.uniform(0.5, 5.0)
            x1 = rng.uniform(5.0, 80.0)
            y = rng.uniform(0.1, 120.0)
            got = predictive_pdf_from_marginal(y, x1, r1, rp, marginal=marginal_flat)
            want = math.exp(log_unrestricted_base(y, x1, r1, rp))
            assert got == pytest.approx(want, rel=1e-10)

    def test_truncated_coefficient(self):
        # truncated density is coeff * y^2 / (x1 + y)^6 with coeff near 1901470
        d = unrestricted_predictive(self.problem())
        y = 23.0
        coeff = d.pdf(y) * (X1_TABLE + y) ** 6 / y**2
        assert coeff == pytest.approx(1901470.0, rel=5e-3)

    def test_mode_closed_form(self):
        d = unrestricted_predictive(self.problem())
        row = predictive_summaries(d)
        assert row.mode == pytest.approx(X1_TABLE * 2.0 / 4.0, abs=1e-3)

    def test_untruncated_mean(self):
        d = unrestricted_predictive(self.problem(window=(0.0, np.inf)))
        mean, _ = integrate.quad(lambda y: y * d.pdf(y), 0, np.inf, epsrel=1e-10, limit=300)
        assert mean == pytest.approx(X1_TABLE * 3.0 / 2.0, rel=1e-8)

    def test_rejects_small_shape(self):
        with pytest.raises(InvalidShapeError):
            SufficientStat(x=10.0, r=1.0)
        with pytest.raises(InvalidShapeError):
            predictive_pdf_from_marginal(1.0, 10.0, 1.0, 3.0)


class TestRestricted:
    def problem(self, x1=X1_TABLE, x2=X2_TABLE, r1=3.0, r2=3.0, rp=3.0, window=(0.0, 60.0)):
        return PredictionProblem(
            obs_a=SufficientStat(x=x1, r=r1),
            obs_b=SufficientStat(x=x2, r=r2),
            r_prime=rp,
            window=window,
        )

    def test_requires_rival_statistic(self):
        with pytest.raises(DomainError):
            restricted_predictive(
                PredictionProblem(obs_a=SufficientStat(x=X1_TABLE, r=3.0))
            )

    def test_normalization_over_parameter_grid(self):
        for r1 in (2.0, 3.0, 5.0):
            for r2 in (2.0, 3.0, 5.0):
                for rp in (1.0, 3.0):
                    for ratio in (0.25, 1.0, 4.0):
                        p = self.problem(x1=30.0, x2=30.0 / ratio, r1=r1, r2=r2, rp=rp)
                        d = restricted_predictive(p)
                        total, _ = integrate.quad(d.pdf, 0, 60, epsabs=0, epsrel=1e-9, limit=200)
                        assert total == pytest.approx(1.0, abs=1e-6), (r1, r2, rp, ratio)

    def test_untruncated_density_is_proper(self):
        p = self.problem(window=(0.0, np.inf))
        d = restricted_predictive(p)
        assert d.mass == pytest.approx(1.0, abs=1e-7)

    def test_weighted_beta_prime_form_agrees(self):
        ys = np.linspace(0.2, 150.0, 120)
        got = log_restricted_base(ys, X1_TABLE, X2_TABLE, 3.0, 3.0, 3.0)
        want = weighted_beta_prime_logpdf(ys, X1_TABLE, X2_TABLE, 3.0, 3.0, 3.0)
        np.testing.assert_allclose(got, want, rtol=1e-11)
        got2 = log_restricted_base(ys, 12.0, 44.0, 4.5, 2.5, 1.5)
        want2 = weighted_beta_prime_logpdf(ys, 12.0, 44.0, 4.5, 2.5, 1.5)
        np.testing.assert_allclose(got2, want2, rtol=1e-11)

    @given(
        r1=st.floats(1.05, 150.0),
        r2=st.one_of(st.integers(2, 150).map(float), st.floats(1.05, 150.0)),
        rp=st.floats(0.3, 150.0),
        log_x1=st.floats(-2.0, 4.0),
        log_x2=st.floats(-2.0, 4.0),
        log_y=st.floats(-2.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_beta_prime_form_over_domain(self, r1, r2, rp, log_x1, log_x2, log_y):
        # oracle: the weighted-beta-prime form of the module docstring in
        # mpmath at 50 digits, over integer and non-integer r2
        x1, x2, y = 10.0**log_x1, 10.0**log_x2, 10.0**log_y
        with mp.workdps(50):
            m_r1, m_r2, m_rp, m_x1, m_x2, m_y = map(mp.mpf, (r1, r2, rp, x1, x2, y))
            want = float(
                mp.log(m_r1)
                + mp.loggamma(m_rp + m_r1 + m_r2)
                - m_rp * mp.log(m_x2)
                + (m_rp - 1) * mp.log(m_y)
                + mp.log(mp.hyp2f1(m_rp + m_r1, m_rp + m_r1 + m_r2, m_rp + m_r1 + 1, -(m_x1 + m_y) / m_x2))
                - mp.log(m_rp + m_r1)
                - mp.loggamma(m_rp)
                - mp.loggamma(m_r1 + m_r2)
                - mp.log(mp.hyp2f1(m_r1, m_r1 + m_r2, m_r1 + 1, -m_x1 / m_x2))
            )
        got = log_restricted_base(y, x1, x2, r1, r2, rp)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (r1, r2, rp, x1, x2, y)

    def test_quadrature_backend_agrees_with_closed_form(self):
        p = self.problem()
        d_closed = restricted_predictive(p)
        d_quad = restricted_predictive_quadrature(p)
        ys = np.linspace(0.1, 59.9, 600)
        np.testing.assert_allclose(d_quad.pdf(ys), d_closed.pdf(ys), rtol=1e-6)

    def test_brute_force_posterior_oracle(self):
        # full 2-D integration of prior x likelihood over {lam2 <= lam1}
        def gam(x, r, lam):
            return x ** (r - 1) * math.exp(-x / lam) / (math.gamma(r) * lam**r)

        def brute(y, x1, x2, r1, r2, rp):
            def num(l1):
                inner, _ = integrate.quad(lambda l2: gam(x2, r2, l2) / l2, 0, l1, epsrel=1e-10)
                return gam(y, rp, l1) * gam(x1, r1, l1) / l1 * inner

            def den(l1):
                inner, _ = integrate.quad(lambda l2: gam(x2, r2, l2) / l2, 0, l1, epsrel=1e-10)
                return gam(x1, r1, l1) / l1 * inner

            a, _ = integrate.quad(num, 0, np.inf, epsrel=1e-9, limit=200)
            b, _ = integrate.quad(den, 0, np.inf, epsrel=1e-9, limit=200)
            return a / b

        for (x1, x2, y) in [(X1_TABLE, X2_TABLE, 20.0), (10.0, 40.0, 5.0), (40.0, 10.0, 45.0)]:
            got = math.exp(log_restricted_base(y, x1, x2, 3.0, 3.0, 3.0))
            assert got == pytest.approx(brute(y, x1, x2, 3, 3, 3), rel=1e-8)

    def test_vanishing_rival_statistic_limit(self):
        # x2 -> 0 removes the information in the ordering: q1 -> q0
        p1 = self.problem(x2=X1_TABLE * 1e-3)
        d1 = restricted_predictive(p1)
        d0 = unrestricted_predictive(
            PredictionProblem(obs_a=p1.obs_a, r_prime=3.0, window=p1.window)
        )
        ys = np.linspace(0.05, 59.95, 600)
        assert np.max(np.abs(d1.pdf(ys) - d0.pdf(ys))) < 1e-3

    def test_scale_equivariance(self):
        ys = np.linspace(0.5, 55.0, 25)
        base = np.exp(log_restricted_base(ys, X1_TABLE, X2_TABLE, 3.0, 3.0, 3.0))
        base0 = np.exp(log_unrestricted_base(ys, X1_TABLE, 3.0, 3.0))
        for c in (0.1, 10.0):
            scaled = np.exp(log_restricted_base(c * ys, c * X1_TABLE, c * X2_TABLE, 3.0, 3.0, 3.0))
            np.testing.assert_allclose(scaled, base / c, rtol=1e-10)
            scaled0 = np.exp(log_unrestricted_base(c * ys, c * X1_TABLE, 3.0, 3.0))
            np.testing.assert_allclose(scaled0, base0 / c, rtol=1e-12)

    @pytest.mark.parametrize("r2", [3.0, 2.5])
    def test_denominator_computed_once_per_density(self, monkeypatch, r2):
        # I_{x1/(x1+x2)}(r1, r2) depends only on the problem: the build
        # computes it, and no grid, pdf or cdf evaluation repeats it
        real = pred.log_betainc
        calls = []

        def counting(a, b, x):
            calls.append(a)
            return real(a, b, x)

        monkeypatch.setattr(pred, "log_betainc", counting)
        d = restricted_predictive(self.problem(r2=r2))
        predictive_summaries(d)
        d.pdf(0.1 * (np.arange(600) + 0.5))
        d.cdf(np.array([5.0, 30.0, 59.0]))
        d.cdf(12.5)
        assert calls.count(3.0) == 1
        assert len(calls) > 10

    def test_rejects_small_shapes(self):
        with pytest.raises(InvalidShapeError):
            log_restricted_base(1.0, 10.0, 10.0, 1.0 + 1e-12, 3.0, 3.0)
        with pytest.raises(InvalidShapeError):
            log_restricted_base(1.0, 10.0, 10.0, 3.0, 1.0, 3.0)


class TestSummaries:
    def test_table_row_unrestricted(self):
        p = PredictionProblem(obs_a=SufficientStat(x=X1_TABLE, r=3.0), r_prime=3.0)
        row = predictive_summaries(unrestricted_predictive(p))
        assert row.mode == pytest.approx(17.92, abs=0.05)
        assert row.mean == pytest.approx(28.35, abs=0.1)
        assert row.p20 == pytest.approx(14.38, abs=0.1)
        assert row.p50 == pytest.approx(26.62, abs=0.1)
        assert row.p90 == pytest.approx(50.3, abs=0.1)

    def test_table_row_restricted_raw_rival_mean(self):
        p = PredictionProblem(
            obs_a=SufficientStat(x=X1_TABLE, r=3.0),
            obs_b=SufficientStat(x=X2_TABLE, r=3.0),
            r_prime=3.0,
        )
        row = predictive_summaries(restricted_predictive(p))
        for got, want in zip(row.as_tuple(), (28.13, 33.12, 19.06, 32.82, 53.48)):
            assert got == pytest.approx(want, abs=1.5)

    def test_monotone_decreasing_for_unit_future_shape(self):
        p = PredictionProblem(obs_a=SufficientStat(x=X1_TABLE, r=3.0), r_prime=1.0)
        d = unrestricted_predictive(p)
        ys = np.linspace(0.01, 59.9, 300)
        assert np.all(np.diff(d.pdf(ys)) < 0)
        assert predictive_summaries(d).mode == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize(
        "x1, rp, window",
        [
            (X1_TABLE, 0.5, (0.0, 60.0)),
            (X1_TABLE, 0.5, (0.0, np.inf)),
            (X1_TABLE, 0.5, (5.0, 60.0)),
            (X1_TABLE, 1.0, (0.0, 60.0)),
            (X1_TABLE, 1.0, (0.0, np.inf)),
            (1e9, 3.0, (0.0, 60.0)),
        ],
    )
    def test_mode_at_a_window_edge_is_the_edge(self, x1, rp, window):
        # the beta prime mode (r'-1) x1 / (r1+1), clipped to the window,
        # exactly: at r' < 1 the density is unbounded at y = 0, at r' = 1 it
        # decreases from there, and at x1 = 1e9 it increases across (0, 60)
        lo, hi = window
        p = PredictionProblem(obs_a=SufficientStat(x=x1, r=3.0), r_prime=rp, window=window)
        mode = predictive_summaries(unrestricted_predictive(p)).mode
        assert mode == np.clip((rp - 1.0) * x1 / 4.0, lo, hi)

    @pytest.mark.parametrize("window", [(0.0, 60.0), (0.0, np.inf)])
    def test_modes_against_oracles(self, window):
        # q0: the beta prime mode (r'-1) x1 / (r1+1); q1: the root of the
        # score d/dy log q1 of the weighted-beta-prime form, in mpmath
        p = PredictionProblem(
            obs_a=SufficientStat(x=X1_TABLE, r=3.0),
            obs_b=SufficientStat(x=X2_TABLE, r=3.0),
            r_prime=3.0,
            window=window,
        )
        with mp.workdps(30):
            # log q1 = 2 log y + log 2F1(6, 9; 7; z) + const, z = -(x1 + y)/x2,
            # and d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z)
            def score(y):
                z = -(X1_TABLE + y) / X2_TABLE
                return 2 / y - mp.mpf(54) / 7 * mp.hyp2f1(7, 10, 8, z) / (mp.hyp2f1(6, 9, 7, z) * X2_TABLE)

            q1_mode = float(mp.findroot(score, 28.0))
        assert predictive_summaries(unrestricted_predictive(p)).mode == pytest.approx(
            2.0 * X1_TABLE / 4.0, abs=1e-6
        )
        assert predictive_summaries(restricted_predictive(p)).mode == pytest.approx(q1_mode, abs=1e-6)


WINDOWS = st.one_of(
    st.just((0.0, 60.0)),
    st.floats(0.01, 59.0).map(lambda lo: (lo, 60.0)),
    st.just((0.0, np.inf)),
)
LOG_STAT = st.floats(-2.0, 4.0)


class TestGridCoreOverDomain:
    """Window mass, mean and quantiles of the window grid across the domain,
    including the endpoint singularity y^(r'-1) at r' < 1."""

    @given(r1=st.floats(1.5, 6.0), rp=st.floats(0.5, 6.0), log_x1=LOG_STAT, window=WINDOWS)
    @settings(max_examples=150, deadline=None)
    def test_unrestricted_against_incomplete_beta(self, r1, rp, log_x1, window):
        # B'(r', r1, x1) puts I_u(r', r1) below y, u = (y/x1)/(1 + y/x1); the
        # mass above y, I_{1-u}(r1, r'), keeps upper windows free of cancellation
        x1 = 10.0**log_x1
        lo, hi = window

        def below(y):
            return 1.0 if np.isinf(y) else special.betainc(rp, r1, (y / x1) / (1.0 + y / x1))

        def above(y):
            return 0.0 if np.isinf(y) else special.betainc(r1, rp, x1 / (x1 + y))

        def between(a, b):
            return below(b) - below(a) if below(a) < 0.5 else above(a) - above(b)

        d = unrestricted_predictive(
            PredictionProblem(obs_a=SufficientStat(x=x1, r=r1), r_prime=rp, window=window)
        )
        mass = between(lo, hi)
        assert d.mass == pytest.approx(mass, rel=1e-11)
        s = summarize(d)
        for prob, q in s.quantiles.items():
            assert abs(between(lo, q) / mass - prob) <= 1e-10, (prob, q)

    @given(
        r1=st.floats(1.5, 6.0),
        r2=st.floats(1.5, 6.0),
        rp=st.floats(0.5, 6.0),
        log_x1=LOG_STAT,
        log_x2=LOG_STAT,
        window=WINDOWS,
    )
    @settings(max_examples=30, deadline=None)
    # a draw whose heavy tail made the oracle's quadrature in y warn
    @example(r1=2.0, r2=2.0, rp=1.0, log_x1=0.0, log_x2=0.0, window=(0.0, np.inf))
    def test_restricted_against_quadrature(self, r1, r2, rp, log_x1, log_x2, window):
        x1, x2 = 10.0**log_x1, 10.0**log_x2
        lo, hi = window

        def base(y):
            return np.exp(log_restricted_base(y, x1, x2, r1, r2, rp))

        d = restricted_predictive(
            PredictionProblem(
                obs_a=SufficientStat(x=x1, r=r1),
                obs_b=SufficientStat(x=x2, r=r2),
                r_prime=rp,
                window=window,
            )
        )
        mass = window_mass_quad(base, lo, hi)
        assert d.mass == pytest.approx(mass, rel=1e-10)
        s = summarize(d)
        assert s.mean == pytest.approx(window_mean_quad(base, lo, hi), rel=1e-10)
        for prob, q in s.quantiles.items():
            assert abs(window_mass_quad(base, lo, q) / mass - prob) <= 1e-10, (prob, q)
