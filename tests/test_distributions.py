import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from goaltime.distributions import (
    GammaModel,
    GeneralizedBetaPrime,
    InverseGammaModel,
    gamma_pdf,
    gb_prime_pdf,
    inverse_gamma_cdf,
    inverse_gamma_pdf,
    summarize,
    truncate,
)
from goaltime.errors import DegenerateWindowError, DomainError


class TestGammaPdf:
    def test_exponential_case(self):
        assert gamma_pdf(GammaModel(1.0, 1.0), 0.5) == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_log_space_matches_direct_formula(self):
        m = GammaModel(3.0, 18.3)
        x = 35.8
        direct = x ** (m.shape - 1) * math.exp(-x / m.scale) / (math.gamma(m.shape) * m.scale**m.shape)
        assert gamma_pdf(m, x) == pytest.approx(direct, rel=1e-13)

    def test_zero_outside_support(self):
        m = GammaModel(2.0, 2.0)
        assert gamma_pdf(m, 0.0) == 0.0
        assert gamma_pdf(m, -1.0) == 0.0
        assert gamma_pdf(m, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            GammaModel(0.0, 1.0)
        with pytest.raises(DomainError):
            GammaModel(1.0, -2.0)


class TestInverseGamma:
    def test_pdf_trivial(self):
        assert inverse_gamma_pdf(InverseGammaModel(1.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_pdf_direct_formula(self):
        m = InverseGammaModel(2.0, 3.0)
        t = 1.5
        direct = m.b**m.a / math.gamma(m.a) * t ** (-m.a - 1) * math.exp(-m.b / t)
        assert inverse_gamma_pdf(m, t) == pytest.approx(direct, rel=1e-13)

    def test_pdf_vanishes_at_origin(self):
        assert inverse_gamma_pdf(InverseGammaModel(2.0, 3.0), 1e-9) == 0.0

    def test_cdf_trivial(self):
        assert inverse_gamma_cdf(InverseGammaModel(1.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        assert inverse_gamma_cdf(InverseGammaModel(2.0, 5.0), 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_pdf_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = InverseGammaModel(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
            t = rng.uniform(0.2, 8)
            want, _ = integrate.quad(lambda u: inverse_gamma_pdf(m, u), 0, t, epsrel=1e-11)
            assert inverse_gamma_cdf(m, t) == pytest.approx(want, abs=1e-8)

    def test_cdf_monotone(self):
        m = InverseGammaModel(2.5, 4.0)
        ts = np.linspace(0.05, 20, 200)
        assert np.all(np.diff(inverse_gamma_cdf(m, ts)) >= 0)

    def test_reciprocal_of_gamma_is_inverse_gamma(self):
        # if T ~ Gam(r, lam) then 1/T ~ IG(r, 1/lam): KS distance below 0.01
        r, lam = 2.5, 3.0
        rng = np.random.default_rng(7)
        draws = 1.0 / rng.gamma(r, lam, size=100_000)
        ks = stats.kstest(draws, lambda t: inverse_gamma_cdf(InverseGammaModel(r, 1.0 / lam), t))
        assert ks.statistic < 0.01


class TestGeneralizedBetaPrime:
    def test_classical_point(self):
        assert gb_prime_pdf(GeneralizedBetaPrime(1.0, 1.0), 1.0) == pytest.approx(0.25, rel=1e-13)

    def test_gamma2_at_sigma(self):
        a, b, sigma, g = 2.0, 3.5, 4.0, 2.0
        m = GeneralizedBetaPrime(a, b, gamma_shape=g, sigma=sigma)
        want = g / (special.beta(a, b) * sigma * 2.0 ** (a + b))
        assert gb_prime_pdf(m, sigma) == pytest.approx(want, rel=1e-12)

    def test_mode_is_stationary(self):
        # B'(3, 3, sigma) has mode sigma*(a-1)/(b+1); check by finite differences
        m = GeneralizedBetaPrime(3.0, 3.0, sigma=35.85)
        t0 = 35.85 * 2.0 / 4.0
        h = 1e-5
        deriv = (gb_prime_pdf(m, t0 + h) - gb_prime_pdf(m, t0 - h)) / (2 * h)
        assert abs(deriv) < 1e-9
        assert gb_prime_pdf(m, t0) > gb_prime_pdf(m, t0 + 1.0)
        assert gb_prime_pdf(m, t0) > gb_prime_pdf(m, t0 - 1.0)

    @given(
        a=st.floats(0.8, 5),
        b=st.floats(0.8, 5),
        g=st.floats(0.8, 3),
        sigma=st.floats(0.1, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_integrates_to_one(self, a, b, g, sigma):
        m = GeneralizedBetaPrime(a, b, gamma_shape=g, sigma=sigma)
        lo, _ = integrate.quad(lambda t: gb_prime_pdf(m, t), 0, sigma, epsrel=1e-10, limit=300)
        hi, _ = integrate.quad(lambda t: gb_prime_pdf(m, t), sigma, np.inf, epsrel=1e-10, limit=300)
        assert lo + hi == pytest.approx(1.0, abs=1e-6)


class TestTruncate:
    def test_window_mass_matches_incomplete_beta(self):
        base = GeneralizedBetaPrime(3.0, 3.0, sigma=35.85)
        d = truncate(lambda y: gb_prime_pdf(base, y), 0.0, 60.0)
        u = (60 / 35.85) / (1 + 60 / 35.85)
        assert d.mass == pytest.approx(special.betainc(3.0, 3.0, u), rel=1e-8)
        assert d.mass == pytest.approx(0.7264, abs=5e-4)

    def test_full_support_mass_is_one(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(2.0, 5.0), y), 0.0, np.inf)
        assert d.mass == pytest.approx(1.0, rel=1e-8)

    def test_expected_value_of_truncated_gamma(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        s = summarize(d)
        assert s.mean == pytest.approx(35.8, abs=0.05)

    def test_pdf_normalized_and_zero_outside(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        total, _ = integrate.quad(d.pdf, 0, 60, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert d.pdf(61.0) == 0.0
        assert d.pdf(-1.0) == 0.0

    def test_small_window_mass_is_kept(self):
        # about 4e-25, far below any fixed floor, yet resolved to full precision
        d = truncate(lambda y: gamma_pdf(GammaModel(2.0, 1.0), y), 60.0, 80.0)
        want = special.gammaincc(2.0, 60.0) - special.gammaincc(2.0, 80.0)
        assert d.mass == pytest.approx(want, rel=1e-12)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindowError):
            truncate(lambda y: gamma_pdf(GammaModel(2.0, 1.0), y), 1e6, 2e6)
        with pytest.raises(DomainError):
            truncate(lambda y: gamma_pdf(GammaModel(2.0, 1.0), y), 10.0, 10.0)


class TestSummarize:
    def test_symmetric_density_median(self):
        # triangle on (0, 60) centered at 30
        tri = lambda y: np.where((y > 0) & (y < 60), 30.0 - np.abs(np.asarray(y) - 30.0), 0.0)
        d = truncate(tri, 0.0, 60.0)
        s = summarize(d, probs=(0.5,))
        assert s.quantiles[0.5] == pytest.approx(30.0, abs=1e-6)
        assert s.mode == pytest.approx(30.0, abs=1e-4)
        assert s.mean == pytest.approx(30.0, abs=1e-8)

    def test_quantiles_monotone_and_invert_cdf(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        probs = (0.1, 0.2, 0.5, 0.9)
        s = summarize(d, probs=probs)
        qs = [s.quantiles[p] for p in probs]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        for p, q in zip(probs, qs):
            assert d.cdf(q) == pytest.approx(p, abs=1e-6)

    def test_decreasing_density_mode_at_edge(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(1.0, 10.0), y), 0.0, 60.0)
        assert summarize(d).mode == pytest.approx(0.0, abs=1e-4)

    def test_infinite_window(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 5.0), y), 0.0, np.inf)
        s = summarize(d, probs=(0.5,))
        assert s.mean == pytest.approx(15.0, rel=1e-6)
        assert s.mode == pytest.approx(10.0, abs=1e-3)
        assert s.quantiles[0.5] == pytest.approx(stats.gamma.ppf(0.5, 3.0, scale=5.0), abs=1e-5)


class TestPdfContract:
    @given(shape=st.floats(0.5, 8), scale=st.floats(0.5, 30))
    @settings(max_examples=25, deadline=None)
    def test_gamma_integrates_to_one(self, shape, scale):
        m = GammaModel(shape, scale)
        total, _ = integrate.quad(lambda y: gamma_pdf(m, y), 0, np.inf, epsrel=1e-9, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    @given(a=st.floats(0.6, 6), b=st.floats(0.3, 6))
    @settings(max_examples=25, deadline=None)
    def test_inverse_gamma_integrates_to_one(self, a, b):
        m = InverseGammaModel(a, b)
        total, _ = integrate.quad(lambda t: inverse_gamma_pdf(m, t), 0, np.inf, epsrel=1e-9, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_everywhere(self):
        ys = np.linspace(-5, 100, 400)
        assert np.all(gamma_pdf(GammaModel(2.5, 7.0), ys) >= 0)
        assert np.all(inverse_gamma_pdf(InverseGammaModel(2.0, 2.0), ys) >= 0)
        assert np.all(gb_prime_pdf(GeneralizedBetaPrime(2.0, 3.0, sigma=4.0), ys) >= 0)
