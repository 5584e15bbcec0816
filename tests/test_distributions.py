import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from goaltime import cli
from goaltime import distributions as dist
from goaltime.distributions import GammaModel, gamma_pdf, summarize, truncate
from goaltime.errors import ConvergenceError, DegenerateWindowError, DomainError, InvalidShapeError
from goaltime.ingest import canadiens_fixture_path, parse_game_log, reduce_to_stat, toronto_fixture_path
from goaltime.predictive import (
    PredictionProblem,
    SufficientStat,
    log_unrestricted_base,
    restricted_predictive,
    unrestricted_predictive,
)

from oracles import panel_edges_concatenated

PROBS = np.array([0.2, 0.5, 0.9])


def beta_prime_pdf(a, b, sigma, t):
    """The package's beta prime B'(a, b, sigma) density at t."""
    return np.exp(log_unrestricted_base(t, sigma, b, a))


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


class TestGeneralizedBetaPrime:
    """The beta prime B'(a, b, sigma) of ``predictive.log_unrestricted_base``,
    the generalized beta prime at exponent 1, against scipy's ``betaprime``."""

    def test_classical_point(self):
        assert beta_prime_pdf(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-13)

    @given(
        a=st.floats(0.3, 200.0),
        b=st.floats(0.3, 200.0),
        log_sigma=st.floats(-2.0, 4.0),
        log_ratio=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_scipy_betaprime(self, a, b, log_sigma, log_ratio):
        sigma = 10.0**log_sigma
        t = sigma * 10.0**log_ratio
        want = stats.betaprime.logpdf(t, a, b, scale=sigma)
        assert log_unrestricted_base(t, sigma, b, a) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_mode_is_stationary(self):
        # B'(3, 3, sigma) has mode sigma*(a-1)/(b+1); check by finite differences
        t0 = 35.85 * 2.0 / 4.0
        h = 1e-5
        pdf = lambda t: beta_prime_pdf(3.0, 3.0, 35.85, t)
        deriv = (pdf(t0 + h) - pdf(t0 - h)) / (2 * h)
        assert abs(deriv) < 1e-9
        assert pdf(t0) > pdf(t0 + 1.0)
        assert pdf(t0) > pdf(t0 - 1.0)

    @given(a=st.floats(0.8, 5), b=st.floats(0.8, 5), sigma=st.floats(0.1, 50))
    @settings(max_examples=25, deadline=None)
    def test_integrates_to_one(self, a, b, sigma):
        pdf = lambda t: beta_prime_pdf(a, b, sigma, t)
        lo, _ = integrate.quad(pdf, 0, sigma, epsrel=1e-10, limit=300)
        hi, _ = integrate.quad(pdf, sigma, np.inf, epsrel=1e-10, limit=300)
        assert lo + hi == pytest.approx(1.0, abs=1e-6)

    def test_minus_inf_off_the_support(self):
        # also at y = 0, where y^(a-1) is unbounded for a < 1
        got = log_unrestricted_base(np.array([-3.0, 0.0]), 10.0, 3.0, 0.5)
        assert np.all(got == -np.inf)

    def test_broadcasts_over_y_and_x1(self):
        y = np.array([[0.5, 20.0, 90.0]])
        x1 = np.array([[5.0], [40.0]])
        got = log_unrestricted_base(y, x1, 2.5, 1.5)
        want = stats.betaprime.logpdf(y, 1.5, 2.5, scale=x1)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize(
        "r1, r_prime", [(0.0, 3.0), (-1.0, 3.0), (np.inf, 3.0), (np.nan, 3.0), (3.0, 0.0), (3.0, -2.0), (3.0, np.inf)]
    )
    def test_shape_not_positive_and_finite(self, r1, r_prime):
        # one precise error, not math.lgamma's "math domain error" or a nan
        with pytest.raises(InvalidShapeError):
            log_unrestricted_base(np.array([1.0, 2.0]), 10.0, r1, r_prime)

    @pytest.mark.parametrize("x1", [0.0, -1.0, np.array([[5.0], [0.0]])])
    def test_statistic_not_positive(self, x1):
        # as log_restricted_base: a DomainError, not a nan with RuntimeWarnings
        with pytest.raises(DomainError):
            log_unrestricted_base(np.array([1.0, 2.0]), x1, 3.0, 3.0)


class TestGaussJacobi:
    @pytest.mark.parametrize("r_prime", [0.01, 0.3, 1.0, 5.0])
    def test_moments_against_beta_function(self, r_prime):
        # on [0, 1], with y = (1+x)/2, the rule of the weight y^(r'-1)
        # integrates y^(r'-1) y^k to B(r'+k, 1) = 1/(r'+k) for every k < 2n
        x, log_w = dist._gauss_jacobi(16, r_prime - 1.0)
        w = np.exp(log_w) / 2.0**r_prime
        y = 0.5 * (1.0 + x)
        for k in range(32):
            want = math.exp(special.betaln(r_prime + k, 1.0))
            assert w @ y**k == pytest.approx(want, rel=5e-14), k

    def test_large_exponent_stays_finite(self):
        # the total mass 2^(beta+1)/(beta+1) overflows a double here; the
        # log weights do not
        x, log_w = dist._gauss_jacobi(16, 4999.0)
        assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
        assert np.all(np.isfinite(log_w))


def test_rule_is_leggauss_to_the_bit():
    # the literal table stands in for numpy.polynomial at import
    x, w = np.polynomial.legendre.leggauss(dist._GL_ORDER)
    assert np.array_equal(dist._GL_X, x) and np.array_equal(dist._GL_W, w)


class TestIntegrationMatrix:
    def test_integrates_monomials(self):
        # row j integrates the interpolant from -1 to node j, so it is exact
        # for x^k, k below the node count
        x = dist._GL_X
        for k in range(dist._GL_ORDER):
            want = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            np.testing.assert_allclose(dist._GL_CUM @ x**k, want, rtol=0, atol=1e-15, err_msg=str(k))

    def test_node_cum_matches_cdf(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        g = d.grid
        np.testing.assert_allclose(g.node_cum / d.mass, d.cdf(g.y.ravel()), rtol=0, atol=1e-14)


class TestTruncate:
    def test_window_mass_matches_incomplete_beta(self):
        d = truncate(lambda y: beta_prime_pdf(3.0, 3.0, 35.85, y), 0.0, 60.0)
        assert d.mass == pytest.approx(stats.betaprime.cdf(60.0, 3.0, 3.0, scale=35.85), rel=1e-8)
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

    @pytest.mark.parametrize("window", [(0.0, 60.0), (0.0, np.inf), (5.0, 45.0), (30.0, 60.0), (2.0, np.inf)])
    def test_grid_nodes_distinct_and_inside(self, window):
        # a node on lo, where pdf is 0, or two equal nodes would sample the
        # density for nothing
        lo, hi = window
        y = truncate(lambda v: gamma_pdf(GammaModel(3.0, 18.3), v), lo, hi).grid.y.ravel()
        assert np.all((y > lo) & (y < hi))
        assert np.unique(y).size == y.size

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindowError):
            truncate(lambda y: gamma_pdf(GammaModel(2.0, 1.0), y), 1e6, 2e6)
        with pytest.raises(DomainError):
            truncate(lambda y: gamma_pdf(GammaModel(2.0, 1.0), y), 10.0, 10.0)


def _same_edges(base, lo, hi):
    got, got_bulk = dist._panel_edges(base, lo, hi)
    want, want_bulk = panel_edges_concatenated(base, lo, hi)
    assert np.array_equal(got, want), (lo, hi)
    assert got_bulk == want_bulk
    return got


class TestPanelEdges:
    """The edge table ``lo + h * _EDGE_STEPS`` against the edges built
    piece by piece (``oracles.panel_edges_concatenated``), bit for bit."""

    @pytest.mark.parametrize(
        "window, graded",
        [
            ((0.0, 60.0), 60),
            ((0.0, 1e-3), 60),
            ((0.0, 1e-300), 31),  # subnormal graded panels are dropped at lo = 0 too
            ((5.0, 45.0), 20),
            ((59.99999, 60.0), 8),
            ((1.0, 1.0 + 2e-12), 0),
            ((1e300, 1.5e300), 18),
        ],
    )
    def test_finite_windows(self, window, graded):
        edges = _same_edges(None, *window)
        assert edges.size == 1 + graded + 16
        assert edges[0] == window[0] and edges[-1] == window[1]

    @given(
        lo_exp=st.one_of(st.just(None), st.floats(-320.0, 300.0)),
        width_exp=st.floats(-310.0, 300.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_windows_over_the_double_range(self, lo_exp, width_exp):
        lo = 0.0 if lo_exp is None else 10.0**lo_exp
        hi = lo + 10.0**width_exp * max(lo, 1.0)
        if lo < hi < np.inf:
            _same_edges(None, lo, hi)

    @pytest.mark.parametrize("lo", [0.0, 1e-3, 5.0])
    @pytest.mark.parametrize(
        "r_prime, r1, x1", [(3.0, 3.0, 35.85), (0.3, 1.5, 2.0), (80.0, 50.0, 100.0), (0.05, 2.0, 1e6), (3.0, 3.0, 0.5)]
    )
    def test_infinite_windows(self, lo, r_prime, r1, x1):
        _same_edges(lambda y: beta_prime_pdf(r_prime, r1, x1, y), lo, np.inf)
        _same_edges(lambda y: gamma_pdf(GammaModel(r_prime, x1), y), lo, np.inf)


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

    def test_mode_beside_a_density_of_zero(self):
        # the density rises to a cliff at 30.3 and is 0 past it, so the
        # parabola through the log density at the argmax node and its
        # neighbours is infinitely curved: the mode is that node, and no
        # stencil of width 0 is evaluated
        d = truncate(lambda y: np.where(y < 30.3, np.exp(np.asarray(y) / 10.0), 0.0), 0.0, 60.0)
        nodes = d.grid.y.ravel()
        counted, calls = counting(d)
        with np.errstate(divide="ignore"):
            assert dist._mode(counted) == nodes[nodes < 30.3][-1]
        assert calls == []

    def test_one_level_and_nested_levels(self):
        # a 0-d level is one level; levels in more than one dimension are a
        # DomainError, not a TypeError from the quantile lanes
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        one = summarize(d, 0.5)
        assert one == summarize(d, [0.5]) == summarize(d, np.float64(0.5))
        assert list(one.quantiles) == [0.5]
        for probs in (1.5, [[0.2, 0.5]], np.full((1, 1), 0.5)):
            with pytest.raises(DomainError):
                summarize(d, probs)

    def test_infinite_window(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 5.0), y), 0.0, np.inf)
        s = summarize(d, probs=(0.5,))
        assert s.mean == pytest.approx(15.0, rel=1e-6)
        assert s.mode == pytest.approx(10.0, abs=1e-3)
        assert s.quantiles[0.5] == pytest.approx(stats.gamma.ppf(0.5, 3.0, scale=5.0), abs=1e-5)


def counting(d):
    """``d`` with its density wrapped to record each call, and the record."""
    calls = []

    def base(y):
        calls.append(np.shape(y))
        return d.base(y)

    return dataclasses.replace(d, base=base), calls


class TestQuantileNewton:
    """The CDF inversion: one density call per Newton step, and a lane that
    has reached its root stays there instead of bisecting away."""

    # a lane that reached its root at step 3 used to bisect a stale bracket
    # for 40 more steps, two density calls each: 90 calls for three levels
    STALE_BRACKET = dict(x1=35.8482, x2=50.0, r1=2.0, r2=2.0, rp=3.0)
    # the most calls measured on these densities since a set ends once
    # Newton's predicted error is below rounding (2 before, 6 before each
    # level started from the node-level CDF); a set always makes one
    MAX_CALLS = 1
    # the most steps seen over 24000 seeded densities of the domain below
    # is 10 (three times) since each level starts from the node-level CDF;
    # it was 13 from a linear start, 54 before a converged lane stayed put
    MAX_STEPS = 13

    @staticmethod
    def q1(x1, x2, r1, r2, rp, window=(0.0, 60.0)):
        return restricted_predictive(
            PredictionProblem(
                obs_a=SufficientStat(x=x1, r=r1), obs_b=SufficientStat(x=x2, r=r2), r_prime=rp, window=window
            )
        )

    def assert_few_calls(self, d):
        counted, calls = counting(d)
        q, _ = dist._quantiles(counted, PROBS)
        assert len(calls) <= self.MAX_CALLS, calls
        # each step samples every lane's iterate beside its partial panel's nodes
        assert set(calls) == {(PROBS.size, dist._GL_ORDER + 1)}
        np.testing.assert_allclose(d.cdf(q), PROBS, rtol=0, atol=1e-14)

    def test_converged_lane_stays_put(self):
        self.assert_few_calls(self.q1(**self.STALE_BRACKET))

    @pytest.mark.parametrize("window", [(0.0, 60.0), (5.0, 45.0)])
    def test_bundled_fixture(self, window):
        # one call per set: the first Newton iterate's predicted error is
        # below rounding in every lane
        problem = TestModeCalls.fixture_problem(window=window)
        self.assert_few_calls(unrestricted_predictive(problem))
        self.assert_few_calls(restricted_predictive(problem))

    @given(
        r1=st.floats(1.5, 6.0),
        r2=st.floats(1.5, 6.0),
        rp=st.floats(0.5, 6.0),
        log_x1=st.floats(-2.0, 4.0),
        log_x2=st.floats(-2.0, 4.0),
        lo=st.one_of(st.just(0.0), st.floats(0.01, 59.0)),
        hi=st.sampled_from([60.0, np.inf]),
        restricted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_steps_bounded_over_domain(self, r1, r2, rp, log_x1, log_x2, lo, hi, restricted):
        problem = PredictionProblem(
            obs_a=SufficientStat(x=10.0**log_x1, r=r1),
            obs_b=SufficientStat(x=10.0**log_x2, r=r2),
            r_prime=rp,
            window=(lo, hi),
        )
        d = (restricted_predictive if restricted else unrestricted_predictive)(problem)
        counted, calls = counting(d)
        q, _ = dist._quantiles(counted, PROBS)
        assert len(calls) <= self.MAX_STEPS
        assert np.all(np.abs(d.cdf(q) - PROBS) <= 1e-10), q

    # the mean density calls per _quantiles over q0 and q1 at seeded points
    # of the domain above, measured 1.73 and 3.28, plus a margin of 0.12
    # (2.37 and 3.29 before a set ended on Newton's predicted error, 4.75
    # and 6.85 from a linear start across the whole panel)
    MEAN_CALLS = {60.0: 1.85, np.inf: 3.4}

    @pytest.mark.parametrize("hi", [60.0, np.inf])
    def test_mean_calls(self, hi):
        rng = np.random.default_rng(2026)
        counts = []
        for _ in range(150):
            r1, r2, rp = rng.uniform(1.5, 6.0), rng.uniform(1.5, 6.0), rng.uniform(0.5, 6.0)
            x1, x2 = 10.0 ** rng.uniform(-2.0, 4.0, 2)
            problem = PredictionProblem(
                obs_a=SufficientStat(x=x1, r=r1), obs_b=SufficientStat(x=x2, r=r2), r_prime=rp, window=(0.0, hi)
            )
            for build in (unrestricted_predictive, restricted_predictive):
                counted, calls = counting(build(problem))
                dist._quantiles(counted, PROBS)
                counts.append(len(calls))
        assert np.mean(counts) <= self.MEAN_CALLS[hi]

    # the computed CDF jitters between neighbouring doubles: a quantile that
    # the loop ended on, here or by bisection, misses its level by up to
    # 14 eps beyond what a 4 eps step explains (seen over 12000 seeded
    # densities of this domain, before and after the one-call end alike)
    CDF_ROUNDING = 32.0 * dist._EPS

    @given(
        r1=st.floats(1.5, 6.0),
        r2=st.floats(1.5, 6.0),
        rp=st.floats(0.5, 6.0),
        log_x1=st.floats(-2.0, 4.0),
        log_x2=st.floats(-2.0, 4.0),
        hi=st.sampled_from([60.0, np.inf]),
        restricted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantiles_are_fixed_points(self, r1, r2, rp, log_x1, log_x2, hi, restricted):
        # one more Newton step from each quantile, from the public cdf and
        # pdf, stays within 4 eps of it, up to the CDF's own rounding: a set
        # that ends after one call returns what a second call would confirm
        problem = PredictionProblem(
            obs_a=SufficientStat(x=10.0**log_x1, r=r1),
            obs_b=SufficientStat(x=10.0**log_x2, r=r2),
            r_prime=rp,
            window=(0.0, hi),
        )
        d = (restricted_predictive if restricted else unrestricted_predictive)(problem)
        q, _ = dist._quantiles(d, PROBS)
        step = (d.cdf(q) - PROBS) / d.pdf(q)
        assert np.all(np.abs(step) <= 4.0 * dist._EPS * q + self.CDF_ROUNDING / d.pdf(q)), step / q

    @staticmethod
    def assert_levels_met(d, probs):
        q, _ = dist._quantiles(d, probs)
        np.testing.assert_allclose(d.cdf(q), probs, rtol=0, atol=1e-14)
        return q

    @staticmethod
    def newton_start(d, target):
        # one level's start, from the panel and node lookups _quantiles batches
        g = d.grid
        k = int(g.cum[1:-1].searchsorted(target, side="right"))
        j = int(g.node_cum.searchsorted(target, side="right"))
        return dist._newton_start(g, float(target), k, j)[:3]

    def test_level_in_an_empty_panel(self):
        # the last growth panel of gamma(3, 5) on (0, inf), [256, 1024],
        # holds no mass in doubles, and the largest level below 1 falls in it
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 5.0), y), 0.0, np.inf)
        g = d.grid
        p = np.array([1.0 - 2.0**-53])
        assert g.cum[-1] == g.cum[-2] <= p[0] * d.mass
        t, left, right = self.newton_start(d, p[0] * d.mass)
        # linear in a mass of 0: an edge of the panel
        assert left == g.edges[-2] and t in (left, right)
        self.assert_levels_met(d, p)

    def test_levels_in_the_last_growth_panel_with_mass(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 5.0), y), 0.0, np.inf)
        g = d.grid
        last = np.flatnonzero(np.diff(g.cum) > 0)[-1]
        width = np.diff(g.edges)
        assert width[last] > width[last - 1], "not a growth panel"
        target = g.cum[last] + np.array([0.25, 0.5, 0.75]) * (g.cum[last + 1] - g.cum[last])
        self.assert_levels_met(d, target / d.mass)

    def test_levels_before_a_panels_first_node(self):
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        g = d.grid
        n = dist._GL_ORDER
        # halfway in mass from a panel's lower edge to its first node: in
        # the grid's first panel, where no node lies below, and in a bulk panel
        panels = np.array([0, len(g.edges) - 9])
        target = 0.5 * (g.cum[panels] + g.node_cum[n * panels])
        for level in target.tolist():
            t, left, right = self.newton_start(d, level)
            assert left <= t <= right
        self.assert_levels_met(d, target / d.mass)

    def test_levels_in_graded_panels(self):
        # r' = 0.3: the mass piles up at 0, and the levels below about 0.1
        # fall in the panels graded toward it
        problem = PredictionProblem(
            obs_a=SufficientStat(x=50.0, r=3.0), obs_b=SufficientStat(x=50.0, r=3.0), r_prime=0.3, window=(0.0, 60.0)
        )
        d = unrestricted_predictive(problem)
        g = d.grid
        probs = 10.0 ** np.arange(-11.0, 0.0)
        graded = len(g.edges) - 1 - dist._BULK_PANELS
        assert np.sum(g.cum[1:-1].searchsorted(probs * d.mass, side="right") < graded) >= 8
        self.assert_levels_met(d, probs)

    @pytest.mark.parametrize("hi", [60.0, np.inf])
    def test_many_levels(self, hi):
        # 99 lanes share each density call; each meets its level as three do
        problem = TestModeCalls.fixture_problem(window=(0.0, hi))
        probs = np.arange(1.0, 100.0) / 100.0
        for build in (unrestricted_predictive, restricted_predictive):
            q = self.assert_levels_met(build(problem), probs)
            assert np.all(np.diff(q) > 0)

    def test_step_exhaustion_raises(self, monkeypatch, capsys):
        # with no rounding allowance no lane ends, after one call or after the
        # one step left, unless its residual is exactly 0
        d = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
        monkeypatch.setattr(dist, "_MAX_STEPS", 1)
        monkeypatch.setattr(dist, "_EPS", 0.0)
        with pytest.raises(ConvergenceError, match="Newton steps"):
            summarize(d)
        assert cli.main(["summarize"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestModeEdgeSamples:
    """The mode's two edge candidates are sampled in the build's density
    call, not in a call of their own."""

    @pytest.mark.parametrize("hi, build_calls", [(60.0, 1), (np.inf, 2)])
    def test_one_call_per_build(self, hi, build_calls):
        # the grid's own call, after the probe on an infinite window
        calls = []

        def base(y):
            calls.append(np.shape(y))
            return gamma_pdf(GammaModel(3.0, 18.3), y)

        d = truncate(base, 0.0, hi)
        assert len(calls) == build_calls
        assert calls[-1] == (d.grid.y.size + 2,)

    def test_no_call_of_two_points(self):
        a = reduce_to_stat(parse_game_log(toronto_fixture_path()), "Toronto Maple Leafs", r=3.0)
        b = reduce_to_stat(parse_game_log(canadiens_fixture_path()), "Montreal Canadiens", r=3.0)
        for window in [(0.0, 60.0), (5.0, 45.0), (0.0, np.inf)]:
            problem = PredictionProblem(obs_a=a, obs_b=b, r_prime=3.0, window=window)
            for build in (unrestricted_predictive, restricted_predictive):
                counted, calls = counting(build(problem))
                summarize(counted)
                assert (2,) not in calls

    def test_modes_as_from_a_call_of_their_own(self):
        # the edge samples, and so every mode, are bit-identical to a
        # separate call of the density at the two edge candidates, as the
        # mode search made before; over the statistics of tests/digest.py
        import digest

        for (r1, r2, rp), x1, x2 in digest._statistics():
            for window in digest.WINDOWS:
                problem = PredictionProblem(
                    obs_a=SufficientStat(x1, r1), obs_b=SufficientStat(x2, r2), r_prime=rp, window=window
                )
                for build in (unrestricted_predictive, restricted_predictive):
                    d = build(problem)
                    own = np.asarray(d.base(np.array(d.grid.ends)), dtype=float)
                    assert own.tobytes() == d.grid.f_ends.tobytes()
                    apart = dataclasses.replace(d, grid=dataclasses.replace(d.grid, f_ends=own))
                    with np.errstate(divide="ignore"):
                        assert dist._mode(apart) == dist._mode(d)


class TestModeCalls:
    """The mode starts from the window grid: on the fixture's densities, one
    density call for a mode inside a finite window and at most one (none,
    since the grid's parabola tells the edge) for a mode at a window edge.
    In a summary that one call is the quantile set's first."""

    @staticmethod
    def fixture_problem(rp=3.0, window=(0.0, 60.0), x1=None):
        a = reduce_to_stat(parse_game_log(toronto_fixture_path()), "Toronto Maple Leafs", r=3.0)
        b = reduce_to_stat(parse_game_log(canadiens_fixture_path()), "Montreal Canadiens", r=3.0)
        if x1 is not None:
            a = SufficientStat(x1, 3.0)
        return PredictionProblem(obs_a=a, obs_b=b, r_prime=rp, window=window)

    @staticmethod
    def mode_calls(d):
        counted, calls = counting(d)
        with np.errstate(divide="ignore"):
            return dist._mode(counted), calls

    # on (0, inf) the grid's nodes near the mode are 0.07 (q1) and 0.14 (q0)
    # of the density's width apart, against 0.008 to 0.02 on the finite
    # windows, so the quartic through five of them starts further out and
    # the first step is not yet below 1e-3 h
    @pytest.mark.parametrize("window, max_calls", [((0.0, 60.0), 1), ((5.0, 45.0), 1), ((0.0, np.inf), 2)])
    def test_interior_mode(self, window, max_calls):
        for build in (unrestricted_predictive, restricted_predictive):
            mode, calls = self.mode_calls(build(self.fixture_problem(window=window)))
            assert window[0] < mode < window[1]
            assert 1 <= len(calls) <= max_calls, calls
            # each call is one five-point stencil
            assert set(calls) == {(5,)}

    @pytest.mark.parametrize(
        "rp, window, x1, edge",
        [
            (0.5, (0.0, 60.0), None, 0.0),
            (0.5, (0.0, np.inf), None, 0.0),
            (0.5, (5.0, 45.0), None, 5.0),
            (1.0, (0.0, 60.0), None, 0.0),
            (3.0, (0.0, 60.0), 1e9, 60.0),
        ],
    )
    def test_edge_mode(self, rp, window, x1, edge):
        for build in (unrestricted_predictive, restricted_predictive):
            d = build(self.fixture_problem(rp, window, x1))
            mode, calls = self.mode_calls(d)
            assert mode == edge
            assert len(calls) <= 1, calls
            # nor does a summary's quantile set sample a stencil for it
            counted, calls = counting(d)
            assert summarize(counted, PROBS).mode == edge
            assert calls and set(calls) == {(PROBS.size, dist._GL_ORDER + 1)}, calls

    @pytest.mark.parametrize("window", [(0.0, 60.0), (5.0, 45.0)])
    def test_summary_of_an_interior_mode_in_one_call(self, window):
        # the mode's first stencil rides, flat, after the quantile rows in
        # the set's first call, and both sets end there
        for build in (unrestricted_predictive, restricted_predictive):
            d = build(self.fixture_problem(window=window))
            counted, calls = counting(d)
            s = summarize(counted, PROBS)
            assert calls == [(PROBS.size * (dist._GL_ORDER + 1) + dist._STENCIL.size,)]
            assert window[0] < s.mode < window[1]
            assert s.mode == self.mode_calls(d)[0]
            assert list(s.quantiles.values()) == dist._quantiles(d, PROBS)[0].tolist()

    def test_summaries_as_from_calls_of_their_own(self):
        # every summary's mode and quantiles are bit-identical to those of
        # the mode search and the quantile loop run alone, over the
        # statistics and windows of tests/digest.py
        import digest

        for d, _ in digest._densities():
            if isinstance(d, str):
                continue
            s = summarize(d, PROBS)
            assert s.mode == self.mode_calls(d)[0]
            assert list(s.quantiles.values()) == dist._quantiles(d, PROBS)[0].tolist()


class TestPdfContract:
    @given(shape=st.floats(0.5, 8), scale=st.floats(0.5, 30))
    @settings(max_examples=25, deadline=None)
    def test_gamma_integrates_to_one(self, shape, scale):
        m = GammaModel(shape, scale)
        total, _ = integrate.quad(lambda y: gamma_pdf(m, y), 0, np.inf, epsrel=1e-9, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_everywhere(self):
        ys = np.linspace(-5, 100, 400)
        assert np.all(gamma_pdf(GammaModel(2.5, 7.0), ys) >= 0)
        assert np.all(beta_prime_pdf(2.0, 3.0, 4.0, ys) >= 0)
