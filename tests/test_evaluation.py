import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import goaltime
from goaltime import evaluation
from goaltime.distributions import GammaModel, gamma_logpdf, gamma_pdf, truncate
from goaltime.errors import DegenerateWindowError, DivergenceError, DomainError, InvalidShapeError, MonteCarloError
from goaltime.evaluation import (
    _BLOCK,
    RiskCurve,
    ShapeConfig,
    _risk_kls,
    _risk_rule,
    frequentist_risk,
    prediction_error,
    risk_curve,
)
from goaltime.predictive import (
    PredictionProblem,
    SufficientStat,
    restricted_predictive,
    unrestricted_predictive,
)

from goaltime.specfun import log_betainc

from oracles import (
    kl_loss_quad,
    log_restricted_ratio_form,
    log_unrestricted_direct,
    risk_kl_mpmath,
    risk_kls_per_draw,
)

TRUTH = GammaModel(3.0, 18.3)


def gamma_kl_closed_form(r, lam_p, lam_q):
    # KL(Gam(r, lam_p) || Gam(r, lam_q)) on the full support
    t = lam_p / lam_q
    return r * (t - 1.0 - math.log(t))


class TestKlLoss:
    def test_identical_densities(self):
        d = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        assert prediction_error(d, d) == pytest.approx(0.0, abs=1e-9)

    def test_gamma_vs_gamma_closed_form(self):
        for lam_q in (10.0, 18.3, 25.0):
            p = GammaModel(3.0, 18.3)
            q = GammaModel(3.0, lam_q)
            got = prediction_error(truncate(lambda y: gamma_pdf(p, y), 0.0, np.inf), lambda y: gamma_pdf(q, y))
            assert got == pytest.approx(gamma_kl_closed_form(3.0, 18.3, lam_q), rel=1e-7)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = GammaModel(rng.uniform(1, 5), rng.uniform(5, 30))
            q = GammaModel(rng.uniform(1, 5), rng.uniform(5, 30))
            val = prediction_error(truncate(lambda y: gamma_pdf(p, y), 0.0, np.inf), lambda y: gamma_pdf(q, y))
            assert val >= -1e-12

    def test_divergence_when_estimate_vanishes(self):
        p = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        q = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 30.0)
        with pytest.raises(DivergenceError):
            prediction_error(p, q)

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (math.inf, DivergenceError, "estimate is infinite at y="),
            (math.nan, DomainError, "estimate is NaN at y="),
        ],
    )
    def test_non_finite_estimate_is_an_error(self, value, error, message):
        # the KL was -inf or NaN without an error; the message names the
        # node, at one node and at every node alike
        p = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        for every in (False, True):

            def estimate(y):
                q = gamma_pdf(TRUTH, y)
                if every:
                    q[:] = value
                else:
                    q[q.size // 2] = value
                return q

            with pytest.raises(error, match=message) as exc:
                prediction_error(p, estimate)
            y = p.grid.y.ravel()[p.grid.f.ravel() / p.mass > 1e-15]
            assert repr(float(y[0 if every else y.size // 2])) in str(exc.value)

    def test_plain_callable_truth_rejected(self):
        # a plain callable carries no window to integrate over
        with pytest.raises(DomainError):
            prediction_error(lambda y: gamma_pdf(TRUTH, y), lambda y: gamma_pdf(TRUTH, y))

    def test_truth_sampled_only_by_truncate(self):
        calls = []

        def counted(y):
            calls.append(y)
            return gamma_pdf(TRUTH, y)

        for window in ((0.0, 60.0), (0.0, np.inf), (5.0, 45.0), (2.0, np.inf)):
            truth = truncate(counted, *window)
            calls.clear()
            assert prediction_error(truth, lambda y: gamma_pdf(GammaModel(3.0, 12.0), y)) > 0.0
            assert calls == []

    @pytest.mark.parametrize("window", [(0.0, 60.0), (0.0, np.inf)])
    def test_grid_against_adaptive_oracle(self, window):
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), *window)
        for x1, x2 in ((35.85, 39.07), (8.0, 70.0), (90.0, 4.0)):
            p = PredictionProblem(
                obs_a=SufficientStat(x1, 3.0), obs_b=SufficientStat(x2, 2.5), r_prime=1.5, window=window
            )
            for est in (unrestricted_predictive(p), restricted_predictive(p)):
                want = kl_loss_quad(truth, est, window, epsrel=1e-11)
                assert prediction_error(truth, est) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_reference_prediction_error_value(self):
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        q0_raw = unrestricted_predictive(
            PredictionProblem(obs_a=SufficientStat(35.85, 3.0), r_prime=3.0, window=(0.0, np.inf))
        )
        assert prediction_error(truth, q0_raw) == pytest.approx(0.45, abs=0.1)


class TestPredictionError:
    def test_zero_against_itself(self):
        # the infinite and lo > 0 window grids; TestKlLoss covers (0, 60)
        for window in ((0.0, np.inf), (5.0, 45.0), (2.0, np.inf)):
            truth = truncate(lambda y: gamma_pdf(TRUTH, y), *window)
            assert prediction_error(truth, truth) == pytest.approx(0.0, abs=1e-9)

    def test_restricted_beats_unrestricted(self):
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        q0 = unrestricted_predictive(
            PredictionProblem(obs_a=SufficientStat(35.85, 3.0), r_prime=3.0, window=(0.0, np.inf))
        )
        q1 = restricted_predictive(
            PredictionProblem(
                obs_a=SufficientStat(35.85, 3.0),
                obs_b=SufficientStat(39.07, 3.0),
                r_prime=3.0,
            )
        )
        pe0 = prediction_error(truth, q0)
        pe1 = prediction_error(truth, q1)
        assert pe1 < pe0
        assert pe1 == pytest.approx(0.04, abs=0.1)


def counting(d):
    """``d`` with its density wrapped to record each call, and the record."""
    calls = []

    def base(y):
        calls.append(np.shape(y))
        return d.base(y)

    return dataclasses.replace(d, base=base), calls


class TestEstimateOnTheTruthsGrid:
    """Where an estimate's grid has the truth's edges, its values at the
    truth's nodes are its own samples: no call, and the same double."""

    @staticmethod
    def estimates(window):
        # the bundled fixture's statistics
        a, b = SufficientStat(35.8482, 3.0), SufficientStat(39.066315789473684, 3.0)
        p = PredictionProblem(obs_a=a, obs_b=b, r_prime=3.0, window=window)
        return unrestricted_predictive(p), restricted_predictive(p)

    @pytest.mark.parametrize("window", [(0.0, 60.0), (5.0, 45.0)])
    def test_no_call_on_a_shared_finite_window(self, window):
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), *window)
        for est in self.estimates(window):
            counted, calls = counting(est)
            kl = prediction_error(truth, counted)
            assert calls == []
            assert kl == prediction_error(truth, lambda y: est(y))

    @pytest.mark.parametrize(
        "truth_window, window",
        [((0.0, np.inf), (0.0, np.inf)), ((0.0, 60.0), (0.0, np.inf)), ((5.0, 45.0), (5.0, np.inf))],
    )
    def test_called_on_a_grid_of_its_own(self, truth_window, window):
        # on (lo, inf) the estimate's probe sets its own grid
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), *truth_window)
        kept = int(np.sum(truth.grid.f / truth.mass > 1e-15))
        for est in self.estimates(window):
            counted, calls = counting(est)
            kl = prediction_error(truth, counted)
            assert calls == [(kept,)]
            assert kl == prediction_error(truth, lambda y: est(y))

    def test_estimate_of_zero_on_the_shared_grid(self):
        # the kept nodes and the error for a sample of 0, as from a call
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
        cliff = truncate(lambda y: np.where(np.asarray(y) < 30.0, gamma_pdf(TRUTH, y), 0.0), 0.0, 60.0)
        with pytest.raises(DivergenceError) as called:
            prediction_error(truth, lambda y: cliff(y))
        with pytest.raises(DivergenceError, match="estimate vanishes at y=") as sampled:
            prediction_error(truth, cliff)
        assert str(sampled.value) == str(called.value)

    def test_same_double_as_from_a_call(self):
        # over the statistics and windows of tests/digest.py
        import digest

        for (r1, r2, rp), x1, x2 in digest._statistics():
            for window in digest.WINDOWS:
                truth = truncate(lambda y: gamma_pdf(GammaModel(rp, 12.0), y), *window)
                p = PredictionProblem(
                    obs_a=SufficientStat(x1, r1), obs_b=SufficientStat(x2, r2), r_prime=rp, window=window
                )
                for build in (unrestricted_predictive, restricted_predictive):
                    est = build(p)
                    assert prediction_error(truth, est) == prediction_error(truth, lambda y: est(y))


class TestUnrestrictedRiskClosedForm:
    """The untruncated q0 risk is constant in the scale, with the closed form
    R0 = lnG(r1) - lnG(r'+r1) + (r'+r1) psi(r'+r1) - r1 psi(r1) - r'."""

    @staticmethod
    def exact_risk(r1, rp):
        n = rp + r1
        return math.lgamma(r1) - math.lgamma(n) + n * special.digamma(n) - r1 * special.digamma(r1) - rp

    def test_value_at_shapes_3(self):
        assert self.exact_risk(3.0, 3.0) == pytest.approx(0.3740084431, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r1, rp", [(3.0, 3.0), (2.5, 1.5), (5.0, 0.7)])
    @pytest.mark.parametrize("lam", [12.0, 0.5])
    def test_monte_carlo_against_closed_form(self, lam, r1, rp, seed):
        # scales away from 1, where drawing with a rate for a scale would show
        e = frequentist_risk(lam, lam, ShapeConfig(r1=r1, r_prime=rp), "q0", 20000, seed)
        assert e.rejected == 0
        assert abs(e.risk - self.exact_risk(r1, rp)) <= 4 * e.std_err

    @pytest.mark.parametrize("seed", [0, 1])
    def test_monte_carlo_below_unit_future_shape(self, seed):
        # at r' = 0.1 nearly all of the truth's mass lies in the rule's
        # Gauss-Jacobi head; a rule that misses y^(r'-1) biased the risk by
        # +2.7% there, about 16 standard errors at these draws
        e = frequentist_risk(12.0, 6.0, ShapeConfig(r_prime=0.1), "q0", 1_000_000, seed)
        assert e.rejected == 0
        assert abs(e.risk - self.exact_risk(3.0, 0.1)) <= 4 * e.std_err


def draw_statistics(kind, samples, seed, shapes=ShapeConfig(), lambda1=12.0, lambda2=6.0):
    """The statistics ``frequentist_risk`` draws at ``seed``, up to rounding,
    in minutes: x1, and x2 for q1 only."""
    child1, child2 = np.random.SeedSequence(seed).spawn(2)
    x1 = np.random.default_rng(child1).gamma(shapes.r1, lambda1, samples)
    x2 = np.random.default_rng(child2).gamma(shapes.r2, lambda2, samples) if kind == "q1" else None
    return x1, x2


def in_units(x1, x2, lambda1=12.0):
    """Statistics in minutes as ``_risk_kls`` takes them, in units of
    ``lambda1`` (``x2`` None for q0)."""
    return x1 / lambda1, None if x2 is None else x2 / lambda1


def summand_size(kind, x1, x2, lambda1, shapes, window):
    """The size of the terms a draw's KL sums, in the engine's units of
    ``lambda1``: the absolute values of the terms of log p and of the
    oracle's log q at each node of ``_risk_rule``, weighted by the truth's
    ``v`` (``evaluation._risk_kls``), plus the log masses on a finite
    window."""
    x1, x2 = x1 / lambda1, x2 / lambda1
    if window is not None:
        window = (window[0] / lambda1, window[1] / lambda1)
    r1, rp = shapes.r1, shapes.r_prime
    y, w = _risk_rule(rp, window)
    log_p = gamma_logpdf(GammaModel(rp, 1.0), y)
    size = abs(rp - 1.0) * np.abs(np.log(y)) + y + abs(math.lgamma(rp))
    size += (
        abs(special.betaln(rp, r1)) + abs(math.log(x1)) + abs(rp - 1.0) * np.abs(np.log(y / x1))
        + (rp + r1) * np.log1p(y / x1)
    )
    if kind == "q1":
        x = (x1 + y) / (x1 + y + x2)
        size += np.abs(log_betainc(r1 + rp, shapes.r2, x)) + abs(log_betainc(r1, shapes.r2, x1 / (x1 + x2)))
    if window is not None:
        if kind == "q0":
            log_q = log_unrestricted_direct(y, x1, r1, rp)
        else:
            log_q = log_restricted_ratio_form(y, x1, x2, r1, shapes.r2, rp)
        log_p_mass = math.log(w @ np.exp(log_p))
        size += abs(log_p_mass) + abs(math.log(w @ np.exp(log_q)))
        log_p -= log_p_mass
    return (w * np.exp(log_p)) @ size


class TestFrequentistRisk:
    def test_reproducible_bit_for_bit(self):
        kw = dict(shapes=ShapeConfig(), estimator_kind="q1", samples=400, seed=99)
        a = frequentist_risk(12.0, 6.0, **kw)
        b = frequentist_risk(12.0, 6.0, **kw)
        assert a.risk == b.risk and a.std_err == b.std_err

    @staticmethod
    def engine_against_adaptive_kl(kind, window):
        """The engine's KLs at four statistics (x1, x2), in one call,
        against ``kl_loss_quad``, for one estimator on one window."""
        truth = truncate(lambda v: gamma_pdf(GammaModel(3.0, 12.0), v), *(window or (0.0, np.inf)))
        rng = np.random.default_rng(5)
        points = [(float(rng.gamma(3.0, 12.0)), float(rng.gamma(3.0, 6.0))) for _ in range(4)]
        x1, x2 = np.array(points).T
        kls = _risk_kls(*in_units(x1, x2 if kind == "q1" else None), 12.0, ShapeConfig(), window)
        for (a, b), kl in zip(points, kls):
            problem = PredictionProblem(
                obs_a=SufficientStat(a, 3.0), obs_b=SufficientStat(b, 3.0), r_prime=3.0, window=truth.window
            )
            est = unrestricted_predictive(problem) if kind == "q0" else restricted_predictive(problem)
            assert kl == pytest.approx(kl_loss_quad(truth, est, truth.window), abs=1e-8)

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_window_without_truth_mass(self, monkeypatch, kind):
        # Gamma(1000, 12) has its bulk near y = 12000: on (0, 60) its mass
        # underflows to 0, which no draw can change, so the risk fails once,
        # before any kernel is set up, and without a numpy warning (pytest
        # makes a RuntimeWarning an error)
        def no_kernel(*args):
            raise AssertionError("the draws were scored")

        monkeypatch.setattr(evaluation.pred, "_Kernel", no_kernel)
        shapes = ShapeConfig(r_prime=1000.0)
        with pytest.raises(DegenerateWindowError, match=r"r' = 1000\.0.*\(0\.0, 60\.0\)"):
            frequentist_risk(12.0, 6.0, shapes, kind, samples=200, seed=0, window=(0.0, 60.0))
        with pytest.raises(DegenerateWindowError):
            risk_curve((1.0,), shapes, samples=200, window=(0.0, 60.0))

    def test_per_draw_engine_matches_adaptive_kl(self):
        self.engine_against_adaptive_kl("q1", (0.0, 60.0))

    def test_per_draw_engine_matches_adaptive_kl_unrestricted(self):
        self.engine_against_adaptive_kl("q0", (0.0, 60.0))

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_per_draw_engine_matches_adaptive_kl_untruncated(self, kind):
        # the head panel and the map y = h + s/(1-s) of the rule onto (0, inf)
        self.engine_against_adaptive_kl(kind, None)

    @pytest.mark.parametrize("window", [None, (0.0, 60.0)])
    @pytest.mark.parametrize("kind, r2", [("q0", 3.0), ("q1", 3.0), ("q1", 2.5)])
    @pytest.mark.parametrize("samples", [100, _BLOCK - 1, _BLOCK + 1])
    def test_blocks_against_per_draw_oracle(self, samples, kind, r2, window):
        # one partial block, one block short of full, and a full block plus one draw
        shapes = ShapeConfig(r2=r2)
        x1, x2 = draw_statistics(kind, samples, 17, shapes)
        kls = risk_kls_per_draw(kind, x1, x2, 12.0, shapes, window)
        # a draw's KL k - log q . v is the difference of two sums of size
        # about 4, so it carries about 1e-15 of absolute rounding (up to
        # 5.3e-15 here, 9e-14 relative to the smallest KLs on the window)
        np.testing.assert_allclose(_risk_kls(*in_units(x1, x2), 12.0, shapes, window), kls, rtol=1e-13, atol=1e-14)
        got = frequentist_risk(12.0, 6.0, shapes, kind, samples, seed=17, window=window)
        assert got.rejected == 0
        assert got.risk == pytest.approx(kls.mean(), rel=1e-13)
        assert got.std_err == pytest.approx(kls.std(ddof=1) / math.sqrt(samples), rel=1e-13)

    @pytest.mark.parametrize("window", [None, (0.0, 60.0), (5.0, 45.0)])
    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_per_draw_kl_against_mpmath(self, kind, window):
        # the rule against a regularized mpmath reference over r' in
        # [0.01, 6] and x1 in [1e-2, 1e4] lambda1: the domain's corners and
        # one inner point, integer and non-integer r2; a rule without the
        # y^(r'-1) head was off by up to 5e-2 at r' = 0.3
        lam = 12.0
        points = [
            # r1, r2, r', x1 / lambda1, x2 / lambda1
            (3.0, 3.0, 0.01, 1e-2, 0.5),
            (3.0, 2.5, 0.01, 1e4, 1e-2),
            (1.5, 3.0, 6.0, 1e-2, 1e4),
            (3.0, 2.5, 6.0, 1e4, 30.0),
            (2.5, 4.0, 0.4, 1.0, 0.5),
        ]
        for r1, r2, rp, x1, x2 in points:
            shapes = ShapeConfig(r1=r1, r2=r2, r_prime=rp)
            rival = np.array([lam * x2]) / lam if kind == "q1" else None
            got = _risk_kls(np.array([lam * x1]) / lam, rival, lam, shapes, window)[0]
            want = risk_kl_mpmath(kind, lam * x1, lam * x2, lam, shapes, window)
            assert abs(got - want) <= 2e-13 * max(1.0, abs(want)), (r1, r2, rp, x1, x2, got, want)

    @pytest.mark.parametrize("r_prime", [0.01, 1.0, 6.0])
    @pytest.mark.parametrize("window", [None, (0.0, 5.0), (0.0, 1e-3), (0.4, 3.75), (0.0, 1e4)])
    def test_rule_layout(self, r_prime, window):
        # one set of at most 120 nodes per call, inside the window, ascending,
        # with positive weights that integrate the truth to its mass there
        y, w = _risk_rule(r_prime, window)
        lo, hi = window or (0.0, np.inf)
        assert y.size <= 120
        assert np.all((y > lo) & (y < hi)) and np.all(np.diff(y) > 0) and np.all(w > 0)
        want = special.gammainc(r_prime, hi) - special.gammainc(r_prime, lo)
        assert w @ gamma_pdf(GammaModel(r_prime, 1.0), y) == pytest.approx(want, rel=1e-13)

    @given(
        r1=st.floats(1.05, 12.0),
        r2=st.one_of(st.integers(2, 12).map(float), st.floats(1.05, 12.0)),
        rp=st.floats(0.01, 12.0),
        log_x1=st.floats(-2.0, 4.0),
        log_x2=st.floats(-2.0, 4.0),
        window=st.sampled_from([None, (0.0, 60.0)]),
    )
    @settings(max_examples=300, deadline=None)
    # a vanishing rival statistic, where q1 tends to q0
    @example(r1=3.0, r2=3.0, rp=3.0, log_x1=1.5, log_x2=-8.0, window=(0.0, 60.0))
    @example(r1=2.5, r2=2.5, rp=1.5, log_x1=1.5, log_x2=-8.0, window=None)
    # x1 far above the window, where q is nearly flat on it
    @example(r1=3.0, r2=3.0, rp=3.0, log_x1=6.0, log_x2=1.5, window=(0.0, 60.0))
    @example(r1=6.5, r2=2.5, rp=0.5, log_x1=6.0, log_x2=5.0, window=(0.0, 60.0))
    # r' = 0.01, where the oracle read 8.7e-15 off the rule's sum at 40
    # digits while its incomplete betas came from the continued fraction
    @example(r1=7.0, r2=2.0, rp=0.01, log_x1=1.0, log_x2=1.0, window=None)
    # three falsifying examples of fresh seeds while q1's integer-r2 sum
    # was taken on the scale x1 and the prefactor of log_betainc below
    # shape 8 as a plain sum of logs: q1 read 1.08e-14 off at the first
    @example(
        r1=6.175468062210312, r2=6.0, rp=0.43068399443650307,
        log_x1=0.43068399443650307, log_x2=2.3797232329436584, window=None,
    )
    @example(
        r1=2.2324647635229207, r2=2.2324647635229207, rp=0.01,
        log_x1=2.2324647635229207, log_x2=1.5560258151596165, window=(0.0, 60.0),
    )
    @example(r1=7.213674517646694, r2=6.371836108222965, rp=2.098898988617175, log_x1=1.5, log_x2=2.0, window=None)
    # x2 = 79 x1 at a non-integer r2 on a window, where the ordering term
    # is -25.4: with a window's level taken without it, q1 read 1.3e-14
    # off against a bound of 1.41e-14 (8e-17 with it)
    @example(r1=6.201269829150486, r2=1.9, rp=0.5, log_x1=0.0, log_x2=1.9, window=(0.0, 60.0))
    def test_engine_against_ratio_form_over_domain(self, r1, r2, rp, log_x1, log_x2, window):
        # the engine's separable kernel against the ratio-form oracle, over
        # non-integer shapes and extreme statistics.  The engine rounds sums
        # of terms of size M (summand_size), which the oracle carries in
        # extended precision; up to M = 50, above its largest value at the
        # draws of test_blocks_against_per_draw_oracle (33), the bound is
        # that test's, and beyond it grows by 2 eps M
        shapes = ShapeConfig(r1=r1, r2=r2, r_prime=rp)
        x1, x2 = 10.0**log_x1, 10.0**log_x2
        for kind in ("q0", "q1"):
            rival = np.array([x2]) if kind == "q1" else None
            got = _risk_kls(*in_units(np.array([x1]), rival), 12.0, shapes, window)[0]
            want = risk_kls_per_draw(kind, [x1], rival, 12.0, shapes, window)[0]
            size = summand_size(kind, x1, x2, 12.0, shapes, window)
            tol = max(1e-13 * abs(want), 1e-14 + 2.0 * np.finfo(float).eps * max(0.0, size - 50.0))
            assert abs(got - want) <= tol, (kind, got, want, size)

    @given(
        r1=st.floats(1.05, 12.0),
        r2=st.one_of(st.none(), st.integers(2, 12).map(float), st.floats(1.05, 12.0)),
        rp=st.floats(0.01, 12.0),
        log_x=st.lists(st.tuples(st.floats(-2.0, 4.0), st.floats(-2.0, 4.0)), min_size=1, max_size=4),
        window=st.sampled_from([None, (0.0, 60.0), (5.0, 45.0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_on_risk_and_density_inputs(self, r1, r2, rp, log_x, window):
        # one kernel, two ways of forming its input: the engine's products
        # of per-draw and per-node rows against the densities' arithmetic
        # (predictive._kernel_input), at the nodes of the risk's rule, for
        # q0 (r2 None), the sum and the continued fraction.  The two ways'
        # t and aux differ by at most about 5 eps relative; K amplifies
        # that by at most a in its log1p term, since t/(1+t) <= log1p(t),
        # and by at most about a + r2 in its L = log S (u S'/S <= n - 1)
        # or log I (x's log-derivative), so the bound, set from that count
        # before any run, is 8 ulps of the terms' size a log1p(t) + |L| +
        # a + r2
        pred = evaluation.pred
        x1, x2 = (10.0 ** np.array(log_x)).T
        x2 = None if r2 is None else x2
        seen = []
        call = pred._Kernel.__call__

        def spy(kernel, *args):
            out = call(kernel, *args)
            if kernel.a == r1 + rp:
                seen.append((kernel, out.copy()))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pred._Kernel, "__call__", spy)
            _risk_kls(x1, x2, 12.0, ShapeConfig(r1=r1, r2=r2 or 3.0, r_prime=rp), window)
        [(kernel, got)] = seen
        y, _ = _risk_rule(rp, None if window is None else (window[0] / 12.0, window[1] / 12.0))
        t, aux = pred._kernel_input(kernel, y, x1[:, None], None if x2 is None else x2[:, None])
        log1p_term = kernel.a * np.log1p(t)
        want = kernel(t, aux)
        size = log1p_term + np.abs(want + log1p_term) + kernel.a + (r2 or 0.0)
        excess = np.abs(got - want) / (np.finfo(float).eps * size)
        assert excess.max() <= 8.0, (excess.max(), kernel.rows)

    @pytest.mark.parametrize(
        "kind, window, value",
        [
            ("q0", None, math.nan),
            ("q0", (0.0, 60.0), math.nan),
        ],
    )
    def test_rejected_draws(self, monkeypatch, caplog, kind, window, value):
        planted = np.array([7, 1000, 1999])
        x1, x2 = draw_statistics(kind, 2000, 4)
        x1[planted] = value
        kls = _risk_kls(*in_units(x1, x2), 12.0, ShapeConfig(), window)
        assert np.array_equal(np.flatnonzero(~np.isfinite(kls)), planted)

        engine = evaluation._risk_kls

        def planting(rows):
            def planted_engine(x1, x2, *args):
                x1[rows] = value
                return engine(x1, x2, *args)

            return planted_engine

        monkeypatch.setattr(evaluation, "_risk_kls", planting(planted[:1]))
        one = frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=2000, seed=4, window=window)
        monkeypatch.setattr(evaluation, "_risk_kls", planting(planted))
        with pytest.raises(MonteCarloError):
            frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=2000, seed=4, window=window)
        assert one.rejected == 1
        assert math.isfinite(one.risk) and math.isfinite(one.std_err)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records][0] == (
            "goaltime.evaluation", "WARNING", "rejected 1 of 2000 Monte Carlo draws"
        )

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_flat_draws_on_a_window_are_scored(self, kind):
        # at x1 = 1e300 minutes q is nearly flat on (0, 60), and q itself
        # is far below the smallest double there; the mass is summed
        # relative to the rule's largest log(w y^(r'-1)), so it does not
        # underflow, and the draws are scored like any other, as the mpmath
        # reference scores them
        planted = np.array([7, 1000, 1999])
        x1, x2 = draw_statistics(kind, 2000, 4)
        x1[planted] = 1e300
        kls = _risk_kls(*in_units(x1, x2), 12.0, ShapeConfig(), (0.0, 60.0))
        assert np.isfinite(kls).all()
        for i in planted[: 3 if kind == "q1" else 1]:
            rival = None if x2 is None else x2[i]
            want = risk_kl_mpmath(kind, x1[i], rival, 12.0, ShapeConfig(), (0.0, 60.0))
            assert abs(kls[i] - want) <= 2e-13 * max(1.0, abs(want)), (kind, i, kls[i], want)

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    @pytest.mark.parametrize(
        "lambda1, shapes, window",
        [(0.25, ShapeConfig(3.0, 3.0, 150.0), (0.0, 60.0)), (0.1, ShapeConfig(3.0, 2.5, 400.0), (5.0, 45.0))],
    )
    def test_large_future_shapes_on_a_window_are_scored(self, kind, lambda1, shapes, window):
        # the truth's bulk inside the window, at r' = 150 and 400: over the
        # rule y^(r'-1) spans more than a double holds, so the mass is
        # summed relative to the statistics' term, and every draw is
        # scored, as the mpmath reference scores it; at the smallest x1
        # q's mass lies farthest from the truth's
        x1, x2 = draw_statistics(kind, 300, 1, shapes, lambda1, lambda1 / 2)
        kls = _risk_kls(*in_units(x1, x2, lambda1), lambda1, shapes, window)
        assert np.isfinite(kls).all()
        i = int(np.argmin(x1))
        want = risk_kl_mpmath(kind, x1[i], None if x2 is None else x2[i], lambda1, shapes, window)
        assert abs(kls[i] - want) <= 1e-12 * max(1.0, abs(want)), (kind, kls[i], want)

    def test_bit_identical_across_blas_threads(self):
        # a block's draws x nodes operands are BLAS matrix products, the
        # node term less the mass's level on a finite window among them, and the
        # KL reduction is a matrix-vector product; the risk must not depend
        # on how many threads BLAS splits them over
        code = (
            "from goaltime.evaluation import ShapeConfig, frequentist_risk\n"
            "for kind, r2 in (('q0', 3.0), ('q1', 3.0), ('q1', 2.5)):\n"
            "    for window in (None, (0.0, 60.0), (5.0, 45.0)):\n"
            "        for rp in (3.0, 0.3):\n"
            "            shapes = ShapeConfig(r2=r2, r_prime=rp)\n"
            "            e = frequentist_risk(12.0, 6.0, shapes, kind, 3000, 8, window)\n"
            "            print(e.risk.hex(), e.std_err.hex())\n"
        )
        src = str(Path(goaltime.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        # q1 at r2 = 2.5 takes the kernel's continued fraction
        assert len(outs[0].splitlines()) == 18

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    @pytest.mark.parametrize("window", [None, (0.0, 60.0)])
    def test_working_set(self, kind, window):
        # the blocks run in a few small preallocated arrays; numpy reports
        # its data buffers to tracemalloc
        frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=100, seed=0, window=window)
        tracemalloc.start()
        try:
            frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=20000, seed=0, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_unrestricted_risk_draws_no_rival(self, monkeypatch):
        calls = []
        engine = evaluation._risk_kls

        def recording(x1, x2, *args):
            calls.append((x1.copy(), x2))
            return engine(x1, x2, *args)

        monkeypatch.setattr(evaluation, "_risk_kls", recording)
        frequentist_risk(12.0, 6.0, ShapeConfig(), "q0", samples=200, seed=3)
        frequentist_risk(12.0, 6.0, ShapeConfig(), "q1", samples=200, seed=3)
        (x1_q0, x2_q0), (x1_q1, x2_q1) = calls
        assert x2_q0 is None and x2_q1.shape == (200,)
        # both estimators see the same x1 (common random numbers)
        assert x1_q1.tobytes() == x1_q0.tobytes()

    def test_mc_error_scaling(self):
        shapes = ShapeConfig()
        small = frequentist_risk(12.0, 12.0, shapes, "q0", samples=2000, seed=1)
        large = frequentist_risk(12.0, 12.0, shapes, "q0", samples=4000, seed=1)
        shrink = large.std_err / small.std_err
        assert shrink == pytest.approx(1 / math.sqrt(2), rel=0.2)

    def test_nonnegative_up_to_noise(self):
        e = frequentist_risk(12.0, 4.0, ShapeConfig(), "q1", samples=2000, seed=3)
        assert e.risk >= -2 * e.std_err

    def test_equal_scales_equal_risk_untruncated(self):
        # the two risks coincide exactly at equal scales (checked by nested
        # quadrature: both 0.374008 for unit scales); here via Monte Carlo
        shapes = ShapeConfig()
        e0 = frequentist_risk(12.0, 12.0, shapes, "q0", samples=4000, seed=42)
        e1 = frequentist_risk(12.0, 12.0, shapes, "q1", samples=4000, seed=42)
        assert abs(e0.risk - e1.risk) <= 2 * math.hypot(e0.std_err, e1.std_err)

    def test_scale_invariance_of_unrestricted_risk(self):
        shapes = ShapeConfig()
        a = frequentist_risk(1.0, 1.0, shapes, "q0", samples=4000, seed=31)
        b = frequentist_risk(5.0, 5.0, shapes, "q0", samples=4000, seed=32)
        assert abs(a.risk - b.risk) <= 2 * math.hypot(a.std_err, b.std_err)

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_untruncated_risk_at_any_scale(self, kind):
        # the engine works in units of lambda1, and the risk draws the
        # statistics in them, so at one seed the draws, the rule and every
        # KL are the same at every scale, on the untruncated support and on
        # a window that scales with lambda1; a rule in absolute units read
        # -0.0 at 1e-6 and 1e8, and 0.2759 for q1's 0.2957 at 1e3, and one
        # scaled by lambda1 overflowed at 1e304
        lambdas = (1e-300, 1e-6, 1e-3, 12.0, 1e3, 1e5, 1e8, 1e304)
        for window in (None, (0.0, 5.0)):
            risks = [
                frequentist_risk(
                    lam, lam / 2, ShapeConfig(), kind, 2000, seed=1,
                    window=None if window is None else (window[0] * lam, window[1] * lam),
                )
                for lam in lambdas
            ]
            assert all(e.rejected == 0 for e in risks)
            assert len({(e.risk, e.std_err) for e in risks}) == 1, (window, risks)

    def test_ordering_precondition(self):
        with pytest.raises(DomainError):
            frequentist_risk(5.0, 10.0, ShapeConfig(), "q1", samples=200, seed=0)
        with pytest.raises(DomainError):
            frequentist_risk(5.0, 1.0, ShapeConfig(), "q1", samples=50, seed=0)

    @pytest.mark.parametrize(
        "shapes",
        [dict(r1=0.5), dict(r2=1.0), dict(r_prime=0.0), dict(r1=math.nan), dict(r2=math.inf), dict(r_prime=math.inf)],
    )
    def test_shapes_out_of_domain(self, shapes):
        with pytest.raises(InvalidShapeError):
            ShapeConfig(**shapes)

    @pytest.mark.parametrize(
        "samples, seed", [(200, -1), (200, 1.5), (200, 2.0), (150.5, 0), (200.0, 0), (99, 0), (-200, 0)]
    )
    def test_draw_counts_out_of_domain(self, samples, seed):
        # a seed is a non-negative integer, and samples an integer of at
        # least MIN_SAMPLES, for the risk and the curve alike
        with pytest.raises(DomainError):
            frequentist_risk(12.0, 6.0, ShapeConfig(), "q0", samples=samples, seed=seed)
        with pytest.raises(DomainError):
            risk_curve(ratio_grid=(1.0, 2.0), samples=samples, seed=seed)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("window", [None, (0.0, 60.0)])
    def test_engine_rejects_statistics_that_are_not_positive_and_finite(self, bad, window):
        # the q1 engine checks its statistics itself, as log_restricted_base
        # does: q1's denominator takes them as checked
        good = np.array([1.0, 2.0, 0.5])
        for name in ("x1", "x2"):
            x = {"x1": good.copy(), "x2": good.copy()}
            x[name][1] = bad
            with pytest.raises(DomainError, match=f"statistic {name} must be positive and finite, got {bad}"):
                _risk_kls(x["x1"], x["x2"], 12.0, ShapeConfig(), window)

    def test_underflowed_rival_draws_are_a_domain_error(self):
        # lambda2/lambda1 = 1e-600 draws every x2 as 0 in doubles
        with pytest.raises(DomainError, match="statistic x2 must be positive and finite, got 0.0"):
            frequentist_risk(1e300, 1e-300, ShapeConfig(), "q1", samples=200, seed=0)

    @pytest.mark.parametrize("lambda1, lambda2", [(math.inf, 6.0), (math.nan, 6.0), (12.0, math.nan)])
    def test_non_finite_scales(self, lambda1, lambda2):
        with pytest.raises(DomainError):
            frequentist_risk(lambda1, lambda2, ShapeConfig(), "q0", samples=200, seed=0)


class TestRiskCurve:
    def test_structure_and_dominance(self):
        curve = risk_curve(ratio_grid=(1.0, 2.0, 4.0, 8.0), samples=2500, seed=7)
        assert isinstance(curve, RiskCurve)
        assert len(curve.ratios) == len(curve.risk_q0) == len(curve.risk_q1) == 4
        for r0, r1, s0, s1 in zip(
            curve.risk_q0, curve.risk_q1, curve.std_err_q0, curve.std_err_q1
        ):
            assert r1 <= r0 + 2 * math.hypot(s0, s1)

    def test_equal_risk_at_unit_ratio(self):
        curve = risk_curve(ratio_grid=(1.0, 2.0), samples=2500, seed=11)
        joint = math.hypot(curve.std_err_q0[0], curve.std_err_q1[0])
        assert abs(curve.risk_q0[0] - curve.risk_q1[0]) <= 2 * joint

    def test_gap_shrinks_in_the_tail(self):
        curve = risk_curve(ratio_grid=(1.0, 2.0, 4.0, 8.0), samples=2500, seed=13)
        gaps = [a - b for a, b in zip(curve.risk_q0, curve.risk_q1)]
        assert gaps[-1] < max(gaps)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            risk_curve(ratio_grid=(2.0, 1.0), samples=200, seed=0)
        with pytest.raises(DomainError):
            risk_curve(ratio_grid=(1.0, math.inf), samples=200, seed=0)
        with pytest.raises(DomainError):
            risk_curve(ratio_grid=(0.5, 1.0), samples=200, seed=0)

    @pytest.mark.parametrize("grid", [2.0, None, "12", b"12", [None], [1.0, "x"], [1.0, [2.0]]])
    def test_grid_that_is_not_numbers_is_a_domain_error(self, grid):
        # neither a bare TypeError nor one ratio per character of a string
        with pytest.raises(DomainError):
            risk_curve(ratio_grid=grid, samples=200, seed=0)

    def test_numeric_strings_are_ratios(self):
        # the command line passes --ratios split at its commas
        assert evaluation._ratio_grid(["1", "2.5"]) == (1.0, 2.5)
        assert evaluation._ratio_grid(r for r in (1, 2)) == (1.0, 2.0)
