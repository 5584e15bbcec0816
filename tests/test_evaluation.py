import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import goaltime
from goaltime import evaluation
from goaltime.distributions import GammaModel, gamma_pdf, truncate
from goaltime.errors import DivergenceError, DomainError, InvalidShapeError, MonteCarloError
from goaltime.evaluation import (
    _BLOCK,
    RiskCurve,
    ShapeConfig,
    draw_gamma,
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

from oracles import kl_loss_quad, risk_kls_per_draw

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
        truth = truncate(lambda y: gamma_pdf(TRUTH, y), 0.0, 60.0)
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


class TestGammaSampler:
    def test_moments(self):
        rng = np.random.default_rng(123)
        r, lam, n = 3.0, 18.3, 100_000
        draws = draw_gamma(rng, r, lam, n)
        se_mean = math.sqrt(r * lam**2 / n)
        assert abs(draws.mean() - r * lam) < 3 * se_mean
        var = draws.var(ddof=1)
        # var of the sample variance of a gamma: (mu4 - sigma^4 (n-3)/(n-1)) / n
        mu4 = (3 * r**2 + 6 * r) * lam**4  # fourth central moment
        se_var = math.sqrt((mu4 - (r * lam**2) ** 2 * (n - 3) / (n - 1)) / n)
        assert abs(var - r * lam**2) < 3 * se_var

    def test_domain(self):
        with pytest.raises(DomainError):
            draw_gamma(np.random.default_rng(0), -1.0, 1.0, 10)


def plant_draws(monkeypatch, values, rows=slice(None)):
    """Make ``evaluation.draw_gamma`` set ``rows`` of the draws at scale
    ``s`` to ``values[s]``; the other draws stay as drawn."""

    def planted(rng, shape, scale, size):
        out = draw_gamma(rng, shape, scale, size)
        if scale in values:
            out[rows] = values[scale]
        return out

    monkeypatch.setattr(evaluation, "draw_gamma", planted)


class TestFrequentistRisk:
    def test_reproducible_bit_for_bit(self):
        kw = dict(shapes=ShapeConfig(), estimator_kind="q1", samples=400, seed=99)
        a = frequentist_risk(12.0, 6.0, **kw)
        b = frequentist_risk(12.0, 6.0, **kw)
        assert a.risk == b.risk and a.std_err == b.std_err

    @staticmethod
    def engine_against_adaptive_kl(monkeypatch, kind, window):
        """The per-draw KL of ``frequentist_risk`` against ``kl_loss_quad``
        at four draws of (x1, x2), for one estimator on one window: each
        risk is taken over 100 copies of one draw, so it is that draw's KL."""
        truth = truncate(lambda v: gamma_pdf(GammaModel(3.0, 12.0), v), *(window or (0.0, np.inf)))
        rng = np.random.default_rng(5)
        for _ in range(4):
            x1 = float(rng.gamma(3.0, 12.0))
            x2 = float(rng.gamma(3.0, 6.0))
            plant_draws(monkeypatch, {12.0: x1, 6.0: x2})
            problem = PredictionProblem(
                obs_a=SufficientStat(x1, 3.0),
                obs_b=SufficientStat(x2, 3.0),
                r_prime=3.0,
                window=window or (0.0, np.inf),
            )
            est = unrestricted_predictive(problem) if kind == "q0" else restricted_predictive(problem)
            got = frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=100, seed=0, window=window)
            assert got.std_err < 1e-15
            assert got.risk == pytest.approx(kl_loss_quad(truth, est, truth.window), abs=1e-8)

    def test_per_draw_engine_matches_adaptive_kl(self, monkeypatch):
        self.engine_against_adaptive_kl(monkeypatch, "q1", (0.0, 60.0))

    def test_per_draw_engine_matches_adaptive_kl_unrestricted(self, monkeypatch):
        self.engine_against_adaptive_kl(monkeypatch, "q0", (0.0, 60.0))

    @pytest.mark.parametrize("kind", ["q0", "q1"])
    def test_per_draw_engine_matches_adaptive_kl_untruncated(self, monkeypatch, kind):
        # the map y = t/(1-t) of the 200 nodes onto (0, inf)
        self.engine_against_adaptive_kl(monkeypatch, kind, None)

    @pytest.mark.parametrize("window", [None, (0.0, 60.0)])
    @pytest.mark.parametrize("kind, r2", [("q0", 3.0), ("q1", 3.0), ("q1", 2.5)])
    @pytest.mark.parametrize("samples", [100, _BLOCK - 1, _BLOCK + 1])
    def test_blocks_against_per_draw_oracle(self, samples, kind, r2, window):
        # one partial block, one block short of full, and a full block plus one draw
        shapes = ShapeConfig(r2=r2)
        kls = risk_kls_per_draw(12.0, 6.0, shapes, kind, samples, 17, window)
        got = frequentist_risk(12.0, 6.0, shapes, kind, samples, seed=17, window=window)
        assert got.rejected == 0
        assert got.risk == pytest.approx(kls.mean(), rel=1e-13)
        assert got.std_err == pytest.approx(kls.std(ddof=1) / math.sqrt(samples), rel=1e-13)

    @pytest.mark.parametrize(
        "kind, window, value",
        [
            ("q0", None, math.nan),
            ("q0", (0.0, 60.0), math.nan),
            # q's mass on the window underflows to 0: log(mass) = -inf
            ("q0", (0.0, 60.0), 1e300),
            # an x1 or x2 that makes q1 itself non-finite makes its
            # denominator non-finite too, a DomainError; only the window
            # mass can fail alone
            ("q1", (0.0, 60.0), 1e300),
        ],
    )
    def test_rejected_draws(self, monkeypatch, kind, window, value):
        planted = np.array([7, 1000, 1999])
        plant_draws(monkeypatch, {12.0: value}, rows=planted[:1])
        one = frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=2000, seed=4, window=window)
        plant_draws(monkeypatch, {12.0: value}, rows=planted)
        with pytest.raises(MonteCarloError):
            frequentist_risk(12.0, 6.0, ShapeConfig(), kind, samples=2000, seed=4, window=window)
        assert one.rejected == 1
        assert math.isfinite(one.risk) and math.isfinite(one.std_err)

    def test_bit_identical_across_blas_threads(self):
        # the KL reduction is a BLAS matrix-vector product; the risk must not
        # depend on how many threads BLAS splits it over
        code = (
            "from goaltime.evaluation import ShapeConfig, frequentist_risk\n"
            "for kind in ('q0', 'q1'):\n"
            "    for window in (None, (0.0, 60.0)):\n"
            "        e = frequentist_risk(12.0, 6.0, ShapeConfig(), kind, 3000, 8, window)\n"
            "        print(e.risk.hex(), e.std_err.hex())\n"
        )
        src = str(Path(goaltime.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 4

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
        scales = []

        def recording(rng, shape, scale, size):
            scales.append(scale)
            return draw_gamma(rng, shape, scale, size)

        monkeypatch.setattr(evaluation, "draw_gamma", recording)
        frequentist_risk(12.0, 6.0, ShapeConfig(), "q0", samples=200, seed=3)
        assert scales == [12.0]
        frequentist_risk(12.0, 6.0, ShapeConfig(), "q1", samples=200, seed=3)
        assert scales == [12.0, 12.0, 6.0]

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

    def test_ordering_precondition(self):
        with pytest.raises(DomainError):
            frequentist_risk(5.0, 10.0, ShapeConfig(), "q1", samples=200, seed=0)
        with pytest.raises(DomainError):
            frequentist_risk(5.0, 1.0, ShapeConfig(), "q1", samples=50, seed=0)

    @pytest.mark.parametrize("shapes", [dict(r1=0.5), dict(r2=1.0), dict(r_prime=0.0)])
    def test_shapes_out_of_domain(self, shapes):
        with pytest.raises(InvalidShapeError):
            ShapeConfig(**shapes)


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
            risk_curve(ratio_grid=(0.5, 1.0), samples=200, seed=0)
