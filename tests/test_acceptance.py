"""Acceptance suite: reference values and global properties.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
on success).  Reference summaries target the bundled 2017-18 game data with
shapes r1 = r2 = r' = 3 and the regulation window (0, 60) minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from goaltime.distributions import GammaModel, gamma_pdf, truncate
from goaltime.evaluation import (
    ShapeConfig,
    frequentist_risk,
    prediction_error,
    risk_curve,
)
from goaltime.ingest import (
    canadiens_fixture_path,
    parse_game_log,
    reduce_to_stat,
    toronto_fixture_path,
)
from goaltime.predictive import (
    PredictionProblem,
    SufficientStat,
    log_unrestricted_base,
    ordering_constant,
    predictive_summaries,
    restricted_predictive,
    unrestricted_predictive,
)

from oracles import (
    marginal_flat,
    ordering_constant_quadrature,
    predictive_pdf_from_marginal,
    restricted_predictive_quadrature,
    weighted_beta_prime_logpdf,
)

X1 = 35.85
X2_RAW = 39.07
POINTS = (105, 71)
Q0_ROW = (17.92, 28.35, 14.38, 26.62, 50.3)
Q0_TOL = (0.05, 0.1, 0.1, 0.1, 0.1)
Q1_ROW = (28.13, 33.12, 19.06, 32.82, 53.48)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def table_problem(x2: float | None = None, window=(0.0, 60.0)) -> PredictionProblem:
    return PredictionProblem(
        obs_a=SufficientStat(x=X1, r=3.0),
        obs_b=SufficientStat(x=x2, r=3.0) if x2 is not None else None,
        r_prime=3.0,
        window=window,
    )


def test_criterion_1_unrestricted_summary_row():
    t0 = time.perf_counter()
    row = predictive_summaries(unrestricted_predictive(table_problem()))
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(got - want) <= tol for got, want, tol in zip(row.as_tuple(), Q0_ROW, Q0_TOL)
    )
    report(
        ok and elapsed < 1.0,
        f"criterion 1: unrestricted summary row {tuple(round(v, 3) for v in row.as_tuple())} "
        f"vs {Q0_ROW} in {elapsed:.2f}s",
    )


def test_criterion_2_unrestricted_coefficient():
    d = unrestricted_predictive(table_problem())
    ys = np.array([10.0, 23.0, 48.0])
    coeffs = d.pdf(ys) * (X1 + ys) ** 6 / ys**2
    u = (60.0 / X1) / (1.0 + 60.0 / X1)
    oracle = 30.0 * X1**3 / special.betainc(3.0, 3.0, u)
    ok = np.allclose(coeffs, coeffs[0], rtol=1e-9)
    ok = ok and abs(coeffs[0] - 1901470.0) <= 0.005 * 1901470.0
    ok = ok and abs(coeffs[0] - oracle) <= 1e-6 * oracle
    report(ok, f"criterion 2: truncated coefficient {coeffs[0]:.0f} vs 1901470 (0.5%)")


def test_criterion_3_data_reduction():
    toronto = parse_game_log(toronto_fixture_path())
    canadiens = parse_game_log(canadiens_fixture_path())
    a = reduce_to_stat(toronto, "Toronto Maple Leafs")
    b = reduce_to_stat(canadiens, "Montreal Canadiens")
    ok = len(toronto) == 50 and abs(a.x - 35.85) <= 0.01
    ok = ok and len(canadiens) == 38 and abs(b.x - 39.07) <= 0.01
    report(ok, f"criterion 3: fixture means x1={a.x:.4f} (50 games), x2={b.x:.4f} (38 games)")


def test_criterion_4_restricted_summary_row_reports_closest_mode():
    canadiens = parse_game_log(canadiens_fixture_path())
    rows = {}
    for mode in ("raw", "points_ratio", "points_ratio_squared"):
        stat = reduce_to_stat(
            canadiens, "Montreal Canadiens", x2_mode=mode, points=(POINTS[1], POINTS[0])
        )
        row = predictive_summaries(restricted_predictive(table_problem(x2=stat.x)))
        rows[mode] = row
    deviations = {
        mode: max(abs(g - w) for g, w in zip(row.as_tuple(), Q1_ROW))
        for mode, row in rows.items()
    }
    closest = min(deviations, key=deviations.get)
    ok = deviations[closest] <= 1.5
    report(
        ok,
        "criterion 4: restricted summary row; closest x2 mode = "
        f"{closest} (max deviation {deviations[closest]:.3f} min; "
        f"all modes: { {m: round(d, 2) for m, d in deviations.items()} })",
    )


def test_criterion_5_prediction_errors():
    t0 = time.perf_counter()
    truth = truncate(lambda y: gamma_pdf(GammaModel(3.0, 18.3), y), 0.0, 60.0)
    # the reference error for the unrestricted estimator evaluates it on its
    # natural full support; the restricted one is window-renormalized
    q0_full = unrestricted_predictive(table_problem(window=(0.0, np.inf)))
    q1_trunc = restricted_predictive(table_problem(x2=X2_RAW))
    pe0 = prediction_error(truth, q0_full)
    pe1 = prediction_error(truth, q1_trunc)
    elapsed = time.perf_counter() - t0
    ok = abs(pe0 - 0.45) <= 0.1 and abs(pe1 - 0.04) <= 0.1 and pe1 < pe0
    report(
        ok and elapsed < 1.0,
        f"criterion 5: pe(q0)={pe0:.3f} (ref 0.45), pe(q1)={pe1:.3f} (ref 0.04) in {elapsed:.2f}s",
    )


def test_criterion_6_risk_dominance_curve():
    t0 = time.perf_counter()
    curve = risk_curve(
        ratio_grid=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0), samples=20000, seed=0
    )
    elapsed = time.perf_counter() - t0
    joint = [2 * math.hypot(a, b) for a, b in zip(curve.std_err_q0, curve.std_err_q1)]
    gaps = [a - b for a, b in zip(curve.risk_q0, curve.risk_q1)]
    dominance = all(r1 <= r0 + j for r0, r1, j in zip(curve.risk_q0, curve.risk_q1, joint))
    equal_at_one = abs(gaps[0]) <= joint[0]
    tail_converges = gaps[-1] < max(gaps)
    ok = dominance and equal_at_one and tail_converges and elapsed < 120.0
    report(
        ok,
        "criterion 6: risk dominance "
        f"(gaps {[round(g, 4) for g in gaps]}, ratio-1 gap {gaps[0]:+.4f} vs {joint[0]:.4f}, "
        f"{elapsed:.0f}s)",
    )


def test_criterion_7_unrestricted_risk_constant_in_scale():
    shapes = ShapeConfig()
    estimates = [
        frequentist_risk(lam, lam, shapes, "q0", samples=20000, seed=1000 + i, window=None)
        for i, lam in enumerate((0.5, 1.0, 5.0, 20.0))
    ]
    ok = True
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            ok = ok and abs(a.risk - b.risk) <= 2 * math.hypot(a.std_err, b.std_err)
    report(
        ok,
        "criterion 7: untruncated unrestricted risk constant: "
        f"{[round(e.risk, 4) for e in estimates]}",
    )


def test_criterion_8_oracle_equivalence():
    worst_c = 0.0
    for k1 in (1.5, 3.0, 5.0):
        for k2 in (5.0, 40.0, 90.0):
            for s1 in (1.0, 2.0, 4.0):
                for s2 in (10.0, 39.0, 80.0):
                    closed = ordering_constant(k1, k2, s1, s2)
                    quad = ordering_constant_quadrature(k1, k2, s1, s2)
                    worst_c = max(worst_c, abs(closed / quad - 1.0))
    ok = worst_c <= 1e-6

    p = table_problem(x2=X2_RAW)
    d_quad = restricted_predictive_quadrature(p)
    ys = np.linspace(0.05, 59.95, 600)
    closed_pdf = np.exp(weighted_beta_prime_logpdf(ys, X1, X2_RAW, 3.0, 3.0, 3.0)) / d_quad.mass
    worst_q1 = np.max(np.abs(d_quad.pdf(ys) / closed_pdf - 1.0))
    ok = ok and worst_q1 <= 1e-6

    rng = np.random.default_rng(20)
    worst_marginal = 0.0
    for _ in range(40):
        r1 = rng.uniform(1.5, 6.0)
        rp = rng.uniform(0.5, 5.0)
        x1 = rng.uniform(5.0, 80.0)
        y = rng.uniform(0.1, 120.0)
        via_marginal = predictive_pdf_from_marginal(y, x1, r1, rp, marginal=marginal_flat)
        direct = math.exp(log_unrestricted_base(y, x1, r1, rp))
        worst_marginal = max(worst_marginal, abs(via_marginal / direct - 1.0))
    ok = ok and worst_marginal <= 1e-10
    report(
        ok,
        "criterion 8: oracle equivalence (C closed vs quad "
        f"{worst_c:.1e}; constant-ratio vs closed-form density {worst_q1:.1e}; "
        f"marginal form vs beta prime {worst_marginal:.1e})",
    )


def test_criterion_9_normalization_suite():
    worst = 0.0
    for r1 in (2.0, 3.0, 5.0):
        for r2 in (2.0, 3.0, 5.0):
            for rp in (1.0, 3.0):
                for ratio in (0.25, 1.0, 4.0):
                    p = PredictionProblem(
                        obs_a=SufficientStat(x=30.0, r=r1),
                        obs_b=SufficientStat(x=30.0 / ratio, r=r2),
                        r_prime=rp,
                        window=(0.0, 60.0),
                    )
                    for d in (unrestricted_predictive(p), restricted_predictive(p)):
                        total, _ = integrate.quad(d.pdf, 0, 60, epsabs=0, epsrel=1e-9, limit=200)
                        worst = max(worst, abs(total - 1.0))
    report(worst <= 1e-6, f"criterion 9: window normalization, worst |mass-1| = {worst:.2e}")


def test_criterion_10_vanishing_rival_limit():
    d0 = unrestricted_predictive(table_problem())
    sup = None
    for tiny in (1e-2 * X1, 1e-3 * X1):
        d1 = restricted_predictive(table_problem(x2=tiny))
        ys = np.linspace(0.05, 59.95, 600)
        sup = float(np.max(np.abs(d1.pdf(ys) - d0.pdf(ys))))
    report(sup < 1e-3, f"criterion 10: x2 -> 0 sup-grid distance {sup:.2e} < 1e-3")
