"""KL loss, frequentist risk by Monte Carlo, and prediction error.

The risk of an estimator at scales (lam1, lam2) is the average KL loss over
the sampling distribution of the observed statistics.  That outer integral
is estimated by Monte Carlo (it is two-dimensional for the restricted
estimator); the inner KL integral per draw is evaluated on a fixed
200-node Gauss-Legendre grid (on the window, or mapped onto (0, inf)
through ``y = t/(1-t)``), vectorized over draws, which the tests pin
against adaptive quadrature to far below the Monte Carlo noise.  Each
estimator's log density on that grid is the one its predictive density
truncates, ``predictive.log_unrestricted_base`` or
``predictive.log_restricted_base``; q1's is q0's plus the log ratio of two
incomplete betas, the ordering probability with the node ``y`` in team a's
data (one per draw and node) over the one without it (one per draw).
The risk keeps this grid rather than the truth's window grid of
``kl_loss``: the window grid needs two to three times the nodes, which
would make the per-draw work of a risk block as much larger.

``kl_loss`` itself, for one pair of densities, is a weighted sum over the
composite Gauss-Legendre window grid of ``distributions``, the grid that
also gives every window mass and summary; the tests check it against
adaptive quadrature too.

Risk is deterministic in (seed, samples, parameters): draws come from
``numpy.random.default_rng`` (PCG64) on seeds derived via ``SeedSequence``,
one child stream per statistic, and reductions run in fixed order.  Both
estimators at a grid point share the same draws (common random numbers).

Unless a finite window is supplied, risks are computed on the untruncated
support: the unrestricted estimator is then minimum-risk equivariant and
its risk is exactly constant in the scale, and both estimators carry equal
risk when the two scales coincide.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from . import predictive as pred
from .errors import DivergenceError, DomainError, MonteCarloError

log = logging.getLogger(__name__)

_KL_FLOOR = 1e-15
_GL_NODES = 200
_MAX_REJECT_FRACTION = 1e-3

DEFAULT_SAMPLES = 20000
DEFAULT_RATIO_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT_LAMBDA1 = 12.0


@dataclass(frozen=True)
class ShapeConfig:
    """Gamma shapes of the observed statistics and the future draw."""

    r1: float = 3.0
    r2: float = 3.0
    r_prime: float = 3.0

    def __post_init__(self):
        pred.check_observed_shape(self.r1)
        pred.check_observed_shape(self.r2)
        pred.check_future_shape(self.r_prime)


@dataclass(frozen=True)
class RiskEstimate:
    risk: float
    std_err: float
    samples: int
    rejected: int = 0


@dataclass(frozen=True)
class RiskCurve:
    """Monte Carlo risk of both estimators along a scale-ratio grid."""

    ratios: tuple[float, ...]
    risk_q0: tuple[float, ...]
    risk_q1: tuple[float, ...]
    std_err_q0: tuple[float, ...]
    std_err_q1: tuple[float, ...]
    samples: int
    seed: int
    lambda1: float = DEFAULT_LAMBDA1
    window: tuple[float, float] | None = None
    shapes: ShapeConfig = field(default_factory=ShapeConfig)


def kl_loss(exact, estimate, window: tuple[float, float]) -> float:
    """KL divergence of ``estimate`` from ``exact`` over ``window``.

    Both are vectorized densities, such as a ``TruncatedDensity``.

    A weighted sum over the composite Gauss-Legendre grid of
    ``distributions.window_grid``; an infinite window is cut where
    ``exact`` leaves no relative mass above 2^-60.  The integrand is taken
    as 0 wherever the exact density is below 1e-15, which cannot move the
    result beyond that level and absorbs underflowed far-tail values.

    Raises:
        DivergenceError: if the estimate vanishes somewhere the exact
            density does not, making the integrand unbounded.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"bad window {window}")
    y, w = dist.window_grid(exact, lo, hi)
    pv = np.asarray(exact(y), dtype=float)
    keep = pv > _KL_FLOOR
    y, w, pv = y[keep], w[keep], pv[keep]
    qv = np.asarray(estimate(y), dtype=float)
    if np.any(qv <= 0.0):
        raise DivergenceError(
            f"estimate vanishes at y={y[np.argmax(qv <= 0.0)]} where exact is positive"
        )
    return float(np.sum(w * pv * (np.log(pv) - np.log(qv))))


def prediction_error(exact, estimator) -> float:
    """KL loss over the truth's truncation window.

    ``exact`` should be the (possibly truncated) law of the future waiting
    time; the integration window is its own window, so the estimator is
    compared on exactly the region where future values can fall.
    """
    if hasattr(exact, "window"):
        window = exact.window
    elif hasattr(estimator, "window"):
        window = estimator.window
    else:
        raise DomainError("prediction_error needs a truncated density to set the window")
    return kl_loss(exact, estimator, window)


def draw_gamma(rng: np.random.Generator, shape: float, scale: float, size: int) -> np.ndarray:
    """Gamma draws in the scale parameterization used throughout."""
    if shape <= 0 or scale <= 0:
        raise DomainError("gamma draws need positive shape and scale")
    return rng.gamma(shape, scale, size=size)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The risk's Gauss-Legendre rule on [-1, 1], built on first use.

    ``leggauss`` solves an eigenproblem, which costs more than a small
    risk block; the rule never changes, so a process builds it once.  Every
    caller gets the same arrays, so they are read-only.
    """
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _quad_grid(window: tuple[float, float] | None):
    """Gauss-Legendre nodes/weights on the window, or on (0, inf) mapped
    through y = t/(1-t)."""
    nodes, weights = _legendre_rule()
    if window is None or not np.isfinite(window[1]):
        lo = 0.0 if window is None else window[0]
        if lo != 0.0:
            raise DomainError("infinite windows must start at 0")
        t = 0.5 * (nodes + 1.0)
        y = t / (1.0 - t)
        w = 0.5 * weights / (1.0 - t) ** 2
    else:
        lo, hi = window
        if not 0 <= lo < hi:
            raise DomainError(f"bad window {window}")
        y = lo + 0.5 * (hi - lo) * (nodes + 1.0)
        w = 0.5 * (hi - lo) * weights
    return y, w


def _kl_batch(y, w, log_truth, truth_pdf, log_base, truncated: bool) -> np.ndarray:
    """Per-draw KL of a batch: rows of ``log_base`` against the fixed truth."""
    if truncated:
        mass = np.sum(w[None, :] * np.exp(log_base), axis=1)
        log_est = log_base - np.log(mass)[:, None]
    else:
        log_est = log_base
    return np.sum(w[None, :] * truth_pdf[None, :] * (log_truth[None, :] - log_est), axis=1)


def frequentist_risk(
    lambda1: float,
    lambda2: float,
    shapes: ShapeConfig,
    estimator_kind: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    window: tuple[float, float] | None = None,
) -> RiskEstimate:
    """Monte Carlo estimate of the KL risk of one estimator.

    Args:
        lambda1, lambda2: true scales of the two populations; ``lambda1 >=
            lambda2`` is required for the restricted estimator, whose
            ordering assumption would otherwise be violated by design.
        shapes: gamma shapes (r1, r2, r_prime).
        estimator_kind: "q0" (unrestricted) or "q1" (restricted).
        samples: Monte Carlo draws, at least 100.
        seed: seeds the draw streams; equal seeds give equal draws for both
            estimator kinds.
        window: finite truncation window, or None for the untruncated
            support.

    Returns:
        RiskEstimate with the sample mean, its standard error, and the
        count of rejected draws (evaluation failures, at most 0.1%).
    """
    if estimator_kind not in ("q0", "q1"):
        raise DomainError(f"unknown estimator kind {estimator_kind!r}")
    if samples < 100:
        raise DomainError("need at least 100 Monte Carlo samples")
    if lambda1 <= 0 or lambda2 <= 0:
        raise DomainError("scales must be positive")
    if estimator_kind == "q1" and lambda1 < lambda2:
        raise DomainError("restricted risk needs lambda1 >= lambda2")

    child1, child2 = np.random.SeedSequence(seed).spawn(2)
    x1s = draw_gamma(np.random.default_rng(child1), shapes.r1, lambda1, samples)
    x2s = draw_gamma(np.random.default_rng(child2), shapes.r2, lambda2, samples)

    y, w = _quad_grid(window)
    truncated = window is not None and np.isfinite(window[1])
    truth = dist.GammaModel(shapes.r_prime, lambda1)
    log_truth = dist.gamma_logpdf(truth, y)
    if truncated:
        mass = np.sum(w * np.exp(log_truth))
        log_truth = log_truth - np.log(mass)
    truth_pdf = np.exp(log_truth)

    kls = np.empty(samples)
    block = 4000
    for start in range(0, samples, block):
        sl = slice(start, min(start + block, samples))
        if estimator_kind == "q0":
            log_base = pred.log_unrestricted_base(y[None, :], x1s[sl, None], shapes.r1, shapes.r_prime)
        else:
            log_base = pred.log_restricted_base(
                y[None, :], x1s[sl, None], x2s[sl, None], shapes.r1, shapes.r2, shapes.r_prime
            )
        kls[sl] = _kl_batch(y, w, log_truth, truth_pdf, log_base, truncated)

    bad = ~np.isfinite(kls)
    rejected = int(bad.sum())
    if rejected:
        log.warning("rejected %d of %d Monte Carlo draws", rejected, samples)
        if rejected > _MAX_REJECT_FRACTION * samples:
            raise MonteCarloError(
                f"{rejected} of {samples} draws failed (> {_MAX_REJECT_FRACTION:.1%})"
            )
        kls = kls[~bad]
    return RiskEstimate(
        risk=float(kls.mean()),
        std_err=float(kls.std(ddof=1) / np.sqrt(kls.size)),
        samples=samples,
        rejected=rejected,
    )


def risk_curve(
    ratio_grid=DEFAULT_RATIO_GRID,
    shapes: ShapeConfig | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    lambda1: float = DEFAULT_LAMBDA1,
    window: tuple[float, float] | None = None,
) -> RiskCurve:
    """Risk of both estimators along a grid of scale ratios lambda1/lambda2.

    ``lambda1`` stays fixed (default 12, the scale of the game data) and
    ``lambda2 = lambda1 / ratio`` moves.  Each grid point derives its own
    seed from ``seed``; within a point both estimators share draws.
    """
    ratios = tuple(float(r) for r in ratio_grid)
    if not ratios or any(b <= a for a, b in zip(ratios, ratios[1:])) or ratios[0] < 1.0:
        raise DomainError("ratio grid must be ascending and start at >= 1")
    shapes = shapes or ShapeConfig()
    point_seeds = np.random.SeedSequence(seed).generate_state(len(ratios))
    q0, q1, se0, se1 = [], [], [], []
    for ratio, point_seed in zip(ratios, point_seeds):
        lam2 = lambda1 / ratio
        e0 = frequentist_risk(lambda1, lam2, shapes, "q0", samples, int(point_seed), window)
        e1 = frequentist_risk(lambda1, lam2, shapes, "q1", samples, int(point_seed), window)
        q0.append(e0.risk)
        q1.append(e1.risk)
        se0.append(e0.std_err)
        se1.append(e1.std_err)
    return RiskCurve(
        ratios=ratios,
        risk_q0=tuple(q0),
        risk_q1=tuple(q1),
        std_err_q0=tuple(se0),
        std_err_q1=tuple(se1),
        samples=samples,
        seed=seed,
        lambda1=lambda1,
        window=window,
        shapes=shapes,
    )
