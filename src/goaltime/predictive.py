"""Bayesian predictive densities for gamma waiting times.

Two estimators of the density of a future waiting time ``Y ~ Gam(r', lam1)``
given an observed statistic ``x1 ~ Gam(r1, lam1)``, under the scale prior
``1/lam``:

* the unrestricted estimator, a three-parameter beta prime
  ``B'(r', r1, x1)`` (``log_unrestricted_base``);
* the restricted estimator, which additionally conditions on an observation
  ``x2 ~ Gam(r2, lam2)`` from a second population together with the ordering
  ``lam1 >= lam2``: the same beta prime reweighted by a ratio of ordering
  probabilities (``log_restricted_base``).

Both log densities come from the one beta prime ``log_unrestricted_base``,
and broadcast over their statistics: ``unrestricted_predictive`` and
``restricted_predictive`` evaluate them on a window grid, and
``evaluation.frequentist_risk`` on a block of Monte Carlo draws at once,
in place in the risk's preallocated arrays (``out=``).

The paper writes the restricted estimator as

    q1(y) = B'(r', r1 - 1, x1)(y) C(r1 + r' - 1, x1 + y, r2 - 1, x2)
            / C(r1 - 1, x1, r2 - 1, x2)

with the ordering constant ``C``, an integral against an inverse-gamma
density that Pfaff's transformation (DLMF 15.8.1) and DLMF 8.17.7 turn
from a 2F1 into ``C(k1, k2, s1, s2) = k1 s1/(k2 s2) I_{k2/(k2+s2)}(k1+1, s1+1)``.
In the ratio the prefactors
``(r1 + r' - 1)/(r1 - 1) x1/(x1 + y)`` turn ``B'(r', r1 - 1, x1)`` into
``B'(r', r1, x1)``, which is q0, and leave

    q1(y) = q0(y) I_{(x1+y)/(x1+y+x2)}(r1 + r', r2) / I_{x1/(x1+x2)}(r1, r2).

Under the scale prior each ``1/lam`` has a gamma posterior, so
``I_{x1/(x1+x2)}(r1, r2)`` is the posterior probability of ``lam1 >= lam2``
given ``(x1, x2)``, and the numerator is the same probability once ``y``
joins team a's data: q1 is q0 reweighted by the ordering's posterior
probability.  The denominator depends only on the observed statistics, so
``restricted_predictive`` computes it once per density, when it builds it.
Both incomplete betas come from ``specfun.log_betainc``, whose second shape
is the rival's goal index ``r2``: at an integer ``r2``, the paper's case
and every default, a finite sum of ``r2`` positive terms (DLMF 8.17.21),
and otherwise a continued fraction (DLMF 8.17.22).  The beta function of
the beta prime comes from ``specfun.log_beta``, so no module here needs
scipy.

In one hypergeometric ratio, the restricted density has the closed
weighted-beta-prime form

    q1(y) = r1 Gamma(r'+r1+r2) x2^(-r') y^(r'-1)
            * 2F1(r'+r1, r'+r1+r2; r'+r1+1; -(x1+y)/x2)
            / ((r'+r1) Gamma(r') Gamma(r1+r2)
               * 2F1(r1, r1+r2; r1+1; -x1/x2)),

with exponents fixed so that the density integrates to one and agrees with
brute-force integration of the posterior.  The tests keep this form, the
quadrature of ``C``'s defining integral and the general marginal-ratio
form of the unrestricted density as oracles (``tests/oracles.py``).  All
densities are renormalized to the prediction window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .errors import DomainError, InvalidShapeError
from .specfun import log_beta, log_betainc

_SHAPE_MARGIN = 1e-9

DEFAULT_WINDOW = (0.0, 60.0)


def check_observed_shape(r: float) -> None:
    """Raise InvalidShapeError unless an observed statistic's shape exceeds 1."""
    if r <= 1.0 + _SHAPE_MARGIN:
        raise InvalidShapeError(f"shape r = {r} too small: the posterior needs r > 1")


def check_future_shape(r_prime: float) -> None:
    """Raise InvalidShapeError unless the future draw's shape is positive."""
    if not r_prime > 0:
        raise InvalidShapeError(f"future shape must be positive, got {r_prime}")


@dataclass(frozen=True)
class SufficientStat:
    """Observed waiting-time statistic x (minutes) under a known shape r."""

    x: float
    r: float

    def __post_init__(self):
        if not self.x > 0:
            raise DomainError(f"statistic must be positive, got {self.x}")
        check_observed_shape(self.r)


@dataclass(frozen=True)
class PredictionProblem:
    """Inputs of one prediction: own statistic, optional rival statistic.

    When ``obs_b`` is present the scale of population a is asserted to
    dominate the scale of population b; callers wanting the reverse
    ordering swap the roles.  ``window = (lo, inf)`` disables truncation.
    """

    obs_a: SufficientStat
    obs_b: SufficientStat | None = None
    r_prime: float = 3.0
    window: tuple[float, float] = DEFAULT_WINDOW

    def __post_init__(self):
        check_future_shape(self.r_prime)
        lo, hi = self.window
        if not (0 <= lo < hi):
            raise DomainError(f"bad window {self.window}")


def log_unrestricted_base(y, x1, r1: float, r_prime: float, out=None):
    """Log of the beta prime density ``B'(r', r1, x1)`` at ``y``, untruncated.

    In the ratio form ``-log B(r', r1) - log x1 + (r'-1) log u
    - (r'+r1) log1p(u)``, ``u = y/x1``, with ``log u`` split into
    ``log y - log x1`` so that only ``log1p`` runs over the broadcast of
    ``y`` and ``x1``; it runs in place in ``out``, an optional float array
    of that broadcast shape.  Returns -inf for y <= 0.
    """
    y = np.asarray(y, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    pos = y > 0
    y = np.where(pos, y, 1.0)
    if out is None:
        out = np.empty(np.broadcast(y, x1).shape)
    np.divide(y, x1, out=out)
    np.log1p(out, out=out)
    out *= r_prime + r1
    np.subtract((r_prime - 1.0) * np.log(y), out, out=out)
    out -= log_beta(r_prime, r1) + r_prime * np.log(x1)
    if not pos.all():
        np.copyto(out, -np.inf, where=~pos)
    return out


def _log_ordering_probability(x1, x2, r1: float, r2: float):
    """log of the posterior probability of ``lam1 >= lam2`` given ``x1`` and
    ``x2``, ``I_w(r1, r2)`` at ``w = x1 / (x1 + x2)``: q1's denominator."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 <= 0) or np.any(x2 <= 0):
        raise DomainError("restricted density requires positive statistics")
    out = log_betainc(r1, r2, x1 / (x1 + x2))
    if not np.all(np.isfinite(out)):
        raise DomainError("ordering probability not finite; log form unavailable")
    return out


def _log_restricted(y, x1, x2, r1: float, r2: float, r_prime: float, log_p_den, out=None, work=None):
    """``log_restricted_base`` with the log of its denominator given: only
    the ``y``-dependent numerator is computed here.

    The numerator's weight ``(x1 + y) / (x1 + y + x2)`` is at least the
    denominator's, so it cannot vanish where the denominator is finite.
    q0 and the numerator's incomplete beta are both of the broadcast shape
    of ``y``, ``x1`` and ``x2`` and alive at once: the result goes to
    ``out`` and the weight, then its incomplete beta, to ``work``, both
    optional float arrays of that shape.
    """
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x1, y, x2).shape
    if out is None:
        out = np.empty(shape)
    if work is None:
        work = np.empty(shape)
    w = np.add(x1, y, out=work)
    np.divide(w, np.add(w, x2, out=out), out=w)
    log_betainc(r1 + r_prime, r2, w, out=w)
    out = log_unrestricted_base(y, x1, r1, r_prime, out=out)
    out += w
    out -= log_p_den
    return out


def log_restricted_base(y, x1, x2, r1: float, r2: float, r_prime: float):
    """Log of the untruncated restricted predictive density.

    The beta prime ``B'(r', r1, x1)`` reweighted by the ratio of ordering
    probabilities ``I_{(x1+y)/(x1+y+x2)}(r1 + r', r2) / I_{x1/(x1+x2)}(r1, r2)``.
    Broadcasts over ``y``, ``x1`` and ``x2`` like ``log_unrestricted_base``.
    """
    check_observed_shape(r1)
    check_observed_shape(r2)
    check_future_shape(r_prime)
    log_p_den = _log_ordering_probability(x1, x2, r1, r2)
    return _log_restricted(y, x1, x2, r1, r2, r_prime, log_p_den)


def unrestricted_predictive(problem: PredictionProblem) -> dist.TruncatedDensity:
    """Predictive density from the own-team statistic alone.

    The flat scale prior gives the beta prime ``B'(r', r1, x1)``; the
    result is renormalized to the problem window.
    """
    a = problem.obs_a

    def base(y):
        return np.exp(log_unrestricted_base(y, a.x, a.r, problem.r_prime))

    lo, hi = problem.window
    return dist.truncate(base, lo, hi)


def restricted_predictive(problem: PredictionProblem) -> dist.TruncatedDensity:
    """Predictive density using the rival statistic and the scale ordering.

    Args:
        problem: must carry ``obs_b``; its ``x`` is taken as already
            preprocessed (see the ingest module for the scaling options).

    Returns:
        q0's beta prime reweighted by the ratio of ordering
        probabilities, renormalized to the problem window.
    """
    if problem.obs_b is None:
        raise DomainError("restricted_predictive needs the rival statistic obs_b")
    a, b = problem.obs_a, problem.obs_b
    log_p_den = _log_ordering_probability(a.x, b.x, a.r, b.r)

    def base(y):
        return np.exp(_log_restricted(y, a.x, b.x, a.r, b.r, problem.r_prime, log_p_den))

    lo, hi = problem.window
    return dist.truncate(base, lo, hi)


@dataclass(frozen=True)
class SummaryRow:
    """Mode, mean and the 20th/50th/90th percentiles of a predictive density."""

    mode: float
    mean: float
    p20: float
    p50: float
    p90: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.mode, self.mean, self.p20, self.p50, self.p90)


def predictive_summaries(density: dist.TruncatedDensity) -> SummaryRow:
    """Summary row of a predictive density over its window."""
    s = dist.summarize(density, probs=(0.2, 0.5, 0.9))
    return SummaryRow(
        mode=s.mode,
        mean=s.mean,
        p20=s.quantiles[0.2],
        p50=s.quantiles[0.5],
        p90=s.quantiles[0.9],
    )
