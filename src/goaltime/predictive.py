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

Both log densities broadcast over their statistics, and
``unrestricted_predictive`` and ``restricted_predictive`` evaluate them on
a window grid.

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
probability.

Both probabilities are one function of ``y``, the kernel

    K(y; a) = log I_x(a, r2) - a log1p(y/x1),    x = (x1 + y)/(x1 + x2 + y),

at ``a = r1 + r'`` for the numerator, where its second term is q0's
``log1p`` term, and at ``y = 0`` and ``a = r1`` for the denominator, which
is ``log I_{x1/(x1+x2)}(r1, r2)`` itself.  So

    log q1(y) = -log B(r', r1) - r' log x1 + (r'-1) log y
                + K(y; r1 + r') - K(0; r1).

The denominator depends only on the observed statistics, so
``restricted_predictive`` computes it once per density, when it builds it.
So does the whole statistics' term, ``log B(r', r1) + r' log x1`` plus
that log denominator (``_log_stat_term``): ``unrestricted_predictive`` and
``restricted_predictive`` compute it once, as they compute q1's
denominator, and a built density's call does only per-point work.

The second shape is the rival's goal index ``r2``.  With the complement
``u = x2/(x1 + x2 + y)`` of ``x``, an integer ``r2 = n`` (the paper's case
and every default) gives ``I_x(a, n) = x^a S_n(u)`` with the finite sum
``S_n(u) = sum_{j<n} (a)_j / j! u^j`` (DLMF 8.17.21), and
``-a log1p(y/x1)`` cancels ``a log x`` exactly:
``a log x - a log1p(y/x1) = -a log1p((x2 + y)/x1)``.  So

    K(y; a) = -a log1p((x2 + y)/x1) + log S_n(u),

q0's ``log1p`` term with ``x2`` added inside it, plus one finite sum; at
``x2 = 0`` it is q0's.  ``_log_kernel`` evaluates it (``x2=None`` gives
q0's ``-a log1p(y/x1)``), and both densities and ``evaluation``'s risk add
the node term ``(r'-1) log y`` and the statistics' term to it.  A
non-integer ``r2`` has no sum to split off: there the kernel takes
``log I_x(a, r2)`` from the continued fraction of ``specfun.log_betainc``
(DLMF 8.17.22).  The sum is ``specfun._log_int_sum``, and the beta
function of the beta prime comes from ``specfun.log_beta``, so no module
here needs scipy.

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

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .errors import DomainError, InvalidShapeError
from .specfun import _int_terms, _log_int_sum, log_beta, log_betainc

_SHAPE_MARGIN = 1e-9

DEFAULT_WINDOW = (0.0, 60.0)


def check_observed_shape(r: float) -> None:
    """Raise InvalidShapeError unless an observed statistic's shape is finite
    and exceeds 1."""
    if not math.isfinite(r):
        raise InvalidShapeError(f"shape r = {r} must be finite")
    if r <= 1.0 + _SHAPE_MARGIN:
        raise InvalidShapeError(f"shape r = {r} too small: the posterior needs r > 1")


def check_future_shape(r_prime: float) -> None:
    """Raise InvalidShapeError unless the future draw's shape is positive and finite."""
    if not 0 < r_prime < math.inf:
        raise InvalidShapeError(f"future shape must be positive and finite, got {r_prime}")


@dataclass(frozen=True)
class SufficientStat:
    """Observed waiting-time statistic x (minutes) under a known shape r."""

    x: float
    r: float

    def __post_init__(self):
        if not 0 < self.x < math.inf:
            raise DomainError(f"statistic must be positive and finite, got {self.x}")
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


def _log_kernel(y, x1, x2, a: float, r2, out=None, work=None):
    """The kernel ``K(y; a) = log I_x(a, r2) - a log1p(y/x1)`` of the
    module docstring, the part of a log density that couples ``y`` with
    the statistics; at ``y = 0`` it is the ordering probability itself.
    At an integer ``r2`` it is

        -a log1p((x2 + y)/x1) + log S(u),    u = x2/(x1 + x2 + y),

    with ``S`` the sum of ``specfun._log_int_sum``; at any other ``r2``
    ``log I_x(a, r2)`` comes from ``log_betainc``.  q0's ``x2=None``
    leaves ``-a log1p(y/x1)``.

    Broadcasts over ``y``, ``x1`` and ``x2``, which must be positive
    (``y`` non-negative).  The result goes to ``out``, an optional float
    array of the broadcast shape, and q1's intermediates to ``work``, an
    optional stack of such arrays: two at an integer ``r2`` (shape
    ``(2,) + shape``), one at any other.
    """
    if out is None:
        # a built density's statistics are scalars: y alone fixes the shape
        if np.isscalar(x1) and (x2 is None or np.isscalar(x2)):
            out = np.empty(np.shape(y))
        else:
            out = np.empty(np.broadcast_shapes(np.shape(y), np.shape(x1), np.shape(x2)))
    if x2 is None:
        t = np.divide(y, x1, out=out)
    else:
        n = _int_terms(a, r2)
        if work is None:
            work = np.empty((2 if n else 1,) + out.shape)
        if n:
            # t = (x2 + y)/x1, and u = x2/(x1 + x2 + y) = (x2/x1)/(1 + t)
            t = np.add(x2, y, out=out)
            t /= x1
            u = np.add(t, 1.0, out=work[1, ...])
            np.divide(np.divide(x2, x1), u, out=u)
            _log_int_sum(a, n, u, work[0, ...])
        else:
            w = np.add(x1, y, out=work[0, ...])
            np.divide(w, np.add(w, x2, out=out), out=w)
            log_betainc(a, r2, w, out=w)
            t = np.divide(y, x1, out=out)
    np.log1p(t, out=t)
    t *= -a
    if x2 is not None:
        t += work[0]
    return t


def _log_stat_term(x1, r1: float, r_prime: float, log_p_den=0.0):
    """The statistics' term ``log B(r', r1) + r' log x1 + log_p_den`` of
    the log density, with ``log_p_den`` the log of q1's denominator (0 for
    q0); it depends on no ``y``, so a built density computes it once."""
    return log_beta(r_prime, r1) + r_prime * np.log(x1) + log_p_den


def _log_density(y, x1, x2, r1: float, r2, r_prime: float, log_stat):
    """log q0 (``x2=None``) or log q1 given the statistics' term of
    ``_log_stat_term``: the kernel, plus the node term ``(r'-1) log y``,
    minus ``log_stat``.  -inf for y <= 0."""
    y = np.asarray(y, dtype=float)
    pos = y > 0
    all_pos = pos.all()
    if not all_pos:
        y = np.where(pos, y, 1.0)
    out = _log_kernel(y, x1, x2, r1 + r_prime, r2)
    out += (r_prime - 1.0) * np.log(y)
    out -= log_stat
    if not all_pos:
        np.copyto(out, -np.inf, where=~pos)
    return out


def log_unrestricted_base(y, x1, r1: float, r_prime: float):
    """Log of the beta prime density ``B'(r', r1, x1)`` at ``y``, untruncated.

    ``-log B(r', r1) - r' log x1 + (r'-1) log y - (r'+r1) log1p(y/x1)``:
    the kernel at ``x2=None`` (``_log_kernel``) with the node and statistic
    terms.  Broadcasts over ``y`` and ``x1``.  Returns -inf for y <= 0.
    """
    return _log_density(y, x1, None, r1, None, r_prime, _log_stat_term(x1, r1, r_prime))


def _log_ordering_probability(x1, x2, r1: float, r2: float):
    """log of the posterior probability of ``lam1 >= lam2`` given ``x1`` and
    ``x2``, ``I_w(r1, r2)`` at ``w = x1 / (x1 + x2)``: q1's denominator,
    the kernel at ``y = 0`` and ``a = r1`` (module docstring)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 <= 0) or np.any(x2 <= 0):
        raise DomainError("restricted density requires positive statistics")
    # x2/x1 may overflow; the result is then not finite and raises below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _log_kernel(0.0, x1, x2, r1, r2)
    if not np.all(np.isfinite(out)):
        raise DomainError("ordering probability not finite; log form unavailable")
    return out


def log_restricted_base(y, x1, x2, r1: float, r2: float, r_prime: float):
    """Log of the untruncated restricted predictive density.

    The beta prime ``B'(r', r1, x1)`` reweighted by the ratio of ordering
    probabilities ``I_{(x1+y)/(x1+y+x2)}(r1 + r', r2) / I_{x1/(x1+x2)}(r1, r2)``,
    evaluated as the kernel of ``_log_kernel`` with the node and statistic
    terms.  Broadcasts over ``y``, ``x1`` and ``x2`` like
    ``log_unrestricted_base``.
    """
    check_observed_shape(r1)
    check_observed_shape(r2)
    check_future_shape(r_prime)
    log_p_den = _log_ordering_probability(x1, x2, r1, r2)
    return _log_density(y, x1, x2, r1, r2, r_prime, _log_stat_term(x1, r1, r_prime, log_p_den))


def unrestricted_predictive(problem: PredictionProblem) -> dist.TruncatedDensity:
    """Predictive density from the own-team statistic alone.

    The flat scale prior gives the beta prime ``B'(r', r1, x1)``; the
    result is renormalized to the problem window.
    """
    a = problem.obs_a
    log_stat = _log_stat_term(a.x, a.r, problem.r_prime)

    def base(y):
        return np.exp(_log_density(y, a.x, None, a.r, None, problem.r_prime, log_stat))

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
    log_stat = _log_stat_term(a.x, a.r, problem.r_prime, log_p_den)

    def base(y):
        return np.exp(_log_density(y, a.x, b.x, a.r, b.r, problem.r_prime, log_stat))

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
