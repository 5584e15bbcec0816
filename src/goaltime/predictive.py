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

The denominator depends only on the observed statistics, and so does
the whole statistics' term, ``log B(r', r1) + r' log x1`` plus that log
denominator (``_log_stat_term``).  Both densities are built by one path
(``_log_density``), which sets the kernel up, computes that term once,
and returns a function of ``y`` that does only per-point work:
``unrestricted_predictive`` and ``restricted_predictive`` truncate it, and
``log_unrestricted_base`` and ``log_restricted_base`` evaluate it.

The second shape is the rival's goal index ``r2``.  With the complement
``u = x2/(x1 + x2 + y)`` of ``x``, an integer ``r2 = n`` (the paper's case
and every default) gives ``I_x(a, n) = x^a S_n(u)`` with the finite sum
``S_n(u) = sum_{j<n} (a)_j / j! u^j`` (DLMF 8.17.21), and
``-a log1p(y/x1)`` cancels ``a log x`` exactly:
``a log x - a log1p(y/x1) = -a log1p((x2 + y)/x1)``.  So

    K(y; a) = -a log1p((x2 + y)/x1) + log S_n(u),

q0's ``log1p`` term with ``x2`` added inside it, plus one finite sum; at
``x2 = 0`` it is q0's.  ``S_n`` is a sum of positive terms with nothing to
converge, taken by Horner's rule on the coefficients ``(a)_j / j!``.
``_Kernel`` evaluates ``K`` (``r2=None`` gives q0's ``-a log1p(y/x1)``),
and both densities and ``evaluation``'s risk add the node term
``(r'-1) log y`` and the statistics' term to it.  It is set up once from
its shapes ``(a, r2)``: the set-up chooses between the sum and, at a
non-integer ``r2``, which has no sum to split off, the continued fraction
of ``specfun.log_betainc`` (DLMF 8.17.22); it holds the sum's
coefficients; and it says how many work rows a call needs.  A call reads
the statistics only through the arrays its caller forms: ``t``, the
``log1p`` term's argument, and ``rho = x2/x1`` for the sum or the
continued fraction's ``x``.  The densities form them in scalar
arithmetic (``_kernel_input``), the risk from matrix products of
per-draw and per-node rows, and both run the one kernel.  The beta
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
from .specfun import log_beta, log_betainc

_SHAPE_MARGIN = 1e-9
# the integer-r2 sum is used up to this r2, and only while its bound
# log C(a+r2-1, r2-1) on log S stays this far below the double range
_MAX_INT_B = 1000
_MAX_LOG_SUM = 700.0

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


class _Kernel:
    """The kernel ``K(y; a) = log I_x(a, r2) - a log1p(y/x1)`` of the
    module docstring, the part of a log density that couples ``y`` with
    the statistics, set up once from its shapes ``(a, r2)``; at ``y = 0``
    it is the ordering probability itself.  ``r2=None`` gives q0's
    ``-a log1p(y/x1)``.

    The set-up chooses the method.  At an integer ``r2 = n`` up to
    ``_MAX_INT_B``, while the sum's bound ``log C(a+n-1, n-1)`` stays
    ``_MAX_LOG_SUM`` below the double range, the kernel is

        -a log1p((x2 + y)/x1) + log S(u),    u = x2/(x1 + x2 + y),

    and the set-up holds the sum's coefficients ``(a)_j / j!``; at any
    other ``r2``, ``log I_x(a, r2)`` comes from ``log_betainc``.

    The kernel reads the statistics only through arrays its caller forms
    (``_kernel_input`` for the densities, products of per-draw and
    per-node rows for ``evaluation``'s risk): ``t``, the argument of the
    ``log1p`` term, ``(x2 + y)/x1`` for the sum and ``y/x1`` otherwise;
    and ``aux``, ``rho = x2/x1`` for the sum, which with ``t`` gives
    ``u = rho/(1 + t)``, or the continued fraction's argument ``x``.  A
    call writes K over ``t``, a float array, and ``x`` over ``aux``; the
    sum's two intermediates go to ``work``, an optional ``(rows,) +
    t.shape`` stack, and ``rho`` broadcasts against ``t``.  ``rows`` is
    2 for the sum and 0 otherwise.
    """

    def __init__(self, a: float, r2=None):
        self.a, self.r2 = a, r2
        self.coef = None
        self.rows = 0
        if r2 is not None and float(r2).is_integer() and r2 <= _MAX_INT_B and (
            math.lgamma(a + r2) - math.lgamma(a + 1.0) - math.lgamma(r2) < _MAX_LOG_SUM
        ):
            self.coef = [1.0]
            for j in range(1, int(r2)):
                self.coef.append(self.coef[-1] * (a + j - 1.0) / j)
            self.rows = 2

    def __call__(self, t, aux=None, work=None):
        coef = self.coef
        if coef:
            if work is None:
                work = np.empty((2,) + t.shape)
            # u = x2/(x1 + x2 + y) = rho/(1 + t)
            u = np.add(t, 1.0, out=work[1, ...])
            np.divide(aux, u, out=u)
            # log S(u) by Horner's rule, two in-place operations a step;
            # it takes aux's place as K's second term
            aux = work[0, ...]
            if len(coef) == 1:
                aux.fill(0.0)
            else:
                np.multiply(u, coef[-1], out=aux)
                for c in coef[-2:0:-1]:
                    aux += c
                    aux *= u
                aux += 1.0
                np.log(aux, out=aux)
        elif aux is not None:
            log_betainc(self.a, self.r2, aux, out=aux)
        np.log1p(t, out=t)
        t *= -self.a
        if aux is not None:
            t += aux
        return t


def _kernel_input(kernel: _Kernel, y, x1, x2):
    """The arrays ``kernel`` reads at ``y``, from scalar or broadcast
    statistics, in the densities' arithmetic: ``t``, and ``aux`` for q1
    (``_Kernel``; None for q0)."""
    # a built density's statistics are scalars: y alone fixes the shape
    if np.isscalar(x1) and (x2 is None or np.isscalar(x2)):
        t = np.empty(np.shape(y))
    else:
        t = np.empty(np.broadcast_shapes(np.shape(y), np.shape(x1), np.shape(x2)))
    if kernel.coef:
        np.add(x2, y, out=t)
        t /= x1
        return t, np.divide(x2, x1)
    if kernel.r2 is None:
        return np.divide(y, x1, out=t), None
    # x = (x1 + y)/(x1 + y + x2)
    x = np.add(x1, y, out=np.empty(t.shape))
    np.divide(x, np.add(x, x2, out=t), out=x)
    return np.divide(y, x1, out=t), x


def _log_stat_term(x1, r1: float, r_prime: float, log_p_den=0.0):
    """The statistics' term ``log B(r', r1) + r' log x1 + log_p_den`` of
    the log density, with ``log_p_den`` the log of q1's denominator (0 for
    q0); it depends on no ``y``, so a built density computes it once."""
    return log_beta(r_prime, r1) + r_prime * np.log(x1) + log_p_den


def _check_statistic(name: str, x):
    """``x`` as a float array; DomainError unless each of its values is
    positive and finite, as a ``SufficientStat``'s must be."""
    x = np.asarray(x, dtype=float)
    bad = ~((0 < x) & (x < math.inf))
    if bad.any():
        raise DomainError(f"statistic {name} must be positive and finite, got {x[bad][0]}")
    return x


def _log_ordering_probability(x1, x2, r1: float, r2: float):
    """log of the posterior probability of ``lam1 >= lam2`` given ``x1`` and
    ``x2``, ``I_w(r1, r2)`` at ``w = x1 / (x1 + x2)``: q1's denominator,
    the kernel at ``y = 0`` and ``a = r1`` (module docstring).  The
    statistics are taken as checked (``_check_statistic``), and scalars
    stay scalars, so a built density's kernel runs on its one point."""
    kernel = _Kernel(r1, r2)
    # x2/x1 may overflow; the result is then not finite and raises below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = kernel(*_kernel_input(kernel, 0.0, x1, x2))
    if not np.isfinite(out).all():
        raise DomainError("ordering probability not finite; log form unavailable")
    return out


def _log_density(x1, x2, r1: float, r2, r_prime: float):
    """log q0 (``x2=None``) or log q1 at the given statistics, built once:
    the kernel is set up and the statistics' term of ``_log_stat_term``,
    q1's denominator included, computed here, so the returned function of
    ``y`` does only per-point work, the kernel plus the node term
    ``(r'-1) log y`` minus that term.  -inf for y <= 0."""
    kernel = _Kernel(r1 + r_prime, None if x2 is None else r2)
    log_p_den = 0.0 if x2 is None else _log_ordering_probability(x1, x2, r1, r2)
    log_stat = _log_stat_term(x1, r1, r_prime, log_p_den)

    def log_q(y):
        y = np.asarray(y, dtype=float)
        pos = y > 0
        all_pos = pos.all()
        if not all_pos:
            y = np.where(pos, y, 1.0)
        out = kernel(*_kernel_input(kernel, y, x1, x2))
        out += (r_prime - 1.0) * np.log(y)
        out -= log_stat
        if not all_pos:
            np.copyto(out, -np.inf, where=~pos)
        return out

    return log_q


def log_unrestricted_base(y, x1, r1: float, r_prime: float):
    """Log of the beta prime density ``B'(r', r1, x1)`` at ``y``, untruncated.

    ``-log B(r', r1) - r' log x1 + (r'-1) log y - (r'+r1) log1p(y/x1)``:
    q0's kernel with the node and statistic terms (``_log_density``).
    Broadcasts over ``y`` and ``x1``.  Returns -inf for y <= 0.  ``r1`` may
    be any positive shape here, as in the general beta prime, not only one
    that q0's posterior allows (``check_observed_shape``).

    Raises:
        InvalidShapeError: if ``r1`` or ``r'`` is not positive and finite.
        DomainError: if some ``x1`` is not positive and finite.
    """
    if not 0 < r1 < math.inf:
        raise InvalidShapeError(f"shape r1 must be positive and finite, got {r1}")
    check_future_shape(r_prime)
    _check_statistic("x1", x1)
    return _log_density(x1, None, r1, None, r_prime)(y)


def log_restricted_base(y, x1, x2, r1: float, r2: float, r_prime: float):
    """Log of the untruncated restricted predictive density.

    The beta prime ``B'(r', r1, x1)`` reweighted by the ratio of ordering
    probabilities ``I_{(x1+y)/(x1+y+x2)}(r1 + r', r2) / I_{x1/(x1+x2)}(r1, r2)``,
    evaluated as q1's kernel with the node and statistic terms
    (``_log_density``).  Broadcasts over ``y``, ``x1`` and ``x2`` like
    ``log_unrestricted_base``.

    Raises:
        InvalidShapeError: if ``r1`` or ``r2`` is not finite and above 1,
            or ``r'`` is not positive and finite.
        DomainError: if some ``x1`` or ``x2`` is not positive and finite,
            or q1's denominator is not finite in doubles.
    """
    check_observed_shape(r1)
    check_observed_shape(r2)
    check_future_shape(r_prime)
    _check_statistic("x1", x1)
    _check_statistic("x2", x2)
    return _log_density(x1, x2, r1, r2, r_prime)(y)


def _truncated(problem: PredictionProblem, obs_b: SufficientStat | None) -> dist.TruncatedDensity:
    """q0 (``obs_b=None``) or q1 of ``problem``, renormalized to its window."""
    a = problem.obs_a
    x2, r2 = (None, None) if obs_b is None else (obs_b.x, obs_b.r)
    log_q = _log_density(a.x, x2, a.r, r2, problem.r_prime)
    lo, hi = problem.window
    return dist.truncate(lambda y: np.exp(log_q(y)), lo, hi)


def unrestricted_predictive(problem: PredictionProblem) -> dist.TruncatedDensity:
    """Predictive density from the own-team statistic alone.

    The flat scale prior gives the beta prime ``B'(r', r1, x1)``; the
    result is renormalized to the problem window.
    """
    return _truncated(problem, None)


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
    return _truncated(problem, problem.obs_b)


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
