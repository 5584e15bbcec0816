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

At an integer ``r2 = n``, the paper's case and every default, each
probability is a power times a finite sum (DLMF 8.17.21):
``I_x(c, n) = x^c S_c(1 - x)`` with ``S_c(u) = sum_{j<n} (c)_j / j! u^j``.
On the scale ``s = x1 + x2`` the powers ``((x1 + y)/(s + y))^a`` and
``(x1/s)^r1`` of the two probabilities and q0's ``x1^r1 / (x1 + y)^a``
leave q0's formula at scale ``s``: with ``a = r1 + r'``, ``t = y/s`` and
``rho = x2/s < 1``,

    log q1(y) = (r'-1) log y - [log B(r', r1) + r' log s + log S_r1(rho)]
                - a log1p(t) + log S_a(rho/(1 + t)).

No term is formed that another cancels, and at ``x2 = 0`` this is q0.
``S`` is a sum of positive terms with nothing to converge, taken by
Horner's rule on its coefficients ``(c)_j / j!``.  At any other ``r2``
the scale is ``x1``, and both probabilities come from the continued
fraction of ``specfun.log_betainc`` (DLMF 8.17.22):

    log q1(y) = (r'-1) log y - [log B(r', r1) + r' log x1 + log I_w(r1, r2)]
                - a log1p(y/x1) + log I_x(a, r2),

``w = x1/(x1 + x2)``.  q0 is the same at scale ``x1`` with neither
probability.  So each log density is the kernel ``K``, its last two
terms, which couple ``y`` with the statistics, plus the node term
``(r'-1) log y``, minus the statistics' term in brackets, which depends
on no ``y``.

``_Kernel`` is one estimator's set-up from its shapes ``(r1, r2, r')``:
it chooses the method once for both probabilities, holds the sums'
coefficients, names the scale (``_Kernel.scale``) and the work rows a call
needs, evaluates ``K``, and computes the statistics' term
(``_Kernel.log_stat``), which the densities and ``evaluation``'s risk
share.  A call reads the statistics only through the arrays its caller
forms: ``t`` and ``rho`` for the sum, ``t = y/x1`` and the continued
fraction's ``x`` otherwise, nothing more for q0.  The densities form them
in scalar arithmetic (``_kernel_input``), the risk from matrix products
of per-draw and per-node rows, and both run the one kernel.  Both
densities are built by one path (``_log_density``), which sets the kernel
up, computes the statistics' term once, and returns a function of ``y``
that does only per-point work: ``unrestricted_predictive`` and
``restricted_predictive`` truncate it, and ``log_unrestricted_base`` and
``log_restricted_base`` evaluate it.  The beta function of the beta prime
comes from ``specfun.log_beta``, so no module here needs scipy.

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
    """The set-up of one estimator's log density from its shapes
    ``(r1, r2, r')``: the kernel ``K``, the part that couples ``y`` with
    the statistics, and the statistics' term (module docstring).
    ``r2=None`` gives q0.

    The set-up chooses the method once for both ordering terms.  At an
    integer ``r2 = n`` up to ``_MAX_INT_B``, while the sum's bound
    ``log C(a+n-1, n-1)`` at ``a = r1 + r'`` stays ``_MAX_LOG_SUM`` below
    the double range (the bound grows with ``a``, so it holds at ``r1``
    too), both are finite sums on the scale ``s = x1 + x2``,

        K = -a log1p(t) + log S_a(u),    t = y/s,  u = rho/(1 + t),

    with ``rho = x2/s``, and the set-up holds both sums' coefficients
    ``(c)_j / j!``, ``coef`` at ``c = a`` and ``coef_den`` at ``c = r1``.
    At any other ``r2`` the scale is ``x1``, ``t = y/x1``, and ``log I_x(a,
    r2)`` comes from ``log_betainc``; q0's kernel is ``-a log1p(y/x1)``.

    The kernel reads the statistics only through arrays its caller forms
    (``_kernel_input`` for the densities, products of per-draw and
    per-node rows for ``evaluation``'s risk): ``t``, and ``aux``, ``rho``
    for the sum or the continued fraction's ``x``.  A call writes K over
    ``t``, a float array, and ``x`` over ``aux``; the sum's two
    intermediates go to ``work``, an optional ``(rows,) + t.shape`` stack,
    and ``rho`` broadcasts against ``t``.  ``rows`` is 2 for the sum and 0
    otherwise.
    """

    def __init__(self, r1: float, r2, r_prime: float):
        self.r1, self.r2, self.r_prime = r1, r2, r_prime
        self.a = a = r1 + r_prime
        self.coef = self.coef_den = None
        if r2 is not None and float(r2).is_integer() and r2 <= _MAX_INT_B and (
            math.lgamma(a + r2) - math.lgamma(a + 1.0) - math.lgamma(r2) < _MAX_LOG_SUM
        ):
            self.coef, self.coef_den = [1.0], [1.0]
            for j in range(1, int(r2)):
                self.coef.append(self.coef[-1] * (a + j - 1.0) / j)
                self.coef_den.append(self.coef_den[-1] * (r1 + j - 1.0) / j)
        self.rows = 2 if self.coef else 0

    def scale(self, x1, x2):
        """The scale the kernel's ``t`` divides ``y`` by: ``x1 + x2`` for
        the sum, else ``x1``."""
        return x1 + x2 if self.coef else x1

    def log_stat(self, x1, x2):
        """The statistics' term ``log B(r', r1) + r' log s`` plus the
        ordering term, ``log S_r1(x2/s)`` for the sum and ``log
        I_{x1/(x1+x2)}(r1, r2)`` for the continued fraction (none for q0),
        with ``s`` the scale; it depends on no ``y``."""
        s = self.scale(x1, x2)
        out = log_beta(self.r_prime, self.r1) + self.r_prime * np.log(s)
        if self.coef:
            return out + _log_sum(self.coef_den, np.divide(x2, s), np.empty(np.shape(s)))
        if self.r2 is not None:
            return out + log_betainc(self.r1, self.r2, x1 / (x1 + x2))
        return out

    def __call__(self, t, aux=None, work=None):
        if self.coef:
            work = np.empty((2,) + t.shape) if work is None else work
            # u = x2/(s + y) = rho/(1 + t)
            u = np.add(t, 1.0, out=work[1, ...])
            np.divide(aux, u, out=u)
            # log S_a(u) takes aux's place as K's second term
            aux = _log_sum(self.coef, u, work[0, ...])
        elif aux is not None:
            log_betainc(self.a, self.r2, aux, out=aux)
        np.log1p(t, out=t)
        t *= -self.a
        if aux is not None:
            t += aux
        return t


def _log_sum(coef, u, out):
    """``log S(u) = log sum_j coef[j] u^j`` into ``out`` by Horner's rule,
    two in-place operations a step; ``coef`` starts at 1 and has at least
    two terms, as at every integer ``r2 > 1``."""
    np.multiply(u, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        out += c
        out *= u
    out += 1.0
    return np.log(out, out=out)


def _kernel_input(kernel: _Kernel, y, x1, x2):
    """The arrays ``kernel`` reads at ``y``, from scalar or broadcast
    statistics, in the densities' arithmetic: ``t``, and ``aux`` for q1
    (``_Kernel``; None for q0)."""
    # a built density's statistics are scalars: y alone fixes the shape
    if np.isscalar(x1) and (x2 is None or np.isscalar(x2)):
        t = np.empty(np.shape(y))
    else:
        t = np.empty(np.broadcast_shapes(np.shape(y), np.shape(x1), np.shape(x2)))
    if kernel.coef or kernel.r2 is None:
        s = kernel.scale(x1, x2)
        return np.divide(y, s, out=t), np.divide(x2, s) if kernel.coef else None
    # x = (x1 + y)/(x1 + y + x2)
    x = np.add(x1, y, out=np.empty(t.shape))
    np.divide(x, np.add(x, x2, out=t), out=x)
    return np.divide(y, x1, out=t), x


def _check_statistic(name: str, x):
    """``x`` as a float array; DomainError unless each of its values is
    positive and finite, as a ``SufficientStat``'s must be."""
    x = np.asarray(x, dtype=float)
    bad = ~((0 < x) & (x < math.inf))
    if bad.any():
        raise DomainError(f"statistic {name} must be positive and finite, got {x[bad][0]}")
    return x


def _log_density(x1, x2, r1: float, r2, r_prime: float):
    """log q0 (``x2=None``) or log q1 at the given statistics, built once:
    the kernel is set up and its statistics' term computed here, so the
    returned function of ``y`` does only per-point work, the kernel plus
    the node term ``(r'-1) log y`` minus that term.  -inf for y <= 0."""
    kernel = _Kernel(r1, None if x2 is None else r2, r_prime)
    log_stat = kernel.log_stat(x1, x2)
    # not finite only where the continued fraction's x1/(x1 + x2) underflows
    # to 0 or x1 + x2 overflows
    if not np.isfinite(log_stat).all():
        raise DomainError("ordering probability not finite; log form unavailable")

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
            or q1's statistics' term is not finite in doubles: where
            ``x1 + x2`` overflows or, at a non-integer ``r2``, where
            ``x1/(x1 + x2)`` underflows to 0.
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
