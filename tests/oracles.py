"""Independent oracles the tests check the package against.

These are slow reference forms -- adaptive quadrature of defining
integrals with the prior marginals they integrate, and the restricted
density's single hypergeometric form -- kept out of the package so that
its runtime carries no adaptive integrator and needs no scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, special

from goaltime import distributions as dist
from goaltime.errors import DivergenceError, DomainError, InvalidShapeError
from goaltime.predictive import PredictionProblem
from goaltime.specfun import gauss_2f1, log_betainc

_SHAPE_MARGIN = 1e-9


def marginal_flat(s1, s2):
    """Marginal of an inverse-gamma statistic under the scale prior 1/v: s1/s2."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if np.any(s1 <= 0) or np.any(s2 <= 0):
        raise DomainError("marginal_flat requires positive arguments")
    out = s1 / s2
    return out if out.ndim else float(out)


def marginal_restricted(s1, s2, upper):
    """Marginal when the scale prior 1/v is cut off at ``upper``.

    Equals Gamma(s1+1, s2/upper) / (s2 Gamma(s1)); evaluated through the
    regularized upper gamma so no unnormalized gamma can overflow.
    Recovers ``marginal_flat`` as upper -> inf.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(s1 <= 0) or np.any(s2 <= 0) or np.any(upper <= 0):
        raise DomainError("marginal_restricted requires positive arguments")
    out = s1 * special.gammaincc(s1 + 1.0, s2 / upper) / s2
    return out if out.ndim else float(out)


def log_ordering_constant_closed(k1: float, k2: float, s1: float, s2: float) -> float:
    """log C(k1, k2, s1, s2) in the incomplete-beta closed form
    ``k1 s1 / (k2 s2) I_w(k1+1, s1+1)``, ``w = k2 / (k2 + s2)``.

    The form from which the restricted density's ratio of constants
    reduces to a ratio of ordering probabilities (``predictive``); the
    tests check it against the quadrature below and the 2F1 form.
    """
    return log_betainc(k1 + 1.0, s1 + 1.0, k2 / (k2 + s2)) - math.log(k2) - math.log(s2) + math.log(k1 * s1)


def ordering_constant_closed(k1: float, k2: float, s1: float, s2: float) -> float:
    """C(k1, k2, s1, s2) itself, from ``log_ordering_constant_closed``."""
    return math.exp(log_ordering_constant_closed(k1, k2, s1, s2))


def ordering_constant_quadrature(k1: float, k2: float, s1: float, s2: float) -> float:
    """C(k1, k2, s1, s2) by adaptive quadrature of the defining integral.

    Independent of the incomplete-beta closed form; serves as its
    correctness oracle.
    """
    if min(k1, k2, s1, s2) <= 0:
        raise DomainError("ordering constant requires positive arguments")
    # the inverse-gamma density IG(k1, k2)(v) = k2^k1/Gamma(k1) v^(-k1-1) e^(-k2/v),
    # written out: scipy.stats.invgamma costs about 70 us a call, which
    # makes each quadrature build below about four times slower
    log_norm = k1 * math.log(k2) - math.lgamma(k1)

    def integrand(v):
        ig = math.exp(log_norm - (k1 + 1.0) * math.log(v) - k2 / v)
        return marginal_restricted(s1, s2, v) / v * ig

    val, _ = integrate.quad(integrand, 0, np.inf, epsabs=0, epsrel=1e-10, limit=300)
    return float(val)


@functools.cache
def restricted_predictive_quadrature(problem: PredictionProblem) -> dist.TruncatedDensity:
    """The restricted density with every ordering constant from quadrature.

    Cached per problem: one build runs an adaptive integral per grid node
    (about 1200), and more than one test asks for the fixture problem.
    """
    if problem.obs_b is None:
        raise DomainError("restricted_predictive_quadrature needs the rival statistic obs_b")
    a, b = problem.obs_a, problem.obs_b
    rp = problem.r_prime
    log_c_den = np.log(ordering_constant_quadrature(a.r - 1.0, a.x, b.r - 1.0, b.x))
    log_pref = -special.betaln(a.r - 1.0, rp) + (a.r - 1.0) * np.log(a.x) - log_c_den

    def base(y):
        y = np.asarray(y, dtype=float)
        c_num = np.array(
            [ordering_constant_quadrature(a.r + rp - 1.0, a.x + yi, b.r - 1.0, b.x) for yi in y.ravel()]
        ).reshape(y.shape)
        val = np.exp(log_pref + (rp - 1.0) * np.log(y) - (a.r + rp - 1.0) * np.log(a.x + y))
        return val * c_num

    lo, hi = problem.window
    return dist.truncate(base, lo, hi)


def predictive_pdf_from_marginal(y, x1: float, r1: float, r_prime: float, marginal=marginal_flat):
    """Unrestricted predictive density in its general marginal-ratio form.

    ``marginal(s1, s2)`` is the prior marginal of an inverse-gamma
    statistic; with ``marginal_flat`` this reduces algebraically to the
    beta prime ``B'(r_prime, r1, x1)``.
    """
    if r1 <= 1.0 + _SHAPE_MARGIN:
        raise InvalidShapeError(f"r1 = {r1} needs to exceed 1")
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    pos = y > 0
    yv = y[pos]
    ratio = marginal(r1 + r_prime - 1.0, x1 + yv) / marginal(r1 - 1.0, x1)
    out[pos] = ratio * np.exp(
        -special.betaln(r1 - 1.0, r_prime)
        + (r1 - 1.0) * np.log(x1)
        + (r_prime - 1.0) * np.log(yv)
        - (r1 + r_prime - 1.0) * np.log(x1 + yv)
    )
    return out if y.ndim else float(out)


def log_reg_gauss_2f1_pos(a: float, b: float, c: float, z):
    """log of 2F1~(a, b; c; z) = 2F1(a, b; c; z) / Gamma(c) where it is positive.

    Requires c > 0 and a positive function value, which holds for all
    parameters positive and z <= 0.
    """
    if c <= 0:
        raise DomainError("log_reg_gauss_2f1_pos requires c > 0")
    v = np.asarray(gauss_2f1(a, b, c, z))
    if np.any(v <= 0):
        raise DomainError("2F1 value not positive; log form unavailable")
    out = np.log(v) - special.gammaln(c)
    return out if out.ndim else float(out)


def weighted_beta_prime_logpdf(y, x1: float, x2: float, r1: float, r2: float, r_prime: float):
    """Log of the restricted density in its single weighted-beta-prime form.

    Algebraically equal to ``predictive.log_restricted_base``; an
    independent expression (one hypergeometric ratio instead of an
    ordering-constant ratio) for cross-validation.
    """
    if r1 <= 1.0 + _SHAPE_MARGIN or r2 <= 1.0 + _SHAPE_MARGIN:
        raise InvalidShapeError("restricted estimator needs r1 > 1 and r2 > 1")
    y = np.asarray(y, dtype=float)
    num = log_reg_gauss_2f1_pos(
        r_prime + r1, r_prime + r1 + r2, r_prime + r1 + 1.0, -(x1 + y) / x2
    ) + special.gammaln(r_prime + r1 + 1.0)
    den = log_reg_gauss_2f1_pos(r1, r1 + r2, r1 + 1.0, -x1 / x2) + special.gammaln(r1 + 1.0)
    out = (
        np.log(r1)
        + special.gammaln(r_prime + r1 + r2)
        - r_prime * np.log(x2)
        + (r_prime - 1.0) * np.log(y)
        + num
        - np.log(r_prime + r1)
        - special.gammaln(r_prime)
        - special.gammaln(r1 + r2)
        - den
    )
    return out if out.ndim else float(out)


def _pdf(density):
    return density.pdf if hasattr(density, "pdf") else density


def kl_loss_quad(exact, estimate, window: tuple[float, float], epsrel: float = 1e-7) -> float:
    """KL divergence of ``estimate`` from ``exact`` by adaptive quadrature.

    Same conventions as ``evaluation.kl_loss``: the integrand is 0 where
    the exact density is below 1e-15, and a vanishing estimate where the
    exact density is positive raises ``DivergenceError``.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"bad window {window}")
    p, q = _pdf(exact), _pdf(estimate)

    def integrand(y):
        pv = float(p(y))
        if pv <= 1e-15:
            return 0.0
        qv = float(q(y))
        if qv <= 0.0:
            raise DivergenceError(f"estimate vanishes at y={y} where exact is positive")
        return pv * (np.log(pv) - np.log(qv))

    val, _ = integrate.quad(integrand, lo, hi, epsabs=0, epsrel=epsrel, limit=300)
    return float(val)


def _quad(fn, lo: float, hi: float, epsrel: float) -> float:
    """Adaptive quadrature of ``fn`` over (lo, hi).

    An infinite window is integrated in ``s = log(y - lo)``, where a heavy
    tail in ``y`` becomes light, over ``s`` in [-700, 700] cut at
    0, +-1, +-10 and +-100: beyond those ends lie ``y - lo`` below 1e-304
    and above 1e304.
    """
    if np.isfinite(hi):
        integrand, cuts = fn, (lo, hi)
    else:
        def integrand(s):
            t = math.exp(s)
            return fn(lo + t) * t

        cuts = (-700.0, -100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0, 700.0)
    return float(sum(
        integrate.quad(integrand, a, b, epsabs=0, epsrel=epsrel, limit=400)[0] for a, b in zip(cuts, cuts[1:])
    ))


def window_mass_quad(base, lo: float, hi: float, epsrel: float = 1e-12) -> float:
    """Integral of ``base`` over (lo, hi) by adaptive quadrature."""
    return _quad(lambda y: float(base(np.array([y]))[0]), lo, hi, epsrel)


def window_mean_quad(base, lo: float, hi: float, epsrel: float = 1e-12) -> float:
    """Mean of ``base`` renormalized to (lo, hi), by adaptive quadrature."""
    moment = _quad(lambda y: y * float(base(np.array([y]))[0]), lo, hi, epsrel)
    return moment / window_mass_quad(base, lo, hi, epsrel)
