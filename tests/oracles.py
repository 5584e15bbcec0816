"""Independent oracles the tests check the package against.

These are slow reference forms -- quadrature of defining integrals with
the prior marginals they integrate, and the restricted density's single
hypergeometric form -- kept out of the package so that its runtime
carries no adaptive integrator and needs no scipy.
"""

from __future__ import annotations

import math

import mpmath as mp

import numpy as np
from scipy import integrate, special

from goaltime import distributions as dist
from goaltime.errors import DivergenceError, DomainError, InvalidShapeError
from goaltime.evaluation import _risk_rule
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


def ordering_constant_quadrature(k1, k2, s1, s2):
    """C(k1, k2, s1, s2) by a fixed quadrature rule on the defining integral.

    Independent of the incomplete-beta closed form; serves as its
    correctness oracle.  The integral over v of ``marginal_restricted(s1,
    s2, v) / v`` against the inverse-gamma density IG(k1, k2)(v) is taken
    in ``tau = log(k2 / v)``, where IG(k1, k2)(v) dv is
    ``exp(k1 tau - e^tau) / Gamma(k1) dtau``, and then in ``t`` with
    ``tau = pi/2 sinh(t)``: both tails decay double-exponentially, so the
    trapezoid rule with step 1/64 on [-5, 5] converges (to about 1e-14
    against mpmath, up to k1 = 100).  The arguments broadcast; an array of
    constants costs one evaluation of the integrand per node and element.
    """
    k1, k2, s1, s2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (k1, k2, s1, s2)))
    if any(np.any(arr <= 0) for arr in (k1, k2, s1, s2)):
        raise DomainError("ordering constant requires positive arguments")
    t = np.linspace(-5.0, 5.0, 641)
    tau = 0.5 * np.pi * np.sinh(t)
    k1, k2, s1, s2 = (arr[..., None] for arr in (k1, k2, s1, s2))
    v = k2 * np.exp(-tau)
    ig = np.exp(k1 * tau - np.exp(tau) - special.gammaln(k1)) * (0.5 * np.pi * np.cosh(t))
    out = (t[1] - t[0]) * np.sum(marginal_restricted(s1, s2, v) / v * ig, axis=-1)
    return out if out.ndim else float(out)


def restricted_predictive_quadrature(problem: PredictionProblem) -> dist.TruncatedDensity:
    """The restricted density with every ordering constant from quadrature."""
    if problem.obs_b is None:
        raise DomainError("restricted_predictive_quadrature needs the rival statistic obs_b")
    a, b = problem.obs_a, problem.obs_b
    rp = problem.r_prime
    log_c_den = np.log(ordering_constant_quadrature(a.r - 1.0, a.x, b.r - 1.0, b.x))
    log_pref = -special.betaln(a.r - 1.0, rp) + (a.r - 1.0) * np.log(a.x) - log_c_den

    def base(y):
        y = np.asarray(y, dtype=float)
        c_num = ordering_constant_quadrature(a.r + rp - 1.0, a.x + y, b.r - 1.0, b.x)
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

    Same conventions as ``evaluation.prediction_error`` over ``window``:
    the integrand is 0 where the exact density is below 1e-15, and a
    vanishing estimate where the exact density is positive raises
    ``DivergenceError``.
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


def _window_rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a fixed rule for integrals over (lo, hi).

    The trapezoid rule with step 1/8 in ``s``, with ``y = lo + (hi - lo)/(1
    + e^-s)`` on a finite window and ``y = lo + e^s`` on an infinite one.
    Either map takes a density with an endpoint singularity ``y^(r'-1)``
    and a heavy tail to an integrand that decays exponentially at both
    ends of ``s``, and the densities' singularities off the real ``y``
    line (``y <= 0``, ``y = -x1``, ``y = -(x1 + x2)``) lie at ``Im s = pi``,
    so the rule converges like ``exp(-2 pi^2 / step)``.  The ``s`` range
    stops where ``y - lo`` falls below 1e-304 or, on an infinite window,
    exceeds 1e130, past which no density here has weight in a mass or mean.
    """
    if np.isfinite(hi):
        s = np.arange(-700.0, 40.0, 0.125)
        y = lo + (hi - lo) / (1.0 + np.exp(-s))
        dy = (hi - lo) / (2.0 + 2.0 * np.cosh(s))
    else:
        s = np.arange(-700.0, 300.0, 0.125)
        dy = np.exp(s)
        y = lo + dy
    return y, 0.125 * dy


def window_mass_quad(base, lo: float, hi: float) -> float:
    """Integral of ``base`` over (lo, hi) by the fixed rule ``_window_rule``."""
    y, w = _window_rule(lo, hi)
    return float(w @ base(y))


def window_mean_quad(base, lo: float, hi: float) -> float:
    """Mean of ``base`` renormalized to (lo, hi), by the fixed rule ``_window_rule``."""
    y, w = _window_rule(lo, hi)
    f = w * base(y)
    return float((y @ f) / f.sum())


def _extended(value) -> np.longdouble:
    """An mpmath number in ``np.longdouble``: its double plus the double of the rest."""
    head = float(value)
    return np.longdouble(head) + float(value - head)


def log_unrestricted_direct(y, x1: float, r1: float, r_prime: float):
    """log of the beta prime ``B'(r', r1, x1)`` at ``y > 0`` as it reads,
    ``-log B(r', r1) - log x1 + (r'-1) log u - (r'+r1) log1p(u)``, ``u = y/x1``,
    in ``y``'s precision if it is ``np.longdouble``; the constant
    ``-log B(r', r1) - log x1`` comes from mpmath."""
    u = np.asarray(y, dtype=np.result_type(y, float)) / x1
    with mp.workdps(40):
        const = u.dtype.type(_extended(-mp.log(mp.beta(r_prime, r1)) - mp.log(x1)))
    return const + (r_prime - 1.0) * np.log(u) - (r_prime + r1) * np.log1p(u)


def _log_betainc_extended(a: float, b: float, x, xc):
    """log I_x(a, b) in numpy's extended precision, from ``x`` and
    ``xc = 1 - x`` given apart, so that neither loses digits to the other.

    DLMF 8.17.8, ``I_x(a, b) = x^a xc^b / (a B(a, b)) F(a+b, 1; a+1; x)``,
    with the hypergeometric series summed in blocks of 64 terms until its
    last term is below ``eps`` of the sum; above ``x = (a+1)/(a+b+2)`` it
    is the series of ``1 - I_xc(b, a)``, so that every term ratio is below
    1.  ``log B(a, b)`` comes from mpmath.  In ``np.longdouble``, whose
    significand has 64 bits on x86_64, the result is good to about 1e-18,
    below the rounding of the package's incomplete betas (scipy's
    ``betainc`` reads 1.5e-14 off in log at ``I_0.5(8.45, 2)``), with which
    it shares no code.
    """
    x, xc = np.broadcast_arrays(np.atleast_1d(np.asarray(x, np.longdouble)), np.asarray(xc, np.longdouble))
    flip = x > (a + 1.0) / (a + b + 2.0)
    p, q = np.where(flip, np.longdouble(b), a), np.where(flip, np.longdouble(a), b)
    u, v = np.where(flip, xc, x), np.where(flip, x, xc)
    with mp.workdps(40):
        log_beta = _extended(mp.log(mp.beta(a, b)))
    n = np.arange(64, dtype=np.longdouble)[:, None]
    term, total = np.ones_like(u), np.ones_like(u)
    while np.any(term > np.finfo(np.longdouble).eps * total):
        block = term * np.cumprod((p + q + n) / (p + 1.0 + n) * u, axis=0)
        term, total, n = block[-1], total + block.sum(axis=0), n + 64.0
    log_i = p * np.log(u) + q * np.log(v) - np.log(p) - log_beta + np.log(total)
    return np.where(flip, np.log1p(-np.exp(log_i)), log_i)


def log_restricted_ratio_form(y, x1: float, x2: float, r1: float, r2: float, r_prime: float):
    """log q1 at ``y > 0`` as q0 times the ratio of ordering probabilities,
    ``I_x(r1 + r', r2) / I_{x1/(x1+x2)}(r1, r2)`` with
    ``x = (x1 + y)/(x1 + y + x2)``, each incomplete beta from the series
    of ``_log_betainc_extended`` and their difference taken in extended
    precision.

    Independent of the package's incomplete betas at every ``r2``: at
    integer ``r2`` the kernel takes both ordering probabilities from their
    finite sums on the scale ``x1 + x2``, where their powers join q0's,
    and at a non-integer ``r2`` it takes both from ``log_betainc``'s
    continued fraction.  At ``r1 = 7, r2 = 2,
    r' = 0.01``, ``x1 = x2 = 10`` minutes, that continued fraction put the
    oracle's KL 8.7e-15 off the rule's sum at 40 digits.
    """
    y = np.asarray(y, dtype=np.result_type(y, float))
    s, s0 = np.longdouble(x1) + y + x2, np.longdouble(x1) + x2
    numerator = _log_betainc_extended(r1 + r_prime, r2, (x1 + y) / s, x2 / s)
    ratio = numerator - _log_betainc_extended(r1, r2, x1 / s0, x2 / s0)
    return log_unrestricted_direct(y, x1, r1, r_prime) + ratio.astype(y.dtype).reshape(y.shape)


def risk_kls_per_draw(kind: str, x1s, x2s, lambda1: float, shapes, window):
    """Per-draw KL losses of ``evaluation._risk_kls``, one draw at a time.

    The same rule, ``_risk_rule`` at ``shapes.r_prime``, and the same units
    of ``lambda1``, but each draw's log density comes from
    ``log_unrestricted_direct`` or ``log_restricted_ratio_form`` alone, and
    its KL is the direct sum ``sum_j w_j p_j (log p_j - log q_j)``, with
    ``q`` renormalized on the rule when the window is finite, all in
    ``np.longdouble`` and rounded to a double once per draw.  ``x2s`` is
    read only for q1.
    """
    if window is not None:
        window = (window[0] / lambda1, window[1] / lambda1)
    y, w = _risk_rule(shapes.r_prime, window)
    truncated = window is not None and np.isfinite(window[1])
    # in extended precision: the node term (r'-1) log y, the largest term
    # of both log densities, cancels in log p - log q below rounding
    y = y.astype(np.longdouble)
    with mp.workdps(40):
        log_gamma = _extended(mp.loggamma(shapes.r_prime))
    log_truth = (shapes.r_prime - 1.0) * np.log(y) - y - log_gamma
    if truncated:
        log_truth = log_truth - np.log(np.sum(w * np.exp(log_truth)))
    truth_pdf = np.exp(log_truth)
    kls = np.empty(len(x1s))
    for i, x1 in enumerate(x1s):
        x1 = x1 / lambda1
        if kind == "q0":
            log_est = log_unrestricted_direct(y, x1, shapes.r1, shapes.r_prime)
        else:
            log_est = log_restricted_ratio_form(y, x1, x2s[i] / lambda1, shapes.r1, shapes.r2, shapes.r_prime)
        if truncated:
            log_est = log_est - np.log(np.sum(w * np.exp(log_est)))
        kls[i] = np.sum(w * truth_pdf * (log_truth - log_est))
    return kls


def risk_kl_mpmath(kind: str, x1: float, x2, lambda1: float, shapes, window, dps: int = 30) -> float:
    """One draw's KL of the truth ``Gam(r', lambda1)`` to q0 or q1 at
    ``(x1, x2)`` on ``window`` (None for (0, inf)), by mpmath.

    Regularized so that ``mpmath.quad`` sees smooth integrands at every
    ``r'``: the node term ``(r'-1) log y`` cancels between ``log p`` and
    ``log q`` before integrating, and on the piece that starts at 0 the
    substitution ``u = y^r'`` takes up the truth's ``y^(r'-1) dy = du/r'``,
    so no integrand has a power or a log singularity there.  On a window,
    the KL of the renormalized densities is
    ``E_W[log p - log q] - log P(W) + log Q(W)``: the truth's mass ``P`` is
    ``gammainc``, q0's ``Q`` is ``betainc``, and q1's ``Q``, like q1's
    ordering probabilities, is a quadrature of ``betainc``.  Works in units
    of ``lambda1``, since the KL does not depend on it.
    """
    with mp.workdps(dps):
        rp, r1 = mp.mpf(shapes.r_prime), mp.mpf(shapes.r1)
        x1 = mp.mpf(x1) / mp.mpf(lambda1)
        lo, hi = (0, mp.inf) if window is None else (mp.mpf(v) / mp.mpf(lambda1) for v in window)
        a = r1 + rp
        log_b = mp.log(mp.beta(rp, r1))
        if kind == "q0":
            def log_ratio(y):
                return 0
        else:
            x2, r2 = mp.mpf(x2) / mp.mpf(lambda1), mp.mpf(shapes.r2)
            log_den = mp.log(mp.betainc(r1, r2, 0, x1 / (x1 + x2), regularized=True))

            def log_ratio(y):
                return mp.log(mp.betainc(a, r2, 0, (x1 + y) / (x1 + y + x2), regularized=True)) - log_den

        ys = sorted({lo, hi} | {v for v in (x1, mp.mpf(1), 4 * rp + 16) if lo < v < hi})

        def integral(f):
            # the integral of y^(r'-1) f(y) over the window, piece by piece
            total = 0
            for y0, y1 in zip(ys, ys[1:]):
                if y0 == 0:
                    total += mp.quad(lambda u: f(u ** (1 / rp)), [0, y1**rp]) / rp
                else:
                    total += mp.quad(lambda y: y ** (rp - 1) * f(y), [y0, y1])
            return total

        def g(y):
            # log p - log q without the node term
            return -y - mp.loggamma(rp) + log_b + rp * mp.log(x1) + a * mp.log1p(y / x1) - log_ratio(y)

        p_mass = mp.gammainc(rp, lo, hi, regularized=True)
        e_g = integral(lambda y: mp.exp(-y) * g(y)) / (mp.gamma(rp) * p_mass)
        if window is None or hi == mp.inf:
            log_q_mass = 0
        elif kind == "q0":
            log_q_mass = mp.log(mp.betainc(rp, r1, lo / (x1 + lo), hi / (x1 + hi), regularized=True))
        else:
            # q's log without the statistics' term, taken relative to its
            # value at the window's midpoint: mpmath.quad's error is
            # absolute, and q's mass may be far from 1
            def log_f(y):
                return -a * mp.log1p(y / x1) + log_ratio(y)

            mid = (lo + hi) / 2
            c = log_f(mid) + (rp - 1) * mp.log(mid)
            q_mass = integral(lambda y: mp.exp(log_f(y) - c))
            log_q_mass = mp.log(q_mass) + c - log_b - rp * mp.log(x1)
        return float(e_g - mp.log(p_mass) + log_q_mass)


def panel_edges_concatenated(base, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """The window grid's panel edges built piece by piece, as
    ``distributions._panel_edges`` once built them: graded panels
    ``h 4^-k`` for ``k`` from 60 to 1, those of at most 1024 ulps of ``lo``
    filtered out, the bulk panels ``h k`` for ``k`` from 1 to 16 and, on an
    infinite window, the growth panels, concatenated after 0 and added to
    ``lo``; a finite window's last edge is ``hi`` itself."""
    if np.isfinite(hi):
        bulk, top = hi - lo, hi - lo
    else:
        bulk, top = dist._probe_infinite(base, lo)
    h = bulk / 16
    graded = h * 4.0 ** -np.arange(60, 0, -1.0)
    graded = graded[graded > 1024.0 * np.spacing(lo)]
    uniform = h * np.arange(1.0, 17.0)
    growth = bulk * 4.0 ** np.arange(1.0, np.ceil(np.log(top / bulk) / np.log(4.0)) + 1)
    edges = lo + np.concatenate(([0.0], graded, uniform, growth))
    if np.isfinite(hi):
        edges[-1] = hi
    return edges, bulk
