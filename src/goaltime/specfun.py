"""Special functions backing the closed-form densities.

The restricted estimator reweights the beta prime by a ratio of two beta
CDFs, the posterior probabilities of the scale ordering (see
``predictive``), so the densities and both risks rest on the regularized
incomplete beta ``I_x(a, b)``.  It is written in numpy alone and works in
log space throughout, so it cannot underflow where ``I_x`` is below the
smallest double.  ``log_betainc`` is ``log I_x(a, b)`` at every ``b``:
the continued fraction of DLMF 8.17.22,

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d1/(1 + d2/(1 + ...))),

which converges fast for ``x < (a+1)/(a+b+2)``; past that point it uses
``I_x(a, b) = 1 - I_{1-x}(b, a)``.  Each side of that swap point holds
one kind of point, ``t = x`` at ``(a, b)`` or ``t = 1 - x`` at
``(b, a)``, and every ``d_k`` is ``t`` times a scalar of ``k``.  So a side
takes one step count: modified Lentz, run in Python floats at the side's
largest ``t`` alone, where the fraction converges slowest, counts the
``n`` steps after which two successive convergents agree to rounding.
Lentz's test reads the change of one step, not what the steps after it
still add, which near the swap point is larger: ``n + 5`` steps still fall
up to 94 eps short where ``a >> b``.  Every point of the side is
therefore summed backward, ``g = 1 + d_k / g`` from the last coefficient,
over ``n + max(5, n // 2)`` steps.  At every sampled point of ``a`` in
[0.1, 400] and ``b`` in [0.1, 250] that reads the same double as the sum
run to ``4n + 60`` steps, so a point's value does not depend on the other
points of its call.  The same expression sums an array and, in Python
floats, a lone point.

The prefactor ``x^a (1-x)^b / B(a, b)`` is taken in the form of Didonato
& Morris, ACM TOMS 708 (1992), ``brcomp``, at every shape: the log-gamma
terms of ``B(a, b)`` are folded into ``log1p`` terms of the distance from
the mean and a Stirling remainder (DLMF 5.11.1), by its series from shape
8 on and carried below by its recurrence, so no shape loses digits to a
difference of large terms.  The finite sum of an integer ``b`` (DLMF
8.17.21) is not here: the densities' kernel holds it
(``predictive._Kernel``), where its power joins q0's on the scale
``x1 + x2``.

``gauss_2f1`` is ``scipy.special.hyp2f1`` on ``z <= 0`` with the package's
domain checks.  No density uses it, and it imports scipy only when it is
called: it backs the weighted-beta-prime form of the restricted density
that the tests check against (``tests/oracles.py``).

All functions are pure and stateless; they accept scalars or numpy arrays
for the argument ``x`` or ``z`` and broadcast in the numpy sense.
``log_betainc`` can write into a caller's array (``out=``), which may be
``x`` itself.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(float).eps)
_CF_MAX_TERMS = 2000
_CF_SPARE_STEPS = 5
_CF_CHUNK = 1 << 15
# Stirling remainder of log Gamma (DLMF 5.11.1): B_2k / (2k (2k-1)),
# enough terms for full precision from _STIRLING_MIN on
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400,
)
_STIRLING_MIN = 8.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_betainc(a: float, b: float, x, out=None):
    """log I_x(a, b), the regularized incomplete beta, for finite a, b > 0.

    Args:
        a, b: positive, finite shape parameters, normal doubles (at least
            ``sys.float_info.min``).
        x: scalar or array in [0, 1].
        out: optional C-contiguous float array of ``x``'s shape for the
            result; it may be ``x`` itself.

    Returns:
        log I_x(a, b), -inf at x = 0; ``out`` if given, else a float for
        scalar input.

    Raises:
        DomainError: if a shape is not finite or not a positive normal
            double, or ``x`` is outside [0, 1].
        ConvergenceError: if the continued fraction does not converge.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"log_betainc requires finite a, b > 0; got a={a}, b={b}")
    if min(a, b) < sys.float_info.min:
        # the prefactor divides by the shape, and its Stirling recurrence takes log1p(1/shape)
        name, shape = ("a", a) if a < b else ("b", b)
        raise DomainError(f"log_betainc requires normal shapes, at least {sys.float_info.min}; got {name}={shape}")
    a = float(a)
    b = float(b)
    x = np.asarray(x, dtype=float)
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):
        raise DomainError("log_betainc requires 0 <= x <= 1")
    if out is None:
        result = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != float or not out.flags.c_contiguous:
        raise DomainError("log_betainc: out must be a C-contiguous float array of x's shape")
    else:
        result = out
    xs = x.ravel()
    outs = result.reshape(-1)
    # Points past (a+1)/(a+b+2) take 1 - I_{1-x}(b, a).  The two forms
    # share the prefactor x^a (1-x)^b / B(a, b), which is symmetric under
    # the swap, and each side sums its continued fraction over one set of
    # coefficients.  Large arrays go through in chunks, which bounds the
    # working set of the sum.
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, xs.size, _CF_CHUNK):
            chunk = xs[start:start + _CF_CHUNK]
            part = _log_xy_over_beta(a, b, chunk)
            swap = chunk > (a + 1.0) / (a + b + 2.0)
            for swapped, p, q in ((False, a, b), (True, b, a)):
                side = swap if swapped else ~swap
                t = 1.0 - chunk[side] if swapped else chunk[side]
                if not t.size:
                    continue
                if t.size == 1:
                    # a lone point sums in Python floats, by the same expression
                    t = t_max = float(t[0])
                else:
                    t_max = float(t.max())
                coefs = _cf_coefficients(p, q, t_max)
                if coefs is None:
                    raise ConvergenceError(
                        f"incomplete-beta continued fraction did not converge within "
                        f"{_CF_MAX_TERMS} steps (a={a}, b={b})"
                    )
                g = 1.0
                for d in reversed(coefs):
                    g = d * t / g
                    g += 1.0
                part[side] -= np.log(g) + math.log(p)
            part[swap] = np.log1p(-np.exp(part[swap]))
            outs[start:start + _CF_CHUNK] = part
    return result if out is not None or result.ndim else float(result)


def _cf_coefficients(a: float, b: float, t: float) -> list[float] | None:
    """The coefficients ``d_k / t`` of DLMF 8.17.22 that sum its continued
    fraction to rounding at every argument in ``[0, t]``; None if modified
    Lentz does not converge at ``t`` within ``_CF_MAX_TERMS`` steps.

    They are those of the ``n`` steps that Lentz, in Python floats, takes
    at ``t`` until two successive convergents agree to rounding, and of
    ``max(_CF_SPARE_STEPS, n // 2)`` steps more (``_cf_step``).  No guard
    moves a vanishing Lentz denominator off zero: a point where one
    vanishes does not converge.
    """
    coefs = []
    c, d = math.inf, 1.0
    try:
        for m in range(_CF_MAX_TERMS):
            step = _cf_step(a, b, m)
            coefs += step
            for coef in step:
                aa = coef * t
                d = 1.0 / (1.0 + aa * d)
                c = 1.0 + aa / c
            if abs(d * c - 1.0) <= _EPS:
                for k in range(m + 1, m + 1 + max(_CF_SPARE_STEPS, (m + 1) // 2)):
                    coefs += _cf_step(a, b, k)
                return coefs
    except ZeroDivisionError:
        pass
    return None


def _cf_step(a: float, b: float, m: int) -> tuple[float, ...]:
    """The coefficients ``d_k / t`` of Lentz step ``m``: ``d_1`` at
    ``m = 0``, else ``d_2m, d_2m+1``."""
    odd = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))
    return (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)), odd) if m else (odd,)


def _stirling_remainder(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2], by its series
    from ``_STIRLING_MIN`` on; below, the recurrence ``D(z) = D(z+1) +
    (z + 1/2) log1p(1/z) - 1`` carries it up there.  Its terms are small,
    so it reads within 2 eps of mpmath on (0, 8), where ``math.lgamma``
    less the leading terms loses up to 12 eps to their rounding."""
    shift = 0.0
    while z < _STIRLING_MIN:
        shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    zz = 1.0 / (z * z)
    return shift + sum(c * zz**k for k, c in enumerate(_STIRLING)) / z


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for scalar a, b > 0.

    Where a shape reaches ``_STIRLING_MIN`` its log-gamma enters in the
    Stirling form (DLMF 5.11.1), with the leading terms of the large
    shapes combined into ``log1p`` terms of their ratio, so that large
    shapes lose no digits to a difference of large log-gammas.
    """
    lo, hi = min(a, b), max(a, b)
    if hi < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if lo < _STIRLING_MIN:
        # log Gamma(lo) + log Gamma(hi) - log Gamma(hi + lo)
        return (
            math.lgamma(lo) - (hi - 0.5) * math.log1p(lo / hi) - lo * math.log(hi + lo) + lo
            + _stirling_remainder(hi) - _stirling_remainder(hi + lo)
        )
    return (
        _HALF_LOG_2PI - (a - 0.5) * math.log1p(b / a) - (b - 0.5) * math.log1p(a / b)
        - 0.5 * math.log(a + b)
        + _stirling_remainder(a) + _stirling_remainder(b) - _stirling_remainder(a + b)
    )


def _log_xy_over_beta(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log x^a (1-x)^b / B(a, b) in the form of TOMS 708 ``brcomp``: the
    log-gammas of ``B(a, b)`` are folded into the powers.  With ``lam = a
    (1-x) - b x`` the distance from the mean ``x0 = a/(a+b)``,

        log x^a (1-x)^b / B(a, b) = a log1p(-lam/a) + b log1p(lam/b)
            + log(a b / (2 pi (a+b)))/2 - D(a) - D(b) + D(a+b),

    ``D`` the Stirling remainder (``_stirling_remainder``), and
    ``log(x/x0)`` replaces the first ``log1p`` where ``x < x0/2``
    (likewise for ``1-x``), where ``lam`` would carry the rounding of a
    difference of nearly equal terms.  No term is larger than the result
    needs, at any shape.
    """
    # in two arrays, each log in place and the far sides' logs masked: a
    # third array of a large chunk costs about as much as the logs.  lam =
    # a (1-x) - b x, and far_y the points where 1-x < y0/2
    out = np.multiply(x, -b)
    lam = np.subtract(1.0, x)
    far_y = lam < 0.5 * b / (a + b)
    lam = np.add(np.multiply(lam, a, out=lam), out, out=lam)
    # a log1p(-lam/a), or a log(x/x0) where x < x0/2
    np.log1p(np.divide(lam, -a, out=out), out=out)
    far = x < 0.5 * a / (a + b)
    np.log(np.multiply(x, (a + b) / a, out=out, where=far), out=out, where=far)
    out *= a
    # b log1p(lam/b), or b log(y/y0) where y < y0/2
    np.log1p(np.divide(lam, b, out=lam), out=lam)
    np.subtract(1.0, x, out=lam, where=far_y)
    np.log(np.multiply(lam, (a + b) / b, out=lam, where=far_y), out=lam, where=far_y)
    out += np.multiply(lam, b, out=lam)
    out += 0.5 * math.log(a * b / (a + b)) - _HALF_LOG_2PI
    out -= _stirling_remainder(a) + _stirling_remainder(b) - _stirling_remainder(a + b)
    return out


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and x == np.floor(x)


def gauss_2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    Needs scipy, which it imports on its first call.

    Args:
        a, b, c: real parameters; c must not be a non-positive integer.
        z: scalar or array of non-positive arguments.

    Returns:
        Function value(s), float for scalar input.

    Raises:
        ConvergenceError: where scipy returns a non-finite value.
    """
    from scipy import special

    if _is_nonpositive_int(c):
        raise DomainError(f"gauss_2f1 pole: c = {c} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise DomainError("gauss_2f1 implemented for z <= 0 only")
    out = special.hyp2f1(float(a), float(b), float(c), z)
    if not np.all(np.isfinite(out)):
        raise ConvergenceError(f"2F1 not finite (a={a}, b={b}, c={c})")
    return out if out.ndim else float(out)
