"""Special functions backing the closed-form densities.

The restricted estimator reweights the beta prime by a ratio of two beta
CDFs, the posterior probabilities of the scale ordering (see
``predictive``), so the densities and both risks rest on one function,
``log_betainc``: the log of the regularized incomplete beta ``I_x(a, b)``.
It is written in numpy alone and works in log space throughout, so it
cannot underflow where ``I_x`` is below the smallest double.  It picks its
method from ``b``:

* **integer b** (``b <= 1000``, where ``S`` below cannot overflow).  Both
  ordering probabilities take ``b = r2``, a goal index, so this is the case
  of the paper's shapes and of every default.  DLMF 8.17.21 unrolled from
  ``I_x(a, 1) = x^a`` gives the finite sum

      I_x(a, n) = x^a S,    S = sum_{j<n} (a)_j / j! (1-x)^j,

  evaluated by ``n - 1`` Horner steps over positive terms and returned as
  ``a log x + log S``: three in-place array operations a step, no
  cancellation in the sum and nothing to converge.
* **any other b**: the continued fraction of DLMF 8.17.22,

      I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d1/(1 + d2/(1 + ...))),

  by the modified Lentz method, which converges fast for
  ``x < (a+1)/(a+b+2)``; past that point it uses
  ``I_x(a, b) = 1 - I_{1-x}(b, a)``.  The prefactor is taken in the form
  of Didonato & Morris, ACM TOMS 708 (1992), ``brcomp``: the log-gamma
  terms of ``B(a, b)`` are folded into ``log1p`` terms of the distance
  from the mean and a Stirling remainder (DLMF 5.11.1), so large shapes
  lose no digits to a difference of large log-gammas.

``gauss_2f1`` is ``scipy.special.hyp2f1`` on ``z <= 0`` with the package's
domain checks.  No density uses it, and it imports scipy only when it is
called: it backs the weighted-beta-prime form of the restricted density
that the tests check against (``tests/oracles.py``).

All functions are pure and stateless; they accept scalars or numpy arrays
for the argument ``x`` or ``z`` and broadcast in the numpy sense.  A scalar
``x`` takes the array path of either method, except that the continued
fraction runs a lone point in Python floats (``_log_lentz_scalar``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

# the integer-b sum is used up to this b, and only while its bound
# log C(a+b-1, b-1) on log S stays this far below the double range
_MAX_INT_B = 1000
_MAX_LOG_SUM = 700.0
_EPS = float(np.finfo(float).eps)
_CF_MAX_TERMS = 2000
_CF_CHUNK = 1 << 15
# Stirling remainder of log Gamma (DLMF 5.11.1): B_2k / (2k (2k-1)),
# enough terms for full precision from _STIRLING_MIN on
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400,
)
_STIRLING_MIN = 8.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_betainc(a: float, b: float, x):
    """log I_x(a, b), the regularized incomplete beta, for a, b > 0.

    Args:
        a, b: positive shape parameters.
        x: scalar or array in [0, 1].

    Returns:
        log I_x(a, b), -inf at x = 0; float for scalar input.

    Raises:
        ConvergenceError: if the continued fraction (non-integer ``b``)
            does not converge.
    """
    if a <= 0 or b <= 0:
        raise DomainError("log_betainc requires a, b > 0")
    a = float(a)
    b = float(b)
    x = np.asarray(x, dtype=float)
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):
        raise DomainError("log_betainc requires 0 <= x <= 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        if b.is_integer() and b <= _MAX_INT_B and (
            math.lgamma(a + b) - math.lgamma(a + 1.0) - math.lgamma(b) < _MAX_LOG_SUM
        ):
            out = _log_betainc_int(a, int(b), x)
        else:
            out = _log_betainc_cf(a, b, x)
    return out if np.ndim(out) else float(out)


def _log_betainc_int(a: float, n: int, x: np.ndarray) -> np.ndarray:
    """log I_x(a, n) for integer n, as ``a log x + log S`` (module docstring).

    Worked in place: with ``x``, two arrays of its size are alive.
    """
    y = np.subtract(1.0, x, out=np.empty_like(x))
    s = np.ones_like(y)
    for j in range(n - 1, 0, -1):
        s *= y
        s *= (a + j - 1.0) / j
        s += 1.0
    out = np.log(x, out=y)
    out *= a
    out += np.log(s, out=s)
    return out


def _log_betainc_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log I_x(a, b) by the continued fraction (module docstring).

    Points past ``(a+1)/(a+b+2)`` take ``1 - I_{1-x}(b, a)``.  The two
    forms share the prefactor ``x^a (1-x)^b / B(a, b)``, which is symmetric
    under the swap, and one Lentz iteration over all points.  Large arrays
    go through in chunks, which bounds the iteration's working set.
    """
    xs = x.ravel()
    out = np.empty(xs.shape)
    for start in range(0, xs.size, _CF_CHUNK):
        chunk = xs[start:start + _CF_CHUNK]
        swap = chunk > (a + 1.0) / (a + b + 2.0)
        t = np.where(swap, 1.0 - chunk, chunk)
        part = _log_xy_over_beta(a, b, chunk)
        if chunk.size == 1:
            p, q = (b, a) if swap[0] else (a, b)
            part += _log_lentz_scalar(p, q, float(t[0]))
        else:
            part += _log_lentz(a, b, t, swap)
        part -= np.where(swap, math.log(b), math.log(a))
        part[swap] = np.log1p(-np.exp(part[swap]))
        out[start:start + _CF_CHUNK] = part
    return out.reshape(x.shape)


def _log_lentz(a: float, b: float, t: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """log of 1/(1 + d1/(1 + d2/(1 + ...))) of DLMF 8.17.22 at ``t``, modified Lentz.

    The coefficients are ``t`` times a scalar of the step, taken for
    ``(b, a)`` where ``swap`` is set.  A point is done once two successive
    convergents agree to rounding; done points keep iterating (their value
    stays put) until they are half of the arrays and leave them.  No guard
    moves a vanishing Lentz denominator off zero: a point where one
    vanishes never converges and ends in ``ConvergenceError``.
    """
    out = np.empty(t.shape)
    idx = np.arange(t.size)
    done = np.zeros(t.shape, dtype=bool)
    # the state after the first convergent, 1, with C = inf
    c = np.full(t.shape, np.inf)
    d = np.ones_like(t)
    h = np.ones_like(t)
    for m in range(_CF_MAX_TERMS):
        for coef in (_cf_even, _cf_odd) if m else (_cf_odd,):
            aa = np.where(swap, coef(b, a, m), coef(a, b, m))
            aa *= t
            d *= aa
            d += 1.0
            np.reciprocal(d, out=d)
            np.divide(aa, c, out=c)
            c += 1.0
            h *= d
            h *= c
        step = d * c
        step -= 1.0
        done |= np.abs(step, out=step) <= _EPS
        n_done = np.count_nonzero(done)
        if n_done == idx.size:
            out[idx] = h
            return np.log(out, out=out)
        if 2 * n_done >= idx.size:
            out[idx[done]] = h[done]
            live = ~done
            idx, t, swap, c, d, h = idx[live], t[live], swap[live], c[live], d[live], h[live]
            done = np.zeros(idx.shape, dtype=bool)
    raise ConvergenceError(
        f"incomplete-beta continued fraction did not converge within {_CF_MAX_TERMS} "
        f"steps (a={a}, b={b})"
    )


def _log_lentz_scalar(a: float, b: float, t: float) -> float:
    """``_log_lentz`` at one point, in Python floats: a numpy call on one
    element costs more than the whole iteration step in floats.

    Callers that evaluate one point at a time at a non-integer ``b`` rely
    on it: adaptive quadrature of a density, or q1's denominator at build
    time.  Through the array iteration one point takes more than ten
    times as long.
    """
    c, d, h = math.inf, 1.0, 1.0
    try:
        for m in range(_CF_MAX_TERMS):
            for coef in (_cf_even, _cf_odd) if m else (_cf_odd,):
                aa = coef(a, b, m) * t
                d = 1.0 / (1.0 + aa * d)
                c = 1.0 + aa / c
                h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return math.log(h)
    except ZeroDivisionError:
        pass
    raise ConvergenceError(
        f"incomplete-beta continued fraction did not converge within {_CF_MAX_TERMS} "
        f"steps (a={a}, b={b})"
    )


def _cf_even(a: float, b: float, m: int) -> float:
    return m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m))


def _cf_odd(a: float, b: float, m: int) -> float:
    return -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))


def _stirling_remainder(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2] for z >= 8."""
    zz = 1.0 / (z * z)
    return sum(c * zz**k for k, c in enumerate(_STIRLING)) / z


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
    """log x^a (1-x)^b / B(a, b), accurate for large shapes.

    Below ``_STIRLING_MIN`` for the smaller shape it is taken as it reads.
    Otherwise (TOMS 708 ``brcomp``) the log-gammas of ``B(a, b)`` are folded
    into the powers: with ``lam = a (1-x) - b x`` the distance from the
    mean ``x0 = a/(a+b)``,

        log x^a (1-x)^b / B(a, b) = a log1p(-lam/a) + b log1p(lam/b)
            + log(a b / (2 pi (a+b)))/2 - D(a) - D(b) + D(a+b),

    ``D`` the Stirling remainder, and ``log(x/x0)`` replaces the first
    ``log1p`` where ``x < x0/2`` (likewise for ``1-x``), where ``lam``
    would carry the rounding of a difference of nearly equal terms.
    """
    if min(a, b) < _STIRLING_MIN:
        return a * np.log(x) + b * np.log1p(-x) - log_beta(a, b)
    y = 1.0 - x
    lam = a * y - b * x
    log_x = np.where(x >= 0.5 * a / (a + b), np.log1p(-lam / a), np.log(x * ((a + b) / a)))
    log_y = np.where(y >= 0.5 * b / (a + b), np.log1p(lam / b), np.log(y * ((a + b) / b)))
    return (
        a * log_x
        + b * log_y
        + (0.5 * math.log(a * b / (a + b)) - _HALF_LOG_2PI)
        - (_stirling_remainder(a) + _stirling_remainder(b) - _stirling_remainder(a + b))
    )


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
