"""Special functions backing the closed-form densities.

Every ordering constant of the restricted estimator is a beta CDF (see
``predictive``), so the densities and both risks rest on one function,
``log_betainc``: the log of the regularized incomplete beta
``I_x(a, b)``.  It evaluates ``scipy.special.betainc`` and, where that
underflows (tiny ``x`` with large shapes), stays in log space through
DLMF 8.17.8,

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * 2F1(a+b, 1; a+1; x),

whose series has only positive terms and, in that region, converges
geometrically in a handful of terms.

``gauss_2f1`` is ``scipy.special.hyp2f1`` on ``z <= 0`` with the package's
domain checks.  No density uses it: it backs the independent
weighted-beta-prime form of the restricted density that the tests check
against (``tests/oracles.py``).

All functions are pure and stateless; they accept scalars or numpy arrays
for the argument ``x`` or ``z`` and broadcast in the numpy sense.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError

# betainc values below this are taken from the log-space form instead:
# far enough above the subnormal range that betainc is still accurate
_BETAINC_FLOOR = 1e-280
_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 2000


def log_betainc(a: float, b: float, x):
    """log I_x(a, b), the regularized incomplete beta, for a, b > 0.

    Args:
        a, b: positive shape parameters.
        x: scalar or array in [0, 1].

    Returns:
        log I_x(a, b), -inf at x = 0; float for scalar input.
    """
    if a <= 0 or b <= 0:
        raise DomainError("log_betainc requires a, b > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise DomainError("log_betainc requires 0 <= x <= 1")
    xs = np.atleast_1d(x)
    ival = special.betainc(a, b, xs)
    with np.errstate(divide="ignore"):
        out = np.log(ival)
    tail = ival < _BETAINC_FLOOR
    if np.any(tail):
        out[tail] = _log_betainc_tail(a, b, xs[tail])
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _log_betainc_tail(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log I_x(a, b) by DLMF 8.17.8, for x well below the beta mean.

    The term ratio of 2F1(a+b, 1; a+1; x) is (a+b+n) x / (a+1+n); where
    I_x underflows it is below 0.2 for shapes up to several hundred.
    """
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(_SERIES_MAX_TERMS):
        if np.all(term <= _SERIES_TOL * total):
            break
        term = term * ((a + b + n) / (a + 1.0 + n) * x)
        total += term
    else:
        raise ConvergenceError(
            f"incomplete-beta tail series did not converge within {_SERIES_MAX_TERMS} "
            f"terms (a={a}, b={b})"
        )
    with np.errstate(divide="ignore"):
        return (
            a * np.log(x)
            + b * np.log1p(-x)
            - np.log(a)
            - special.betaln(a, b)
            + np.log(total)
        )


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and x == np.floor(x)


def gauss_2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    Args:
        a, b, c: real parameters; c must not be a non-positive integer.
        z: scalar or array of non-positive arguments.

    Returns:
        Function value(s), float for scalar input.

    Raises:
        ConvergenceError: where scipy returns a non-finite value.
    """
    if _is_nonpositive_int(c):
        raise DomainError(f"gauss_2f1 pole: c = {c} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise DomainError("gauss_2f1 implemented for z <= 0 only")
    out = special.hyp2f1(float(a), float(b), float(c), z)
    if not np.all(np.isfinite(out)):
        raise ConvergenceError(f"2F1 not finite (a={a}, b={b}, c={c})")
    return out if out.ndim else float(out)
