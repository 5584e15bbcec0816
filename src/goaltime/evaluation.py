"""Prediction error and frequentist risk by Monte Carlo, both KL losses.

The risk of an estimator at scales (lam1, lam2) is the average KL loss over
the sampling distribution of the observed statistics.  ``frequentist_risk``
estimates that outer integral by Monte Carlo (two-dimensional for the
restricted estimator): it draws the statistics and averages, with equal
weights, the KLs the per-draw engine ``_risk_kls`` returns for them.

The KL does not depend on the scale, so the engine works in units of
``lam1``: the truth is ``Gam(r', 1)``, the statistics are drawn in those
units (``x1`` from ``Gam(r1, 1)``, ``x2`` from ``Gam(r2, lam2/lam1)``),
and only the window is divided by ``lam1``, so that no scale that a
double holds can overflow the rule.  It takes each draw's KL on one rule
of 116 nodes
(``_risk_rule``), built once per call from ``r'`` and shared by all
draws, vectorized over draws, which the tests pin against adaptive
quadrature and against a regularized mpmath reference:

* a head panel of 16 nodes on [lo, lo + h], ``h = 1/128`` (``1/128`` of
  the window on windows narrower than ``lam1``): the Gauss-Jacobi rule
  of the weight ``(y - lo)^beta`` (Golub and Welsch,
  ``distributions._gauss_jacobi``), its weights divided by the weight
  again, ``(h/2) exp(log w_j - beta log1p(x_j))``, so the arithmetic
  below is that of any other node.  At ``lo = 0``,
  ``beta = r' - 1`` carries the truth's singularity at 0, where nearly
  all its mass lies when ``r'`` is small; above 0 there is none, and
  ``beta = 0`` makes the panel Gauss-Legendre.  The width
  balances the draws' scale against the truth's: the estimate's pole at
  ``y = -x1`` must stay clear of the head, and the truth's ``y^(r'-1)``
  of the mapped nodes.  At ``h = 1/64`` a draw at ``x1 = 3e-3 lam1``
  read 1e-7 off on (0, 60) at ``r' = 6``; at ``1/256`` draws at
  ``r' = 0.3`` read up to 4e-12 off at every ``x1``;
* 100 Gauss-Legendre nodes on [lo + h, hi], mapped through
  ``y = lo + h + c s/(1-s)`` with ``c = max(1, r'/4)``, so that they
  follow the truth's bulk and reach to infinity on the untruncated
  support.

Against mpmath, each draw's KL is then within about 3e-14 over ``r'`` in
[0.01, 6] and ``x1`` in [1e-2, 1e4] ``lam1``, on (0, inf), (0, 60) and
(5, 45); without the head, even 200 Gauss-Legendre nodes are off by up
to 5e-2 below ``r' = 1``.  From ``r'`` of about 500 the truth's bulk, of
width ``sqrt(r')``, outgrows the mapped nodes.  Each estimator's log
density on the rule is the one its predictive density truncates, in the
separable form of ``predictive``'s module docstring:

    log q(y_j) = K_ij + (r'-1) log y_j - c_i,

where only the kernel ``K`` (``predictive._Kernel``, set up once per
call) couples the node ``y_j`` with draw ``i``'s statistics, and the
statistics' term ``c_i`` (``_Kernel.log_stat``) is one value per draw.
The risk keeps this rule rather than the truth's window grid of
``prediction_error``: the window grid needs five to twelve times the nodes,
which would make the per-draw work of a risk block as much larger.

With ``v = w p`` the truth's density times the rule's weights, a draw's
KL ``sum_j w_j p_j (log p_j - log q_j)`` takes the node term from both
logs, where it cancels: it is ``k - K_i . v + c_i sum(v)`` with ``k =
v . (log p - (r'-1) log y)``, fixed per call.  On a finite window the
estimate is renormalized to its mass on the rule, ``exp(log q_i) . w``.
A block takes ``log q_i`` relative to a per-draw level there, ``x_ij =
log q_ij + c_i - T_i``; the shift cancels, and the KL is ``v . log p -
x_i . v + log(exp(x_i) . w) sum(v)``.  ``T_i`` is the smaller of
``c_i``, which makes ``x_i`` ``log q_i`` itself, and the rule's largest
``log(w_j y_j^(r'-1))``.  Both bound the terms of the mass, to within
``exp(700)``: each ``w_j q_ij`` is at most 1, and ``K`` decreases in
``y`` (``q/y^(r'-1)`` is a mixture of decreasing exponentials) from at
most 0, or from ``log S_a(rho) < predictive._MAX_LOG_SUM`` for the sum.
The second takes over where the estimate is nearly flat on the window
(``x1`` far above it) and its mass there is far below the smallest
double; the first where ``y^(r'-1)`` spans more than a double holds over
the rule, at large ``r'``.  The mass underflows only where both hold at
once.  The ordering term in ``c_i`` keeps the sums small: without it,
-25.4 at ``r1 = 6.2``, ``r2 = 1.9``, ``r' = 0.5`` and ``x2 = 79 x1``, the
KL on (0, 60) read 1.3e-14 off there (8e-17 with it).

The engine runs blocks of ``_BLOCK`` draws by the rule's nodes, evaluated
in place (``out=``) in arrays allocated once per call and small enough to
stay in cache.  Each draws x nodes operand that is affine in the node,
``c0_i + c1_i z_j``, comes from one matrix product per block, of the
per-draw rows ``(c0_i, c1_i)``, built once per call, by the per-node
rows ``(1, z_j)``: a ``(256 x 2) @ (2 x 116)`` product costs about a
third of a numpy pass that broadcasts a column of draws against a row
of nodes (8 against 25 us on a 2-core x86_64 host).  They are the
kernel's ``t``, ``y (1/s)`` with ``s`` the kernel's scale (``x1 + x2``
for the integer-``r2`` sum, ``x1`` otherwise), and at a non-integer
``r2`` the continued fraction's ``x``, the quotient of ``x1 + y`` and
``(x1 + x2) + y``.  The kernel reads them, with the sum's ``rho =
x2/s`` a column against ``t``, and the sum's ``u = rho/(1 + t)`` is one
broadcast pass.  They round differently from the densities' ``y/s``, by
an ulp, so a KL differs from one summed over the densities' own values
at rounding level.  On a finite window one more operand is the node
term less the level, ``(r'-1) log y_j - T_i``, which a block adds to the
kernel, one pass, for ``x``.  A block then takes one matrix-vector
product with ``v``, and on a finite window the ``exp`` of ``x`` and one
matrix-vector product with ``w`` for the mass.

``prediction_error``, the KL from a truncated truth to one estimate, is a
weighted sum over the window grid ``distributions.truncate`` sampled the
truth on, the grid of every window mass and summary.  An estimate built
by ``truncate`` with the truth's panel edges (any two densities on one
finite window: its edges depend on the window alone) was sampled on
those nodes when it was built, so its values are read from its own grid
with no density call; any other estimate is evaluated at the nodes.  The
tests check it against adaptive quadrature too.

Risk is deterministic in (seed, samples, parameters): draws come from
``numpy.random.default_rng`` (PCG64) on seeds derived via ``SeedSequence``,
one child stream per statistic, and reductions run in fixed order; a
block's matrix products give the same bits at any BLAS thread count, as
the tests check at one and two.  Both estimators at a grid point share
the same draws (common random numbers).

Unless a finite window is supplied, risks are computed on the untruncated
support: the unrestricted estimator is then minimum-risk equivariant and
its risk is exactly constant in the scale, and both estimators carry equal
risk when the two scales coincide.  The draws at one seed are the same
numbers in units of ``lam1`` at every ``lam1``, so at a fixed ratio
``lam2/lam1`` both risks are the same bit for bit at every ``lam1``, on
the untruncated support and on any window that scales with ``lam1``
exactly.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from . import predictive as pred
from .errors import DegenerateWindowError, DivergenceError, DomainError, MonteCarloError

_KL_FLOOR = 1e-15
# the risk's rule, in units of lambda1 (``_risk_rule``): a head panel of
# this width (narrower on windows narrower than lambda1) and node count,
# then the mapped Gauss-Legendre nodes
_HEAD_WIDTH = 1.0 / 128.0
_HEAD_NODES = 16
_TAIL_NODES = 100
_MAX_REJECT_FRACTION = 1e-3
# draws per risk block: its few (draws x nodes) work arrays stay in L2
_BLOCK = 256

DEFAULT_SAMPLES = 20000
MIN_SAMPLES = 100
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


def prediction_error(exact, estimate) -> float:
    """KL divergence of ``estimate`` from ``exact`` over ``exact``'s window.

    ``exact`` is the truncated law of the future waiting time, so the
    estimate is compared where future values can fall.  The sum runs over
    the window grid ``truncate`` sampled ``exact`` on (an infinite window is
    cut where ``exact`` leaves no relative mass above 2^-60).  Where
    ``estimate`` is a ``TruncatedDensity`` whose grid has ``exact``'s
    panel edges, bit for bit, its values at the nodes are its own samples,
    ``grid.f / mass``, the doubles its call would return; any other
    estimate (a plain callable, or one on (lo, inf), whose probe sets its
    own edges) is evaluated at the nodes.  The integrand is taken as 0
    wherever the exact density is below 1e-15, which cannot move the
    result beyond that level and absorbs underflowed far-tail values.

    Raises:
        DomainError: if ``exact`` is not a ``TruncatedDensity``, or the
            estimate is NaN at a node.
        DivergenceError: if the estimate vanishes, or is infinite,
            somewhere the exact density does not, making the integrand
            unbounded.
    """
    if not isinstance(exact, dist.TruncatedDensity):
        raise DomainError("prediction_error needs the truth as a TruncatedDensity, which sets the window")
    g = exact.grid
    pv = g.f.ravel() / exact.mass
    keep = pv > _KL_FLOOR
    y, w, pv = g.y.ravel()[keep], g.w.ravel()[keep], pv[keep]
    if isinstance(estimate, dist.TruncatedDensity) and np.array_equal(estimate.grid.edges, g.edges):
        # the same grid: the truth's nodes are the estimate's own, sampled when it was built
        qv = estimate.grid.f.ravel()[keep] / estimate.mass
    else:
        qv = np.asarray(estimate(y), dtype=float)
    if np.any(qv <= 0.0):
        raise DivergenceError(
            f"estimate vanishes at y={y[np.argmax(qv <= 0.0)]} where exact is positive"
        )
    kl = float(np.sum(w * pv * (np.log(pv) - np.log(qv))))
    if not math.isfinite(kl):
        # only an infinite or NaN estimate gets here: its log, +inf or
        # NaN, makes the sum -inf or NaN without a warning, and a finite
        # positive estimate's term cannot overflow
        inf = qv == np.inf
        if inf.any():
            raise DivergenceError(f"estimate is infinite at y={y[np.argmax(inf)]} where exact is positive")
        raise DomainError(f"estimate is NaN at y={y[np.argmax(np.isnan(qv))]}")
    return kl


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], built once per process on
    first use (``leggauss``'s eigenproblem costs more than a small risk
    block); every caller shares the arrays, so they are read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _risk_rule(r_prime: float, window: tuple[float, float] | None):
    """The risk's nodes and weights on ``window`` (None for (0, inf)), in
    units of lambda1: ``_HEAD_NODES`` on a head panel [lo, lo + h] and
    ``_TAIL_NODES`` Gauss-Legendre nodes on [lo + h, hi] mapped through
    ``y = lo + h + c s/(1-s)`` (module docstring).

    The head is the Gauss-Jacobi rule of the weight ``(y - lo)^beta``, its
    weights divided by that weight again, so that they integrate any
    density: ``beta = r' - 1`` at ``lo = 0``, where the truth carries that
    factor, and ``beta = 0``, Gauss-Legendre, above."""
    lo, hi = (0.0, np.inf) if window is None else window
    if not 0 <= lo < hi:
        raise DomainError(f"bad window {window}")
    if lo != 0.0 and not np.isfinite(hi):
        raise DomainError("infinite windows must start at 0")
    h = min(1.0, hi - lo) * _HEAD_WIDTH
    beta = r_prime - 1.0 if lo == 0.0 else 0.0
    x, log_w = dist._gauss_jacobi(_HEAD_NODES, beta)
    # (h/2) w (1+x)^-beta, not (h/2)^(beta+1) w / y^beta, which underflows
    w = 0.5 * h * np.exp(log_w - beta * np.log1p(x))
    head = lo + 0.5 * h * (1.0 + x)
    # the map's scale follows the truth's bulk, at y = r' for large r'
    c = max(1.0, 0.25 * r_prime)
    a = lo + h
    top = 1.0 if not np.isfinite(hi) else (hi - a) / (c + hi - a)
    x, wt = _legendre(_TAIL_NODES)
    s = 0.5 * top * (x + 1.0)
    y = np.concatenate((head, a + c * s / (1.0 - s)))
    w = np.concatenate((w, 0.5 * c * top * wt / (1.0 - s) ** 2))
    return y, w


def _risk_kls(x1, x2, lambda1: float, shapes: ShapeConfig, window) -> np.ndarray:
    """The per-draw engine: one KL of the truth Gamma(r_prime, lambda1) to q1
    at each statistic ``(x1[i], x2[i])``, or to q0 at ``x1[i]`` when ``x2``
    is None (module docstring); non-finite where the estimate fails.

    The statistics are in units of lambda1, the window in minutes; lambda1
    serves only to scale the window and to word a ``DegenerateWindowError``.
    """
    r1, r_prime = shapes.r1, shapes.r_prime
    scaled = None if window is None else (window[0] / lambda1, window[1] / lambda1)
    y, w = _risk_rule(r_prime, scaled)
    truncated = scaled is not None and np.isfinite(scaled[1])
    log_truth = dist.gamma_logpdf(dist.GammaModel(r_prime, 1.0), y)
    log_node = (r_prime - 1.0) * np.log(y)
    if truncated:
        mass = np.sum(w * np.exp(log_truth))
        # the truth's window mass depends on no draw
        if not mass > 0:
            raise DegenerateWindowError(
                f"the truth Gamma(r' = {r_prime}, lambda1 = {lambda1}) has no mass in doubles on the window {window}"
            )
        log_truth = log_truth - np.log(mass)
    v = w * np.exp(log_truth)
    # a draw's KL is k - K . v + c sum(v), k taking up the node term, or on
    # a finite window k - x . v + log(exp(x) . w) sum(v) (module docstring)
    k = v @ (log_truth if truncated else log_truth - log_node)
    v_sum = v.sum()
    if x2 is not None:
        pred._check_statistic("x1", x1)
        pred._check_statistic("x2", x2)
    kernel = pred._Kernel(r1, None if x2 is None else shapes.r2, r_prime)
    continued = x2 is not None and not kernel.coef
    samples = x1.size
    block = min(_BLOCK, samples)
    kls = np.empty(samples)
    # a draw whose KL comes out non-finite is rejected by the caller, so
    # the warnings numpy raises on its way there are not errors
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_stat = kernel.log_stat(x1, x2)
        scale = kernel.scale(x1, x2)
        # each operand's per-draw row (c0_i, c1_i) and per-node row z_j, for
        # c0_i + c1_i z_j: the kernel's t, the continued fraction's x, and
        # on a finite window the node term less the level T
        terms = [(0.0, 1.0 / scale, y)]
        if continued:
            terms += [(x1, 1.0, y), (x1 + x2, 1.0, y)]
        if truncated:
            level = np.minimum(log_stat, np.max(np.log(w) + log_node))
            terms.append((-level, 1.0, log_node))
        draws = np.empty((len(terms), samples, 2))
        nodes = np.ones((len(terms), 2, y.size))
        for i, (c0, c1, z) in enumerate(terms):
            draws[i, :, 0], draws[i, :, 1], nodes[i, 1] = c0, c1, z
        rho = (x2 / scale)[:, None] if kernel.coef else None
        operands = np.empty((len(terms), block, y.size))
        work = np.empty((kernel.rows, block, y.size))
        for start in range(0, samples, block):
            stop = min(start + block, samples)
            rows = slice(0, stop - start)
            ops = np.matmul(draws[:, start:stop], nodes, out=operands[:, rows])
            # q1's rho = x2/s (the sum), or x = (x1 + y)/(x1 + x2 + y)
            aux = None if rho is None else rho[start:stop]
            if continued:
                aux = np.divide(ops[1], ops[2], out=ops[1])
            log_q = kernel(ops[0], aux, work[:, rows])
            if truncated:
                # x = log q + c - T
                log_q += ops[-1]
                np.matmul(log_q, v, out=kls[start:stop])
                kls[start:stop] -= np.log(np.matmul(np.exp(log_q, out=log_q), w)) * v_sum
            else:
                np.matmul(log_q, v, out=kls[start:stop])
        if not truncated:
            kls -= log_stat * v_sum
    np.subtract(k, kls, out=kls)
    return kls


def _check_draws(samples, seed) -> None:
    """DomainError unless ``samples`` is an integer of at least
    ``MIN_SAMPLES`` and ``seed`` a non-negative integer."""
    for name, value, least in (("samples", samples, MIN_SAMPLES), ("seed", seed, 0)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise DomainError(f"{name} must be an integer of at least {least}; got {value!r}")


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
        lambda1, lambda2: true scales of the two populations; the restricted
            estimator needs ``lambda1 >= lambda2``, its ordering assumption.
        shapes: gamma shapes (r1, r2, r_prime).
        estimator_kind: "q0" (unrestricted) or "q1" (restricted).
        samples: Monte Carlo draws, an integer of at least ``MIN_SAMPLES``.
        seed: a non-negative integer that seeds the draw streams; equal
            seeds give equal draws for both estimator kinds.
        window: finite truncation window, or None for the untruncated support.

    Returns:
        RiskEstimate with the sample mean, its standard error, and the
        count of rejected draws (evaluation failures, at most 0.1%).

    Raises:
        DegenerateWindowError: if the truth has no mass in doubles on the
            window, before any draw is scored.
        MonteCarloError: if more than 0.1% of the draws fail.
    """
    if estimator_kind not in ("q0", "q1"):
        raise DomainError(f"unknown estimator kind {estimator_kind!r}")
    _check_draws(samples, seed)
    if not (0 < lambda1 < np.inf and 0 < lambda2 < np.inf):
        raise DomainError("scales must be positive and finite")
    if estimator_kind == "q1" and lambda1 < lambda2:
        raise DomainError("restricted risk needs lambda1 >= lambda2")

    # the statistics in units of lambda1, as the engine takes them
    child1, child2 = np.random.SeedSequence(seed).spawn(2)
    x1s = np.random.default_rng(child1).standard_gamma(shapes.r1, samples)
    x2s = np.random.default_rng(child2).gamma(shapes.r2, lambda2 / lambda1, samples) if estimator_kind == "q1" else None
    kls = _risk_kls(x1s, x2s, lambda1, shapes, window)

    bad = ~np.isfinite(kls)
    rejected = int(bad.sum())
    if rejected:
        # the only place the module logs: a run with no rejected draw never
        # loads logging
        import logging

        logging.getLogger(__name__).warning("rejected %d of %d Monte Carlo draws", rejected, samples)
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


def _ratio_grid(ratio_grid) -> tuple[float, ...]:
    """``ratio_grid`` (an iterable of numbers or numeric strings, not one
    string) as a tuple of floats; DomainError unless it is one, and
    finite, ascending and starts at >= 1."""
    if isinstance(ratio_grid, (str, bytes)):
        raise DomainError(f"ratio grid must be an iterable of numbers, not a string; got {ratio_grid!r}")
    try:
        entries = list(ratio_grid)
    except TypeError:
        raise DomainError(f"ratio grid must be an iterable of numbers; got {ratio_grid!r}") from None
    try:
        ratios = tuple(float(r) for r in entries)
    except (TypeError, ValueError):
        raise DomainError(f"ratio grid must be numeric; got {entries}") from None
    if not ratios or not np.all(np.isfinite(ratios)) or any(b <= a for a, b in zip(ratios, ratios[1:])) or ratios[0] < 1.0:
        raise DomainError(f"ratio grid must be finite, ascending and start at >= 1; got {ratios}")
    return ratios


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
    ratios = _ratio_grid(ratio_grid)
    _check_draws(samples, seed)
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
