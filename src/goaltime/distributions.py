"""Probability laws for waiting-time modelling.

The gamma law (scale parameterization), and a truncation wrapper that
renormalizes any positive density to a window and computes its summary
statistics.  The beta prime densities of the two predictive estimators are
in ``predictive``.  Densities are evaluated in log space wherever products
of large powers could overflow, and they accept numpy arrays.

Every integral over a window comes from one composite Gauss-Legendre grid,
on which ``truncate`` evaluates the density once, vectorized, and keeps
the samples in ``TruncatedDensity.grid``:

* panels graded geometrically toward the lower edge, each a quarter of the
  next, down to 2^-120 of the bulk panel width, so that an endpoint
  singularity ``y^(r'-1)`` with ``r' < 1`` and mass packed close to the
  edge still integrate to near machine precision; when the edge is above
  0, panels narrower than 1024 ulps of it are left out, so every node
  lies strictly inside the window and no two nodes coincide;
* uniform panels over the bulk of the window;
* for an infinite window, one log-spaced probe of the density fixes the
  bulk (all but 2^-20 of the mass) and a finite upper edge beyond which
  neither the mass nor the mean has a relative share above 2^-60, and
  panels growing fourfold span the tail up to that edge.

The graded and bulk edges are ``lo`` plus the bulk panel width times one
fixed table of multipliers (``_EDGE_STEPS``), less the graded ones that
are too narrow, so building them is one product.

The same call samples the density at the mode's two edge candidates, just
inside the window and the grid's top.  The window mass, the mean and the
cumulative panel masses are sums over that grid, and the mass below each
node is one product of the panel values with a fixed 16 x 16 integration
matrix (``_GL_CUM``, which integrates the panel's interpolating polynomial
from its lower edge to each node; built at import from the Legendre
recurrence).  The 16-node rule itself is a literal table, the hex floats
of numpy's ``leggauss(16)``, so that importing the module loads no
``numpy.polynomial``.  The CDF adds one Gauss-Legendre panel from the
nearest panel edge.  Quantiles take safeguarded Newton steps on that CDF,
one lane in Python floats per level; each step is one density call for
all lanes, which samples each iterate beside its partial panel's nodes.
Each lane starts between the two nodes whose mass brackets its level, by
inverse cubic Hermite interpolation with ``dy/dF = 1/f``, and ends once
its Newton step falls below rounding (a lane left unconverged raises
``ConvergenceError``).  The start is so close that on a finite window most
sets end after one call: the first Newton iterate's predicted error,
``|f'/(2f)| step^2`` with ``f'`` the slope between the two nodes, is then
below rounding in every lane.  The mode starts from the grid too: the
parabola through the log density at the grid argmax and its two
neighbours tells a mode at a window edge without a density call, the
quartic through the five values around the argmax gives the start, and
Newton steps on a five-point derivative finish it, on a finite window
mostly after one.  A summary fixes that start before the quantiles'
first call and samples the first stencil in it, after the levels' rows;
each further step is a call of five points.  So a summary on a finite
window mostly costs that one call.  No adaptive integrator, root finder
or optimizer runs.

``_gauss_jacobi`` builds the Gauss rule of the weight ``(1+x)^beta`` by
Golub and Welsch, in numpy alone; the risk's rule (``evaluation``) takes
its head panel from it, so that the truth's ``y^(r'-1)`` is carried by
the weights.  References: Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Review 50 (2008); Golub and Welsch, "Calculation
of Gauss quadrature rules", Math. Comp. 23 (1969).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DegenerateWindowError, DomainError

_GL_ORDER = 16
# the upper half of the 16-node Gauss-Legendre rule on [-1, 1], (node,
# weight) as hex floats, bit for bit numpy's ``leggauss(16)`` (the tests pin
# it), whose nodes are odd and weights even to the bit; written out so that
# no ``numpy.polynomial`` module loads at import
_GL_UPPER = np.array([
    [float.fromhex(x), float.fromhex(w)] for x, w in (
        ("0x1.852bd6676a9f9p-4", "0x1.83feae80e4e01p-3"),
        ("0x1.205cae642337cp-2", "0x1.75f8c77e0c011p-3"),
        ("0x1.d50259a43a772p-2", "0x1.5a6ebbb5a7600p-3"),
        ("0x1.3c5a466d5e8b8p-1", "0x1.325f61bca3cbep-3"),
        ("0x1.82c45dda4726bp-1", "0x1.fe7af2bad3878p-4"),
        ("0x1.bb3403514e483p-1", "0x1.85c4ee79cc24bp-4"),
        ("0x1.e39f56616f9b0p-1", "0x1.fdfb1a2c1261ep-5"),
        ("0x1.fa92c264d787ep-1", "0x1.bcddab4b7c228p-6"),
    )
]).T
_GL_X = np.concatenate((-_GL_UPPER[0, ::-1], _GL_UPPER[0]))
_GL_W = np.concatenate((_GL_UPPER[1, ::-1], _GL_UPPER[1]))
_GL_X1 = _GL_X + 1.0  # nodes shifted to [0, 2]
_BULK_PANELS = 16
_GRADE_RATIO = 4.0
_GRADE_STEPS = 60  # 4^-60 = 2^-120 of the first bulk panel
_MIN_PANEL_ULPS = 1024.0  # narrowest graded panel, in ulps of lo
# the graded and bulk panel edges, in bulk panel widths above lo: 0, the
# graded edges 4^-60 .. 4^-1, then the bulk panels' edges 1 .. 16
_EDGE_STEPS = np.concatenate(
    ([0.0], _GRADE_RATIO ** -np.arange(_GRADE_STEPS, 0, -1.0), np.arange(1.0, _BULK_PANELS + 1))
)
_PROBE = 2.0 ** np.arange(-300.0, 301.0)  # offsets from lo of an infinite window
_TAIL_TOL = 2.0**-60
_BULK_TAIL = 2.0**-20
_MAX_STEPS = 60  # bisection from one panel to one ulp needs fewer
_EPS = 2.0**-52  # the spacing of doubles at 1
# the mode's stencil step h = sqrt(_MODE_FLAT / -c) changes the log density
# by about _MODE_FLAT: about 4e-4 of the density's width
_MODE_FLAT = 1e-7
_MODE_NEWTON = 8  # a cap: the steps end after one or two on the fixtures
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


@dataclass(frozen=True)
class GammaModel:
    """Gamma law with density x^(shape-1) e^(-x/scale) / (Gamma(shape) scale^shape)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise DomainError("GammaModel requires a finite shape > 0 and scale > 0")

    @property
    def mean(self) -> float:
        return self.shape * self.scale


def gamma_logpdf(model: GammaModel, x):
    """Log density of the gamma law; -inf outside the support."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    xv = x[pos]
    out[pos] = (
        (model.shape - 1.0) * np.log(xv)
        - xv / model.scale
        - math.lgamma(model.shape)
        - model.shape * np.log(model.scale)
    )
    return out if x.ndim else float(out)


def gamma_pdf(model: GammaModel, x):
    """Gamma density; returns 0 for x <= 0 rather than raising."""
    x = np.asarray(x, dtype=float)
    out = np.exp(gamma_logpdf(model, x))
    return out if x.ndim else float(out)


def _gauss_panels(a, b):
    """Gauss-Legendre nodes and weights on the panels (a[i], b[i]), one row
    each; ``a`` and ``b`` are float arrays or numpy scalars."""
    a = a[..., None]
    half = 0.5 * (b[..., None] - a)
    return a + half * _GL_X1, half * _GL_W


def _integration_matrix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The matrix ``M`` whose row ``j`` integrates, from -1 to ``x[j]``, the
    polynomial that interpolates values at the n Gauss-Legendre nodes ``x``
    (weights ``w``): ``M @ f`` is that integral at every node.

    The interpolant's Legendre coefficients are ``(m + 1/2) sum_k w_k
    P_m(x_k) f_k`` (the rule is exact for ``P_m P_k``, degree below 2n),
    and ``P_m`` integrates from -1 to ``(P_{m+1} - P_{m-1}) / (2m + 1)``
    (``x + 1`` for ``m = 0``); the ``P_m(x_k)`` come from the three-term
    recurrence.
    """
    n = x.size
    p = np.empty((n + 1, n))
    p[0], p[1] = 1.0, x
    for m in range(1, n):
        p[m + 1] = ((2 * m + 1) * x * p[m] - m * p[m - 1]) / (m + 1)
    m = np.arange(1.0, n)[:, None]
    integral = np.concatenate(([x + 1.0], (p[2:] - p[:-2]) / (2.0 * m + 1.0)))
    coef = (np.arange(n)[:, None] + 0.5) * p[:-1] * w
    return integral.T @ coef


_GL_CUM = _integration_matrix(_GL_X, _GL_W)


def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the n-node Gauss rule on [-1, 1] for the
    weight ``(1+x)^beta``, ``beta > -1``: it integrates ``(1+x)^beta g(x)``
    exactly for every polynomial ``g`` of degree below ``2n``.

    Golub and Welsch (1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the weight's orthogonal
    (Jacobi, alpha = 0) polynomials, and each weight is the weight's
    total mass ``2^(beta+1)/(beta+1)`` times the squared first component
    of its eigenvector.  Nodes come out ascending.  The weights are
    returned as logs: the total mass overflows from ``beta = 1023``,
    while a weight divided by ``(1+x)^beta`` stays of moderate size.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(divide="ignore"):
        log_w = np.log(vec[0] ** 2) + ((beta + 1.0) * math.log(2.0) - math.log1p(beta))
    return x, log_w


def _share_beyond(v: np.ndarray) -> np.ndarray:
    """Share of ``sum(v)`` past each index, summed from the top (no cancellation)."""
    tail = np.cumsum(v[::-1])[::-1]
    return np.append(tail[1:], 0.0) / tail[0]


def _probe_infinite(base, lo: float) -> tuple[float, float]:
    """Bulk width and finite upper edge of (lo, inf) from one log-spaced probe.

    The probe values times their offsets are the mass per octave.  The bulk
    ends at the first probe point past which less than ``_BULK_TAIL`` of
    the mass remains; the edge is twice the first probe point past which
    neither the mass nor the mean integrand keeps more than ``_TAIL_TOL``.
    """
    y = lo + _PROBE
    per_octave = _PROBE * np.asarray(base(y), dtype=float)
    if not per_octave.sum() > 0:
        raise DegenerateWindowError(f"window ({lo}, inf) shows no mass on a probe from 2^-300 to 2^300")
    mass = _share_beyond(per_octave)
    mean = _share_beyond(y * per_octave)
    bulk = _PROBE[np.argmax(mass <= _BULK_TAIL)]
    top = 2.0 * _PROBE[np.argmax(np.maximum(mass, mean) <= _TAIL_TOL)]
    return bulk, top


def _panel_edges(base, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Panel edges of the window grid, and the bulk width they were built on:
    ``lo + h * _EDGE_STEPS``, ``h`` a bulk panel's width, then the growth
    panels of an infinite window."""
    finite = math.isfinite(hi)
    if finite:
        bulk, top = hi - lo, hi - lo
    else:
        bulk, top = _probe_infinite(base, lo)
    steps = (bulk / _BULK_PANELS) * _EDGE_STEPS
    # graded panels narrower than this would put their nodes on lo or on
    # each other: the first n go, and steps[n] takes the place of the 0
    cut = _MIN_PANEL_ULPS * np.spacing(lo)
    if steps[1] <= cut:
        n = int(steps[1 : _GRADE_STEPS + 1].searchsorted(cut, side="right"))
        steps = steps[n:]
        steps[0] = 0.0
    if finite:
        edges = lo + steps
        edges[-1] = hi
    else:
        growth = bulk * _GRADE_RATIO ** np.arange(1.0, np.ceil(np.log(top / bulk) / np.log(_GRADE_RATIO)) + 1)
        edges = lo + np.concatenate((steps, growth))
    return edges, bulk


@dataclass(frozen=True)
class DensityGrid:
    """A density sampled on its window grid: panel edges, nodes, weights,
    values, ``cum``, the mass below each panel edge, ``node_cum``, the mass
    below each node (flat, in the nodes' order), ``ends``, the mode's two
    edge candidates, and ``f_ends``, the density there."""

    edges: np.ndarray
    y: np.ndarray
    w: np.ndarray
    f: np.ndarray
    cum: np.ndarray
    node_cum: np.ndarray
    ends: np.ndarray
    f_ends: np.ndarray


@dataclass(frozen=True)
class TruncatedDensity:
    """A density renormalized to the window (lo, hi).

    ``base`` is the original density (vectorized callable on positive
    reals), ``mass`` its integral over the window, and ``grid`` holds
    ``base`` sampled on the window grid, from which the CDF and the
    summaries derive.  Instances are immutable and safe to evaluate
    concurrently.
    """

    base: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    mass: float
    grid: DensityGrid = field(repr=False, compare=False)

    @property
    def window(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        inside = (y > self.lo) & (y < self.hi)
        out = np.zeros(y.shape)
        out[inside] = np.asarray(self.base(y[inside])) / self.mass
        return out if y.ndim else float(out)

    __call__ = pdf

    def _partial_panel(self, t: np.ndarray, extra: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Integral of ``base`` from lo to each t (t inside the grid),
        ``base(t)``, and ``base`` at the flat points ``extra`` (None where
        there are none), from one call of ``base``: each t rides beside the
        Gauss-Legendre nodes of its partial panel, from the grid edge below
        it up to t, and ``extra`` rides after them."""
        edges = self.grid.edges
        k = np.minimum(np.maximum(edges.searchsorted(t, side="right") - 1, 0), len(edges) - 2)
        y, w = _gauss_panels(edges[k], t)
        y = np.concatenate((y, t[..., None]), axis=-1)
        if extra is None:
            f = np.asarray(self.base(y), dtype=float)
        else:
            f = np.asarray(self.base(np.concatenate((y.ravel(), extra))), dtype=float)
            f, extra = f[: y.size].reshape(y.shape), f[y.size :]
        return self.grid.cum[k] + np.add.reduce(w * f[..., :-1], axis=-1), f[..., -1], extra

    def cdf(self, t):
        """Distribution function at t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        tt = np.clip(t, self.lo, self.grid.edges[-1])
        with np.errstate(invalid="ignore"):
            out = np.where(t > self.lo, np.minimum(self._partial_panel(tt)[0] / self.mass, 1.0), 0.0)
        return out if t.ndim else float(out)


def truncate(base, lo: float, hi: float) -> TruncatedDensity:
    """Renormalize ``base`` to the window (lo, hi).

    The window mass is the sum over the window grid (see the module
    docstring); ``hi`` may be infinite, in which case the mass is the full
    normalization of ``base``.  The grid is graded toward ``lo`` only: an
    endpoint singularity at a finite ``hi`` integrates to only about 1e-5
    (the mass of Beta(4.2, 1.3) on (0, 1) is off by 1.4e-5).  q0, q1 and
    the gamma truth have no such edge.

    Raises:
        DegenerateWindowError: if the window mass is zero or not finite.
    """
    if not lo < hi:
        raise DomainError(f"empty window ({lo}, {hi})")
    edges, bulk = _panel_edges(base, lo, hi)
    y, w = _gauss_panels(edges[:-1], edges[1:])
    # the mode's edge candidates, eps inside the window and its grid's top,
    # ride along in the one density call
    eps = 1e-9 * bulk
    ends = np.array([lo + eps, edges[-1] - eps])
    f = np.asarray(base(np.concatenate((y.ravel(), ends))), dtype=float)
    f, f_ends = f[:-2].reshape(y.shape), f[-2:]
    wf = w * f
    mass = float(np.sum(wf))
    if not (np.isfinite(mass) and mass > 0):
        raise DegenerateWindowError(f"window ({lo}, {hi}) has mass {mass}")
    cum = np.concatenate(([0.0], np.cumsum(np.sum(wf, axis=1))))
    # the mass below each node: its panel's, plus the integral of the
    # interpolant of f from the panel's lower edge (w / _GL_W is half its width)
    node_cum = (wf / _GL_W) @ _GL_CUM.T
    node_cum += cum[:-1, None]
    grid = DensityGrid(edges=edges, y=y, w=w, f=f, cum=cum, node_cum=node_cum.ravel(), ends=ends, f_ends=f_ends)
    return TruncatedDensity(base=base, lo=float(lo), hi=float(hi), mass=mass, grid=grid)


@dataclass(frozen=True)
class DensitySummary:
    mode: float
    mean: float
    quantiles: dict[float, float]


def _newton_start(g: DensityGrid, target: float, k: int, j: int) -> tuple[float, float, float, float, float]:
    """Start and bracket of one quantile's Newton steps, and ``f1 - f0``
    and ``y1 - y0`` between the two grid nodes the start lies between.

    The bracket is the panel ``k`` whose cumulative mass holds ``target``,
    and ``j`` is the first grid node whose CDF (``DensityGrid.node_cum``) is
    above it.  The start lies between the nodes ``j - 1`` and ``j``, by
    inverse cubic Hermite interpolation of ``y(F)`` with ``dy/dF = 1/f``.
    Where there is no such pair (a level before the grid's first node or
    past its last: the pair is clipped to one node, and ``y1 - y0`` is 0),
    where the density is 0 at either node, or where that point is not
    finite or leaves the panel, the start is linear in cumulative mass
    across the whole panel; an empty panel starts at its left edge, or at
    its right edge where the level lies above the panel's mass by rounding.
    """
    left, right = g.edges.item(k), g.edges.item(k + 1)
    i, j = max(j - 1, 0), min(j, g.node_cum.size - 1)
    y0, y1, f0, f1 = g.y.item(i), g.y.item(j), g.f.item(i), g.f.item(j)
    t = math.nan
    if y1 != y0 and f0 > 0 and f1 > 0:
        c0 = g.node_cum.item(i)
        dc = g.node_cum.item(j) - c0
        s = (target - c0) / dc
        t = y0 + s * s * (3.0 - 2.0 * s) * (y1 - y0) + s * (s - 1.0) * ((s - 1.0) * dc / f0 + s * dc / f1)
    if not left < t < right:
        c = g.cum.item(k)
        mass = g.cum.item(k + 1) - c
        share = (target - c) / mass if mass else float(target > c)
        t = left + (right - left) * min(max(share, 0.0), 1.0)
    return t, left, right, f1 - f0, y1 - y0


def _quantiles(d: TruncatedDensity, probs: np.ndarray, extra: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Quantiles by safeguarded Newton steps on the grid CDF, and the
    density at the flat points ``extra``, which ride in the first call
    (None where there are none).

    Each level is one lane of Newton steps in Python floats.  It starts
    inside the panel whose cumulative mass brackets it, from the CDF at the
    grid's nodes (``_newton_start``; the panels and the nodes of all levels
    are found by one ``searchsorted`` each).  A step makes one density call
    for all lanes, which gives both the CDF residual and the density at
    each iterate (``TruncatedDensity._partial_panel``).
    A lane whose Newton step falls below rounding (``4 eps`` of the iterate)
    has reached its root and stays there; any other Newton step that leaves
    the current bracket, or meets a density of 0, is replaced by bisection,
    and a lane also ends once that safeguarded step falls below rounding.
    After the first call, the set ends without a second one when every lane
    has either reached its root or has a first Newton iterate inside its
    bracket whose predicted error ``|f'/(2f)| step^2`` is at most ``eps``
    of it, with ``f'`` the slope between the two nodes its start lies
    between (a lane whose start had no such pair does not end there): the
    second call would only confirm that iterate.  Most sets on a finite
    window end after one call; on (0, inf), where the grid's nodes lie
    further apart, most take three.  The cost grows linearly with the
    number of levels.

    Raises:
        ConvergenceError: if some lane has not ended after ``_MAX_STEPS``.
    """
    g = d.grid
    target = probs * d.mass
    k = g.cum[1:-1].searchsorted(target, side="right").tolist()
    j = g.node_cum.searchsorted(target, side="right").tolist()
    target = target.tolist()
    lanes = [list(_newton_start(g, *level)) for level in zip(target, k, j)]
    for n in range(_MAX_STEPS):
        # the points ``extra`` ride in the first call, and their values replace them
        below, f, values = d._partial_panel(np.array([lane[0] for lane in lanes]), None if n else extra)
        extra = extra if n else values
        first, converged = [], []
        for lane, c, b, fy in zip(lanes, target, below.tolist(), f.tolist()):
            t, left, right, df, dy = lane
            resid = b - c
            if resid < 0:
                left = t
            elif resid > 0:
                right = t
            step = resid / fy if fy else math.inf
            # checked before the bracket: a root reached from one side sits
            # on that bracket end, where the strict test below would bisect away
            settled = resid == 0 or abs(step) <= 4.0 * _EPS * abs(t)
            nxt = t - step
            inside = left < nxt < right
            if n == 0:
                # Newton's error at t - step is about |f'/(2f)| step^2, f' the
                # slope between the start's bracketing nodes: where it is
                # below rounding in every lane, the next call would only
                # confirm the iterate
                den = dy * (2.0 * fy)
                if settled or inside and den != 0 and abs(df / den) * (step * step) <= _EPS * abs(nxt):
                    first.append(t if settled else nxt)
            if not inside:
                nxt = 0.5 * (left + right)
            converged.append(settled or abs(nxt - t) <= 4.0 * _EPS * abs(nxt))
            lane[:3] = t if settled else nxt, left, right
        if len(first) == len(lanes):
            return np.array(first), extra
        if all(converged):
            return np.array([lane[0] for lane in lanes]), extra
    unconverged = [p for p, ok in zip(probs.tolist(), converged) if not ok]
    raise ConvergenceError(f"quantiles at levels {unconverged} not converged after {_MAX_STEPS} Newton steps")


def _quartic_peak(x: list, v: list, t: float, a: float, b: float, tol: float) -> float:
    """Maximum of the quartic through the five points ``(x[k], v[k])``, by
    Newton steps on its derivative from ``t`` until one falls below
    ``tol``; ``t`` itself where a step meets no maximum or leaves (a, b).

    The quartic is in Newton's divided-difference form, and each step
    evaluates its first two derivatives by Horner's rule, in floats: a
    least-squares fit would cost more than the density call it saves.
    """
    c = list(v)
    for n in range(1, 5):
        for k in range(4, n - 1, -1):
            c[k] = (c[k] - c[k - 1]) / (x[k] - x[k - n])
    u = t
    for _ in range(_MODE_NEWTON):
        p, dp, d2p = c[4], 0.0, 0.0
        for k in range(3, -1, -1):
            z = u - x[k]
            d2p = d2p * z + 2.0 * dp
            dp = dp * z + p
            p = p * z + c[k]
        if not d2p < 0:
            return t
        step = dp / d2p
        u -= step
        if not a < u < b:
            return t
        if abs(step) < tol:
            break
    return u


def _mode_start(d: TruncatedDensity) -> tuple[float, float, float, float]:
    """The mode's start from the grid, with no density call: ``(t, h, a,
    b)``, the start ``t``, the stencil's step ``h`` and the neighbours
    ``a``, ``b`` its Newton steps stay between (``_mode_steps``), or ``h =
    0`` where the mode is ``t`` itself, at a window edge or a grid node.

    The grid argmax is taken over [lo + eps, top - eps]: the window edges
    stay candidates, sampled ``eps`` inside since the density may be
    unbounded at ``lo``.  The argmax is taken on the density and the log
    is taken of only the five values around it.  The parabola through the
    log density at the argmax and its two neighbours (divided differences
    on the uneven nodes) tells whether the mode is inside: where it has no
    maximum between the neighbours, or is infinitely curved because the
    density is 0 at a neighbour, the mode is the argmax itself, and an
    edge candidate's is the edge (``lo``, or ``top``, the grid's upper
    edge).  Otherwise the start is the maximum of the quartic through the
    five values, found from the parabola's vertex (``_quartic_peak``; the
    vertex where the quartic has no maximum between the neighbours), and
    the stencil's step ``h = sqrt(_MODE_FLAT / -c)`` comes from the
    parabola's curvature ``c``.  A density that vanishes somewhere gives a
    log of -inf there, so the caller ignores division by zero.
    """
    g = d.grid
    lo, hi = g.ends
    y = g.y.ravel()
    # the nodes strictly between the edge candidates: a run of the sorted grid
    k0, k1 = y.searchsorted(lo, side="right"), y.searchsorted(hi)
    ys = np.concatenate((g.ends[:1], y[k0:k1], g.ends[1:]))
    fs = np.concatenate((g.f_ends[:1], g.f.ravel()[k0:k1], g.f_ends[1:]))
    j = int(np.argmax(fs))
    # the five values around the argmax, and the parabola's three among them
    i = min(max(j, 2), len(ys) - 3)
    x = ys[i - 2 : i + 3].tolist()
    v = np.log(fs[i - 2 : i + 3]).tolist()
    k = min(max(j, 1), len(ys) - 2) - i + 2
    a, m, b = x[k - 1 : k + 2]
    va, vm, vb = v[k - 1 : k + 2]
    slope = (vm - va) / (m - a)
    c = ((vb - vm) / (b - m) - slope) / (b - a)
    best = 0.5 * (a + m - slope / c) if -math.inf < c < 0 else a
    if not a < best < b:
        return float(d.lo if j == 0 else g.edges[-1] if j == len(ys) - 1 else ys[j]), 0.0, a, b
    h = math.sqrt(_MODE_FLAT / -c)
    return _quartic_peak(x, v, best, a, b, 1e-3 * h), h, a, b


def _mode_steps(d: TruncatedDensity, best: float, h: float, a: float, b: float, f: np.ndarray) -> float:
    """The mode, by Newton steps on a five-point derivative of the log
    density from ``_mode_start``'s start ``best``, given ``f``, the density
    at its stencil ``best + h * _STENCIL``; each further step makes one
    density call.

    The steps stay between the neighbours ``a`` and ``b`` (one held at an
    edge candidate is that edge) and stop once one falls below ``1e-3 h``;
    by Newton's quadratic convergence the iterate is then within about
    1e-12 of the density's width.  On a finite window the quartic's start
    is mostly that close already, so most interior modes stop after the
    first stencil.  The stencil's five values are Python floats; the
    caller ignores division by zero, as for ``_mode_start``.
    """
    lo, hi = d.grid.ends
    for n in range(_MODE_NEWTON):
        if n:
            f = d.base(best + h * _STENCIL)
        w = np.log(np.asarray(f, dtype=float)).tolist()
        grad = (w[0] - 8.0 * w[1] + 8.0 * w[3] - w[4]) / (12.0 * h)
        curv = (w[1] - 2.0 * w[2] + w[3]) / h**2
        if not (math.isfinite(grad) and curv < 0):
            break
        step = grad / curv
        best = min(max(best - step, a), b)
        if abs(step) < 1e-3 * h:
            break
    return float(d.lo if best == lo else d.grid.edges[-1] if best == hi else best)


def _mode(d: TruncatedDensity) -> float:
    """The mode search alone: ``_mode_start``, then ``_mode_steps`` from a
    stencil call of its own (none where the mode is at an edge or a node)."""
    best, h, a, b = _mode_start(d)
    return _mode_steps(d, best, h, a, b, d.base(best + h * _STENCIL)) if h else best


def summarize(d: TruncatedDensity, probs=(0.2, 0.5, 0.9)) -> DensitySummary:
    """Mode, mean, and quantiles of a truncated density, from its window grid.

    ``probs`` is one level in (0, 1) or a flat sequence of them; anything
    else is a DomainError.
    The mean is a weighted sum over the grid; each quantile inverts the
    grid CDF to a few ulps, by Newton steps that start from the CDF at the
    grid's nodes, one lane in Python floats per level (on a finite window
    mostly one density call for all levels together, ending once Newton's
    predicted error is below rounding).  The levels share each call, but
    the lanes' bookkeeping costs 5-8 us a level (2-core x86_64), so a
    summary is meant for a few levels, not a table of many.  Over r' in
    [0.5, 6], r1, r2 in [1.5, 6] and statistics in [1e-2, 1e4], on
    finite and infinite windows, the window mass and the mean agree with
    closed forms and adaptive quadrature to about 1e-14 relative, and every
    quantile's CDF with its level to about 1e-14.  The mode starts at the
    vertex of the parabola through the log density at the grid argmax and
    its neighbours, with both window edges as candidates (sampled by
    ``truncate`` in the grid's own density call), refined on the quartic
    through the five grid values around the argmax, and Newton steps on a
    five-point derivative take it to about 1e-11 of the density's width.
    The start needs no density call, and the first step's stencil rides in
    the quantiles' first call, so on a finite window a summary mostly
    makes one call in all; each further step makes one more, and a mode
    at a window edge or a grid node samples no stencil.  Over r1 in
    [1.05, 8], r' in [1.02, 8] and x1 in [e^-4, e^7] the mode is within
    about 2e-11 of q0's width of the closed form, and on the fixtures within
    2e-10 min of the closed-form (q0) and mpmath (q1) modes.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim > 1:
        raise DomainError(f"quantile levels must be one level or a flat sequence, got shape {probs.shape}")
    probs = probs.reshape(-1)
    bad = probs[~((probs > 0.0) & (probs < 1.0))]
    if bad.size:
        raise DomainError(f"quantile level {bad[0]} outside (0, 1)")
    g = d.grid
    mean = float(np.sum(g.w * g.y * g.f) / d.mass)
    with np.errstate(divide="ignore"):
        best, h, a, b = _mode_start(d)
    # an interior mode's first stencil rides in the quantile set's first call
    quantiles, f = _quantiles(d, probs, best + h * _STENCIL if h else None)
    with np.errstate(divide="ignore"):
        mode = _mode_steps(d, best, h, a, b, f) if h else best
    return DensitySummary(mode=mode, mean=mean, quantiles=dict(zip(probs.tolist(), quantiles.tolist())))
