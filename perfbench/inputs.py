"""Seeded input generator for the benchmark workloads.

Every input comes from ``numpy.random.default_rng(seed)``, so one seed
gives byte-identical game logs and identical parameters on every machine,
and a claim can be re-checked on a seed it was not tuned on.  Game logs are
written through ``goaltime.ingest.serialize_game_log``, the same format the
package and its CLI read.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from goaltime.evaluation import DEFAULT_LAMBDA1, DEFAULT_RATIO_GRID, DEFAULT_SAMPLES
from goaltime.ingest import (
    GameRecord,
    canadiens_fixture_path,
    serialize_game_log,
    toronto_fixture_path,
)

WINDOW = (0.0, 60.0)
# the CLI's default density grid: 600 midpoints of the window
GRID = WINDOW[0] + (WINDOW[1] - WINDOW[0]) / 600 * (np.arange(600) + 0.5)

FIXTURE_TEAMS = ("Toronto Maple Leafs", "Montreal Canadiens")
# reference q1 summary row (mode, mean, p20, p50, p90) of the bundled fixture
FIXTURE_Q1_ROW = (28.13, 33.12, 19.06, 32.82, 53.48)
FIXTURE_ROW_TOL = 0.04
# scale of the CLI's default reference law for prediction-error, Gam(3, 18.3)
FIXTURE_TRUTH_SCALE = 18.3

RISK_SAMPLES = DEFAULT_SAMPLES
RISK_RATIOS = DEFAULT_RATIO_GRID
RISK_LAMBDA1 = DEFAULT_LAMBDA1

# one domain-sweep op in EDGE_EVERY is an edge case, cycling over these kinds
EDGE_EVERY = 8
EDGE_KINDS = ("x2-small", "x1-above-window", "large-shapes")

_TEAMS = tuple(f"Synthetic {c}" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def elapsed_times(rng: np.random.Generator, shape: float, scale: float, n: int) -> np.ndarray:
    """``n`` gamma waiting times truncated to (0, 60], rounded to 0.01 min."""
    out = np.empty(0)
    while out.size < n:
        draw = np.round(rng.gamma(shape, scale, size=2 * n), 2)
        out = np.concatenate([out, draw[(draw > 0) & (draw <= WINDOW[1])]])
    return out[:n]


def game_log(rng: np.random.Generator, team: str, shape: float, scale: float, goal_index: int) -> bytes:
    """A season log of 10-82 games for ``team`` as CSV bytes."""
    n = int(rng.integers(10, 83))
    others = [t for t in _TEAMS if t != team]
    opponents = rng.integers(0, len(others), size=n)
    records = [
        GameRecord(team=team, opponent=others[k], elapsed_minutes=float(t), goal_index=goal_index)
        for k, t in zip(opponents, elapsed_times(rng, shape, scale, n))
    ]
    buf = io.StringIO()
    serialize_game_log(records, buf)
    return buf.getvalue().encode("utf-8")


def _two_teams(rng: np.random.Generator) -> tuple[str, str, float, float]:
    """Two distinct team names and true scales with lam_a >= lam_b."""
    a, b = rng.choice(len(_TEAMS), size=2, replace=False)
    lam_a = float(rng.uniform(8.0, 16.0))
    return _TEAMS[a], _TEAMS[b], lam_a, lam_a / float(rng.uniform(1.0, 2.0))


@dataclass(frozen=True)
class Matchup:
    """Two season logs, integer shapes, and the own team's true law."""

    team_a: str
    team_b: str
    log_a: bytes
    log_b: bytes
    r: float
    r_prime: float
    truth_scale: float
    fixture: bool = False


def matchups(seed: int, passes: int = 6) -> list[Matchup]:
    """``passes`` rounds of one matchup per (r, r') in {2..5} x {1..5}.

    Each round visits the 20 shape pairs in a fresh seeded order with fresh
    logs, so a run's median is taken over many distinct inputs.  The (3, 3)
    slot of every round is the bundled Toronto/Montreal fixture, checked
    against its reference summary row.
    """
    rng = np.random.default_rng(seed)
    combos = [(r, rp) for r in range(2, 6) for rp in range(1, 6)]
    fixture = Matchup(
        team_a=FIXTURE_TEAMS[0], team_b=FIXTURE_TEAMS[1],
        log_a=toronto_fixture_path().read_bytes(),
        log_b=canadiens_fixture_path().read_bytes(),
        r=3.0, r_prime=3.0, truth_scale=FIXTURE_TRUTH_SCALE, fixture=True,
    )
    out = []
    for _ in range(passes):
        for k in rng.permutation(len(combos)):
            r, rp = combos[k]
            if (r, rp) == (3, 3):
                out.append(fixture)
                continue
            team_a, team_b, lam_a, lam_b = _two_teams(rng)
            out.append(Matchup(
                team_a=team_a, team_b=team_b,
                log_a=game_log(rng, team_a, r, lam_a, r),
                log_b=game_log(rng, team_b, r, lam_b, r),
                r=float(r), r_prime=float(rp), truth_scale=lam_a,
            ))
    return out


@dataclass(frozen=True)
class DomainPoint:
    """Shapes and statistics of one predict-style op."""

    kind: str
    r1: float
    r2: float
    r_prime: float
    x1: float
    x2: float


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


def domain_points(seed: int, n: int = 64) -> list[DomainPoint]:
    """Non-integer shapes over the valid domain, plus a fixed share of edges.

    The main part is a Halton sequence with a seeded random shift, so every
    prefix of the list, and so every run however long, covers the shape
    domain evenly: r1, r2 in [1.5, 6], r' in [0.5, 6].  Statistics are means
    of simulated season logs, as in ``matchups``.  Every ``EDGE_EVERY``-th
    point is an edge case instead: a tiny x2, an x1 above the window, or
    large shapes.
    """
    rng = np.random.default_rng(seed)
    shift = rng.random(5)
    out = []
    for i in range(n):
        u = [(_radical_inverse(i + 1, b) + s) % 1.0 for b, s in zip((2, 3, 5, 7, 11), shift)]
        r1, r2 = 1.5 + 4.5 * u[0], 1.5 + 4.5 * u[1]
        r_prime = 0.5 + 5.5 * u[2]
        lam_a = 8.0 + 8.0 * u[3]
        lam_b = lam_a / (1.0 + u[4])
        x1 = float(elapsed_times(rng, r1, lam_a, int(rng.integers(10, 83))).mean())
        x2 = float(elapsed_times(rng, r2, lam_b, int(rng.integers(10, 83))).mean())
        kind = "main"
        if i % EDGE_EVERY == EDGE_EVERY - 1:
            kind = EDGE_KINDS[(i // EDGE_EVERY) % len(EDGE_KINDS)]
            if kind == "x2-small":
                x2 = float(10.0 ** rng.uniform(-300.0, -1.0))
            elif kind == "x1-above-window":
                x1 = float(rng.uniform(60.0, 150.0))
            else:
                r1, r2, r_prime = (float(v) for v in 10.0 ** rng.uniform(1.0, np.log10(200.0), 3))
        out.append(DomainPoint(kind, float(r1), float(r2), float(r_prime), x1, x2))
    return out


@dataclass(frozen=True)
class RiskPoint:
    """One point of a risk curve: scale ratio, window, shapes, MC seed."""

    ratio: float
    window: tuple[float, float] | None
    r1: float
    r2: float
    r_prime: float
    mc_seed: int


def risk_points(seed: int, n: int = 28) -> list[RiskPoint]:
    """Ratios cycle through the default grid, the window alternates between
    untruncated and (0, 60); shapes are seeded integers in {2..5}."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        r1, r2, rp = (float(v) for v in rng.integers(2, 6, size=3))
        out.append(RiskPoint(
            ratio=float(RISK_RATIOS[i % len(RISK_RATIOS)]),
            window=None if i % 2 == 0 else WINDOW,
            r1=r1, r2=r2, r_prime=rp,
            mc_seed=int(rng.integers(0, 2**31)),
        ))
    return out


def log_pairs(seed: int, n: int) -> list[tuple[bytes, bytes]]:
    """Own-team and rival season logs (shape 3) for the CLI workload."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        team_a, team_b, lam_a, lam_b = _two_teams(rng)
        out.append((game_log(rng, team_a, 3.0, lam_a, 3), game_log(rng, team_b, 3.0, lam_b, 3)))
    return out
