"""Command-line front end.

Emits plot-ready density tables, summary rows, risk curves, and prediction
errors as CSV or JSON.  Every output starts with a metadata block carrying
the package version, the fully resolved configuration, and the seed, so a
run can be reproduced byte for byte.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import __version__, evaluation, ingest
from .distributions import GammaModel, gamma_pdf, truncate
from .errors import GoaltimeError
from .evaluation import ShapeConfig
from .predictive import (
    DEFAULT_WINDOW,
    PredictionProblem,
    SufficientStat,
    predictive_summaries,
    restricted_predictive,
    unrestricted_predictive,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULT_RATIOS = ",".join(f"{r:g}" for r in evaluation.DEFAULT_RATIO_GRID)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _strict(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json(value, **kwargs) -> str:
    return json.dumps(_strict(value), sort_keys=True, allow_nan=False, **kwargs)


@dataclass
class RunConfig:
    command: str
    r1: float
    r2: float
    r_prime: float
    window: tuple[float, float]
    x1: float
    x2: float | None
    x2_mode: str
    grid: int
    samples: int
    seed: int
    fmt: str
    out: str | None
    sources: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["format"] = d.pop("fmt")
        d.update(d.pop("sources"))
        d.update(d.pop("extras"))
        return d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goaltime",
        description="Predictive densities for the waiting time until the r-th goal.",
    )
    parser.add_argument("--version", action="version", version=f"goaltime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_mc: bool = False):
        p.add_argument("--r1", type=float, default=3.0, help="shape of the own-team statistic")
        p.add_argument("--r2", type=float, default=3.0, help="shape of the rival statistic")
        p.add_argument("--r-prime", type=float, default=3.0, help="shape of the future draw")
        p.add_argument("--x1", type=float, help="own-team statistic in minutes")
        p.add_argument("--x2", type=float, help="rival statistic in minutes (pre-scaled)")
        p.add_argument("--team-a-log", metavar="PATH", help="own-team game log CSV")
        p.add_argument("--team-b-log", metavar="PATH", help="rival game log CSV")
        p.add_argument("--team-a", help="team name in --team-a-log (default: first row's team)")
        p.add_argument("--team-b", help="team name in --team-b-log (default: first row's team)")
        p.add_argument("--points-a", type=int, help="own team's season points")
        p.add_argument("--points-b", type=int, help="rival's season points")
        p.add_argument(
            "--x2-mode",
            choices=["raw", "points-ratio", "points-ratio-squared"],
            default="raw",
            help="rescaling of the rival mean by season points",
        )
        p.add_argument("--window", default=None, help="truncation window LO,HI (HI may be inf)")
        p.add_argument("--grid", type=int, default=600, help="number of density grid points")
        if with_mc:
            p.add_argument("--samples", type=int, default=evaluation.DEFAULT_SAMPLES)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--out", metavar="PATH", help="output path (default: standard output)")

    p = sub.add_parser("predict", help="densities of both estimators on a grid")
    add_common(p)

    p = sub.add_parser("density-table", help="untruncated density values on a grid")
    add_common(p)

    p = sub.add_parser("summarize", help="mode, mean and percentiles of both estimators")
    add_common(p)

    p = sub.add_parser("prediction-error", help="KL distance of each estimator from a reference law")
    add_common(p)
    p.add_argument("--truth-shape", type=float, default=3.0, help="shape of the reference gamma")
    p.add_argument("--truth-scale", type=float, default=18.3, help="scale of the reference gamma")

    p = sub.add_parser("risk-curve", help="Monte Carlo risk along a scale-ratio grid")
    add_common(p, with_mc=True)
    p.add_argument("--ratios", default=_DEFAULT_RATIOS, help="comma-separated scale ratios")
    p.add_argument("--lambda1", type=float, default=evaluation.DEFAULT_LAMBDA1,
                   help="own-team scale held fixed along the curve")
    return parser


def _parse_window(text: str | None, default: tuple[float, float]) -> tuple[float, float]:
    if text is None:
        return default
    parts = text.split(",")
    if len(parts) != 2:
        raise GoaltimeError(f"window must be LO,HI; got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise GoaltimeError(f"window must be numeric; got {text!r}") from None
    if not 0 <= lo < hi:
        raise GoaltimeError(f"window needs 0 <= LO < HI; got {text!r}")
    return (lo, hi)


def _stat_from_args(args, side: str, r: float, x2_mode: str) -> tuple[float | None, dict]:
    """Resolve one team's statistic: explicit value, a log file, or the fixture."""
    explicit = getattr(args, f"x{1 if side == 'a' else 2}")
    log_path = getattr(args, f"team_{side}_log")
    if explicit is not None and log_path is not None:
        raise GoaltimeError(f"give exactly one of --x{1 if side == 'a' else 2} and --team-{side}-log")
    if explicit is not None:
        if explicit <= 0:
            raise GoaltimeError("statistics must be positive")
        return float(explicit), {f"team_{side}_log": None}
    source = log_path
    if log_path is None:
        # a bundled fixture is recorded by name: its path depends on the install
        log_path = ingest.toronto_fixture_path() if side == "a" else ingest.canadiens_fixture_path()
        source = log_path.name
    records = ingest.parse_game_log(log_path)
    if not records:
        raise GoaltimeError(f"no rows in {log_path}")
    team = getattr(args, f"team_{side}") or records[0].team
    mode = x2_mode if side == "b" else "raw"
    points = None
    if mode != "raw":
        pts_own = args.points_b if side == "b" else args.points_a
        pts_opp = args.points_a if side == "b" else args.points_b
        if pts_own is None or pts_opp is None:
            raise GoaltimeError(f"--x2-mode {mode} needs --points-a and --points-b")
        points = (pts_own, pts_opp)
    stat = ingest.reduce_to_stat(records, team, r=r, x2_mode=mode, points=points)
    return stat.x, {f"team_{side}_log": str(source), f"team_{side}": team}


def resolve_config(args) -> RunConfig:
    x2_mode = args.x2_mode.replace("-", "_")
    default_window = None if args.command == "risk-curve" else DEFAULT_WINDOW
    window = _parse_window(args.window, default_window)
    sources: dict = {}
    if args.command == "risk-curve":
        x1, x2 = float("nan"), None
    else:
        x1, src_a = _stat_from_args(args, "a", args.r1, x2_mode)
        sources.update(src_a)
        x2, src_b = _stat_from_args(args, "b", args.r2, x2_mode)
        sources.update(src_b)
    if args.grid < 2:
        raise GoaltimeError("--grid must be at least 2")
    if args.command in ("predict", "density-table") and window is not None and not np.isfinite(window[1]):
        raise GoaltimeError(f"{args.command} needs a finite window")
    if args.command == "risk-curve" and window is not None and not np.isfinite(window[1]) and window[0] > 0:
        raise GoaltimeError(f"risk-curve needs LO = 0 on an infinite window; got {args.window!r}")
    extras = {}
    if args.command == "prediction-error":
        extras = {"truth_shape": args.truth_shape, "truth_scale": args.truth_scale}
    if args.command == "risk-curve":
        try:
            ratios = tuple(float(t) for t in args.ratios.split(","))
        except ValueError:
            raise GoaltimeError(f"bad --ratios {args.ratios!r}") from None
        if not ratios[0] >= 1.0 or not all(b > a for a, b in zip(ratios, ratios[1:])):
            raise GoaltimeError(f"--ratios must be ascending and start at >= 1; got {args.ratios!r}")
        if args.samples < 100:
            raise GoaltimeError(f"--samples must be at least 100; got {args.samples}")
        extras = {"ratios": list(ratios), "lambda1": args.lambda1}
    cfg = RunConfig(
        command=args.command,
        r1=args.r1,
        r2=args.r2,
        r_prime=args.r_prime,
        window=window if window is not None else (0.0, float("inf")),
        x1=x1,
        x2=x2,
        x2_mode=x2_mode,
        grid=args.grid,
        samples=getattr(args, "samples", 0),
        seed=getattr(args, "seed", 0),
        fmt=args.fmt,
        out=args.out,
        sources=sources,
        extras=extras,
    )
    # out-of-domain shapes and scales fail here, in the constructors that
    # the command itself would call, so they exit as configuration errors
    if cfg.command == "risk-curve":
        ShapeConfig(r1=cfg.r1, r2=cfg.r2, r_prime=cfg.r_prime)
        GammaModel(cfg.r_prime, cfg.extras["lambda1"])
    else:
        _problem(cfg)
    if cfg.command == "prediction-error":
        GammaModel(cfg.extras["truth_shape"], cfg.extras["truth_scale"])
    return cfg


def _write(cfg: RunConfig, columns: list[str], rows: list[list]) -> None:
    meta = {"version": __version__, "config": cfg.as_dict(), "seed": cfg.seed}
    if cfg.fmt == "csv":
        lines = [
            f"# goaltime {__version__}",
            f"# config: {_json(meta['config'])}",
            f"# seed: {cfg.seed}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "meta": meta,
            "columns": columns,
            "rows": [
                [float(_fmt(v)) if isinstance(v, float) else v for v in row] for row in rows
            ],
        }
        text = _json(payload, indent=1) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem(cfg: RunConfig, window=None) -> PredictionProblem:
    return PredictionProblem(
        obs_a=SufficientStat(x=cfg.x1, r=cfg.r1),
        obs_b=SufficientStat(x=cfg.x2, r=cfg.r2) if cfg.x2 is not None else None,
        r_prime=cfg.r_prime,
        window=window or cfg.window,
    )


def cmd_densities(cfg: RunConfig) -> None:
    """Both densities at the midpoints of ``cfg.grid`` cells over the window:
    renormalized to it (``predict``) or untruncated (``density-table``)."""
    lo, hi = cfg.window
    step = (hi - lo) / cfg.grid
    ys = lo + step * (np.arange(cfg.grid) + 0.5)
    window = (0.0, float("inf")) if cfg.command == "density-table" else cfg.window
    problem = _problem(cfg, window)
    q0 = unrestricted_predictive(problem)
    q1 = restricted_predictive(problem)
    rows = [[float(y), float(a), float(b)] for y, a, b in zip(ys, q0.pdf(ys), q1.pdf(ys))]
    _write(cfg, ["y", "q0", "q1"], rows)


def cmd_summarize(cfg: RunConfig) -> None:
    problem = _problem(cfg)
    rows = []
    for name, density in (
        ("q0", unrestricted_predictive(problem)),
        ("q1", restricted_predictive(problem)),
    ):
        row = predictive_summaries(density)
        rows.append([name, row.mode, row.mean, row.p20, row.p50, row.p90])
    _write(cfg, ["estimator", "mode", "mean", "p20", "p50", "p90"], rows)


def cmd_prediction_error(cfg: RunConfig) -> None:
    lo, hi = cfg.window
    truth_model = GammaModel(cfg.extras["truth_shape"], cfg.extras["truth_scale"])
    truth = truncate(lambda y: gamma_pdf(truth_model, y), lo, hi)
    problem = _problem(cfg)
    full = (lo, float("inf"))
    rows = []
    for name, trunc_d, raw_d in (
        ("q0", unrestricted_predictive(problem), unrestricted_predictive(_problem(cfg, full))),
        ("q1", restricted_predictive(problem), restricted_predictive(_problem(cfg, full))),
    ):
        rows.append(
            [
                name,
                evaluation.prediction_error(truth, trunc_d),
                evaluation.kl_loss(truth, raw_d, truth.window),
            ]
        )
    _write(cfg, ["estimator", "pe_truncated", "pe_raw"], rows)


def cmd_risk_curve(cfg: RunConfig) -> None:
    window = None if not np.isfinite(cfg.window[1]) else cfg.window
    curve = evaluation.risk_curve(
        ratio_grid=cfg.extras["ratios"],
        shapes=ShapeConfig(r1=cfg.r1, r2=cfg.r2, r_prime=cfg.r_prime),
        samples=cfg.samples,
        seed=cfg.seed,
        lambda1=cfg.extras["lambda1"],
        window=window,
    )
    rows = [
        [float(r), q0, s0, q1, s1]
        for r, q0, s0, q1, s1 in zip(
            curve.ratios, curve.risk_q0, curve.std_err_q0, curve.risk_q1, curve.std_err_q1
        )
    ]
    _write(cfg, ["ratio", "risk_q0", "std_err_q0", "risk_q1", "std_err_q1"], rows)


_COMMANDS = {
    "predict": cmd_densities,
    "density-table": cmd_densities,
    "summarize": cmd_summarize,
    "prediction-error": cmd_prediction_error,
    "risk-curve": cmd_risk_curve,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (GoaltimeError, OSError) as exc:
        print(f"goaltime: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _COMMANDS[cfg.command](cfg)
    except GoaltimeError as exc:
        print(f"goaltime: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
