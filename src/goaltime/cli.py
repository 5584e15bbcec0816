"""Command-line front end.

Emits plot-ready density tables, summary rows, risk curves, and prediction
errors as CSV or JSON.  Every output starts with a metadata block carrying
the package version, the fully resolved configuration, and the seed, so a
run can be reproduced byte for byte.

The configuration is one flat dict (``resolve_config``), keyed as the
metadata block prints it: the model and output options, the statistics
``x1`` and ``x2`` with the game log and team each came from
(``team_a_log`` is null for an explicit ``--x1``), ``truth_shape`` and
``truth_scale`` for ``prediction-error``, and ``ratios`` and ``lambda1``
for ``risk-curve``, which reads no statistics.  The commands read only
that dict.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure.

A command loads only what it runs: ``evaluation`` (the risk engine) is
imported by ``prediction-error`` and ``risk-curve`` alone, and ``ingest``
only when a game log is read, so the other commands' cold start skips both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .distributions import GammaModel, gamma_pdf, truncate
from .errors import GoaltimeError
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _cell(value):
    """A JSON table cell: a float rounded to 10 significant digits, as in
    CSV, or None (JSON null) if it is not finite; anything else as is."""
    if isinstance(value, float):
        return float(f"{value:.10g}") if math.isfinite(value) else None
    return value


def _strict(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json(value, **kwargs) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False, **kwargs)


def _shared_options() -> tuple[argparse.ArgumentParser, ...]:
    """The options every subcommand takes, as parent parsers: the model and
    data options, the Monte Carlo ones (``risk-curve`` only), and the
    output ones, in the order ``--help`` lists them."""
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--r1", type=float, default=3.0, help="shape of the own-team statistic")
    model.add_argument("--r2", type=float, default=3.0, help="shape of the rival statistic")
    model.add_argument("--r-prime", type=float, default=3.0, help="shape of the future draw")
    model.add_argument("--x1", type=float, help="own-team statistic in minutes")
    model.add_argument("--x2", type=float, help="rival statistic in minutes (pre-scaled)")
    model.add_argument("--team-a-log", metavar="PATH", help="own-team game log CSV")
    model.add_argument("--team-b-log", metavar="PATH", help="rival game log CSV")
    model.add_argument("--team-a", help="team name in --team-a-log (default: first row's team)")
    model.add_argument("--team-b", help="team name in --team-b-log (default: first row's team)")
    model.add_argument("--points-a", type=int, help="own team's season points")
    model.add_argument("--points-b", type=int, help="rival's season points")
    model.add_argument(
        "--x2-mode",
        choices=["raw", "points-ratio", "points-ratio-squared"],
        default="raw",
        help="rescaling of the rival mean by season points",
    )
    model.add_argument("--window", default=None, help="truncation window LO,HI (HI may be inf)")
    model.add_argument("--grid", type=int, default=600, help="number of density grid points")
    # the defaults are evaluation's, filled in by resolve_config
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--samples", type=int)
    mc.add_argument("--seed", type=int, default=0)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"], default="csv")
    output.add_argument("--out", metavar="PATH", help="output path (default: standard output)")
    return model, mc, output


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goaltime",
        description="Predictive densities for the waiting time until the r-th goal.",
    )
    parser.add_argument("--version", action="version", version=f"goaltime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    model, mc, output = _shared_options()
    common = [model, output]

    sub.add_parser("predict", parents=common, help="densities of both estimators on a grid")
    sub.add_parser("density-table", parents=common, help="untruncated density values on a grid")
    sub.add_parser("summarize", parents=common, help="mode, mean and percentiles of both estimators")

    p = sub.add_parser("prediction-error", parents=common, help="KL distance of each estimator from a reference law")
    p.add_argument("--truth-shape", type=float, default=3.0, help="shape of the reference gamma")
    p.add_argument("--truth-scale", type=float, default=18.3, help="scale of the reference gamma")

    p = sub.add_parser("risk-curve", parents=[model, mc, output], help="Monte Carlo risk along a scale-ratio grid")
    p.add_argument("--ratios", help="comma-separated scale ratios")
    p.add_argument("--lambda1", type=float, help="own-team scale held fixed along the curve")
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


def _stat_from_args(args, side: str, r: float, x2_mode: str) -> dict:
    """Resolve one team's statistic: explicit value, a log file, or the
    fixture.  The config entries it sets: ``x1`` or ``x2``, the log's name
    (None for an explicit value) and the team's."""
    key = f"x{1 if side == 'a' else 2}"
    explicit = getattr(args, key)
    log_path = getattr(args, f"team_{side}_log")
    if explicit is not None and log_path is not None:
        raise GoaltimeError(f"give exactly one of --{key} and --team-{side}-log")
    if explicit is not None:
        return {key: float(explicit), f"team_{side}_log": None}
    from . import ingest

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
    return {key: stat.x, f"team_{side}_log": str(source), f"team_{side}": team}


def _check_out(path: str) -> None:
    """GoaltimeError unless ``path`` can be written: an existing file that is
    writable, or a new name in an existing writable directory.  Checked
    before the command runs, without opening the file, so that nothing is
    created or truncated by a run that then fails."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or os.curdir
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise GoaltimeError(f"--out {path!r} cannot be written")


def resolve_config(args) -> dict:
    """The run's configuration, checked: one flat dict, keyed as the
    metadata block prints it, which is also all that a command reads."""
    cfg = {
        "command": args.command,
        "r1": args.r1,
        "r2": args.r2,
        "r_prime": args.r_prime,
        "x1": float("nan"),
        "x2": None,
        "x2_mode": args.x2_mode.replace("-", "_"),
        "grid": args.grid,
        "samples": 0,
        "seed": getattr(args, "seed", 0),
        "format": args.format,
        "out": args.out,
    }
    risk = args.command == "risk-curve"
    cfg["window"] = _parse_window(args.window, (0.0, float("inf")) if risk else DEFAULT_WINDOW)
    lo, hi = cfg["window"]
    if not risk:
        cfg.update(_stat_from_args(args, "a", args.r1, cfg["x2_mode"]))
        cfg.update(_stat_from_args(args, "b", args.r2, cfg["x2_mode"]))
    if args.grid < 2:
        raise GoaltimeError("--grid must be at least 2")
    if args.out:
        _check_out(args.out)
    if args.command in ("predict", "density-table") and not math.isfinite(hi):
        raise GoaltimeError(f"{args.command} needs a finite window")
    if risk and not math.isfinite(hi) and lo > 0:
        raise GoaltimeError(f"risk-curve needs LO = 0 on an infinite window; got {args.window!r}")
    # the risk curve's grid and draws, and out-of-domain shapes and scales,
    # fail here, in the checks and constructors that the command itself
    # would call, so they exit as configuration errors
    if risk:
        from . import evaluation

        ratios = evaluation.DEFAULT_RATIO_GRID if args.ratios is None else args.ratios.split(",")
        cfg["ratios"] = list(evaluation._ratio_grid(ratios))
        cfg["samples"] = evaluation.DEFAULT_SAMPLES if args.samples is None else args.samples
        evaluation._check_draws(cfg["samples"], args.seed)
        cfg["lambda1"] = evaluation.DEFAULT_LAMBDA1 if args.lambda1 is None else args.lambda1
        evaluation.ShapeConfig(r1=args.r1, r2=args.r2, r_prime=args.r_prime)
        GammaModel(args.r_prime, cfg["lambda1"])
    else:
        _problem(cfg)
    if args.command == "prediction-error":
        cfg.update(truth_shape=args.truth_shape, truth_scale=args.truth_scale)
        GammaModel(args.truth_shape, args.truth_scale)
    return cfg


def _render(cfg: dict, columns: list[str], rows: list[list]) -> str:
    """The command's output: the metadata block, then the table."""
    meta = _strict({"version": __version__, "config": cfg, "seed": cfg["seed"]})
    if cfg["format"] == "csv":
        lines = [
            f"# goaltime {__version__}",
            f"# config: {_json(meta['config'])}",
            f"# seed: {cfg['seed']}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"
    payload = {
        "meta": meta,
        "columns": columns,
        "rows": [[_cell(v) for v in row] for row in rows],
    }
    return _json(payload, indent=1) + "\n"


def _problem(cfg: dict, window=None) -> PredictionProblem:
    return PredictionProblem(
        obs_a=SufficientStat(x=cfg["x1"], r=cfg["r1"]),
        obs_b=SufficientStat(x=cfg["x2"], r=cfg["r2"]) if cfg["x2"] is not None else None,
        r_prime=cfg["r_prime"],
        window=window or cfg["window"],
    )


def cmd_densities(cfg: dict) -> str:
    """Both densities at the midpoints of ``grid`` cells over the window:
    renormalized to it (``predict``) or untruncated (``density-table``)."""
    lo, hi = cfg["window"]
    step = (hi - lo) / cfg["grid"]
    ys = lo + step * (np.arange(cfg["grid"]) + 0.5)
    window = (0.0, float("inf")) if cfg["command"] == "density-table" else cfg["window"]
    problem = _problem(cfg, window)
    q0 = unrestricted_predictive(problem)
    q1 = restricted_predictive(problem)
    rows = [[float(y), float(a), float(b)] for y, a, b in zip(ys, q0.pdf(ys), q1.pdf(ys))]
    return _render(cfg, ["y", "q0", "q1"], rows)


def cmd_summarize(cfg: dict) -> str:
    problem = _problem(cfg)
    rows = []
    for name, density in (
        ("q0", unrestricted_predictive(problem)),
        ("q1", restricted_predictive(problem)),
    ):
        row = predictive_summaries(density)
        rows.append([name, row.mode, row.mean, row.p20, row.p50, row.p90])
    return _render(cfg, ["estimator", "mode", "mean", "p20", "p50", "p90"], rows)


def cmd_prediction_error(cfg: dict) -> str:
    from . import evaluation

    lo, hi = cfg["window"]
    truth_model = GammaModel(cfg["truth_shape"], cfg["truth_scale"])
    truth = truncate(lambda y: gamma_pdf(truth_model, y), lo, hi)
    problem = _problem(cfg)
    full = (lo, float("inf"))
    rows = []
    for name, trunc_d, raw_d in (
        ("q0", unrestricted_predictive(problem), unrestricted_predictive(_problem(cfg, full))),
        ("q1", restricted_predictive(problem), restricted_predictive(_problem(cfg, full))),
    ):
        rows.append([name, evaluation.prediction_error(truth, trunc_d), evaluation.prediction_error(truth, raw_d)])
    return _render(cfg, ["estimator", "pe_truncated", "pe_raw"], rows)


def cmd_risk_curve(cfg: dict) -> str:
    from . import evaluation

    window = cfg["window"] if math.isfinite(cfg["window"][1]) else None
    curve = evaluation.risk_curve(
        ratio_grid=cfg["ratios"],
        shapes=evaluation.ShapeConfig(r1=cfg["r1"], r2=cfg["r2"], r_prime=cfg["r_prime"]),
        samples=cfg["samples"],
        seed=cfg["seed"],
        lambda1=cfg["lambda1"],
        window=window,
    )
    rows = [
        [float(r), q0, s0, q1, s1]
        for r, q0, s0, q1, s1 in zip(
            curve.ratios, curve.risk_q0, curve.std_err_q0, curve.risk_q1, curve.std_err_q1
        )
    ]
    return _render(cfg, ["ratio", "risk_q0", "std_err_q0", "risk_q1", "std_err_q1"], rows)


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
        text = _COMMANDS[cfg["command"]](cfg)
    except GoaltimeError as exc:
        print(f"goaltime: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not cfg["out"]:
        sys.stdout.write(text)
        return EXIT_OK
    # resolve_config checked the path; it may still fail to open
    try:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"goaltime: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
