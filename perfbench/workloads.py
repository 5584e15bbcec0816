"""The four benchmark workloads: one op each, with its output checks.

Each op calls goaltime's public functions through a span recorder (see
``spans``), so the traced run times every call into a layer while the
untraced run makes the same calls directly.  An op fails when it raises,
when a CLI process exits non-zero or writes output that does not parse
(``BadOutput``), or when a check rejects a value it returned
(``WrongValue``); the run loop counts failures instead of stopping.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from goaltime.distributions import GammaModel, gamma_pdf, truncate
from goaltime.evaluation import ShapeConfig, frequentist_risk, prediction_error
from goaltime.ingest import parse_game_log, reduce_to_stat
from goaltime.predictive import (
    PredictionProblem,
    SufficientStat,
    predictive_summaries,
    restricted_predictive,
    unrestricted_predictive,
)

import inputs
from inputs import GRID, WINDOW
from spans import NullRecorder

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120.0
CLI_SUBCOMMANDS = ("predict", "density-table", "summarize", "prediction-error", "risk-curve")
CLI_RISK_SAMPLES = 100
MAX_REJECTED_FRACTION = 1e-3
KL_FLOOR = -1e-9


class WrongValue(Exception):
    """A check rejected a value the program returned."""


class BadOutput(Exception):
    """A CLI process exited non-zero or wrote output that does not parse."""


def _check_summary_row(label: str, mode, mean, p20, p50, p90) -> None:
    lo, hi = WINDOW
    if not (lo < p20 < p50 < p90 < hi):
        raise WrongValue(f"{label}: percentiles {p20}, {p50}, {p90} not ordered inside {WINDOW}")
    if not (lo <= mode <= hi and lo <= mean <= hi):
        raise WrongValue(f"{label}: mode {mode} or mean {mean} outside {WINDOW}")


def _check_density(label: str, values) -> None:
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        raise WrongValue(f"{label}: density not finite and non-negative")


def _check_kl(label: str, value: float) -> None:
    if not (np.isfinite(value) and value >= KL_FLOOR):
        raise WrongValue(f"{label}: KL {value} not finite and non-negative")


def _check_risk(label: str, risk: float, std_err: float, rejected: int, samples: int) -> None:
    if not (np.isfinite(risk) and np.isfinite(std_err) and std_err > 0):
        raise WrongValue(f"{label}: risk {risk} +- {std_err} not finite")
    if rejected > MAX_REJECTED_FRACTION * samples:
        raise WrongValue(f"{label}: {rejected} of {samples} draws rejected")


def check_fixture_row(row) -> None:
    """The fixture's q1 row must match the reference within 0.04 min."""
    got = row.as_tuple()
    off = max(abs(a - b) for a, b in zip(got, inputs.FIXTURE_Q1_ROW))
    if off > inputs.FIXTURE_ROW_TOL:
        raise WrongValue(f"fixture q1 row {got} is {off:.3g} min from the reference")


# --- matchups ---------------------------------------------------------------

def matchup_op(m: inputs.Matchup, rec, acc: dict) -> None:
    """Parse and reduce both logs, build both densities, summarize them,
    and score both against the own team's true truncated gamma."""
    stats = []
    for team, log in ((m.team_a, m.log_a), (m.team_b, m.log_b)):
        with rec.span("ingest.parse") as s:
            records = parse_game_log(log)
            s["rows"] = len(records)
        stats.append(rec.call("ingest.reduce", reduce_to_stat, records, team, r=m.r))
    problem = PredictionProblem(obs_a=stats[0], obs_b=stats[1], r_prime=m.r_prime, window=WINDOW)
    q0 = rec.call("predictive.build_q0", unrestricted_predictive, problem)
    q1 = rec.call("predictive.build_q1", restricted_predictive, problem)
    row0 = rec.call("distributions.summarize_q0", predictive_summaries, q0)
    row1 = rec.call("distributions.summarize_q1", predictive_summaries, q1)
    truth_model = GammaModel(m.r_prime, m.truth_scale)
    truth = rec.call("distributions.truncate_truth", truncate, lambda y: gamma_pdf(truth_model, y), *WINDOW)
    kl0 = rec.call("evaluation.kl_q0", prediction_error, truth, q0)
    kl1 = rec.call("evaluation.kl_q1", prediction_error, truth, q1)
    _check_summary_row("q0", *row0.as_tuple())
    _check_summary_row("q1", *row1.as_tuple())
    _check_kl("q0", kl0)
    _check_kl("q1", kl1)
    if m.fixture:
        check_fixture_row(row1)
        acc["fixture_checked"] = True


def _matchups_warm_up(pool, workdir) -> None:
    matchup_op(next(m for m in pool if m.fixture), NullRecorder(), {})


# --- domain-sweep -----------------------------------------------------------

def domain_op(p: inputs.DomainPoint, rec, acc: dict) -> None:
    """Build q0 and q1 and evaluate both on the CLI's 600-point grid."""
    problem = PredictionProblem(
        obs_a=SufficientStat(x=p.x1, r=p.r1),
        obs_b=SufficientStat(x=p.x2, r=p.r2),
        r_prime=p.r_prime,
        window=WINDOW,
    )
    q0 = rec.call("predictive.build_q0", unrestricted_predictive, problem)
    q1 = rec.call("predictive.build_q1", restricted_predictive, problem)
    _check_density("q0", rec.call("predictive.pdf_q0", q0.pdf, GRID))
    _check_density("q1", rec.call("predictive.pdf_q1", q1.pdf, GRID))


# the bundled fixture's statistics and shapes
FIXTURE_POINT = inputs.DomainPoint("fixture", 3.0, 3.0, 3.0, 35.8482, 39.066315789473684)


def _domain_warm_up(pool, workdir) -> None:
    domain_op(FIXTURE_POINT, NullRecorder(), {})


# --- risk-grid --------------------------------------------------------------

def risk_op(p: inputs.RiskPoint, rec, acc: dict, samples: int = inputs.RISK_SAMPLES) -> None:
    """Monte Carlo risk of q0 and then q1 at one grid point, same draws."""
    shapes = ShapeConfig(r1=p.r1, r2=p.r2, r_prime=p.r_prime)
    lambda2 = inputs.RISK_LAMBDA1 / p.ratio
    for kind in ("q0", "q1"):
        with rec.span(f"evaluation.risk_{kind}") as s:
            est = frequentist_risk(inputs.RISK_LAMBDA1, lambda2, shapes, kind, samples, p.mc_seed, p.window)
            s.update(draws=est.samples, rejected=est.rejected)
        acc["draws"] = acc.get("draws", 0) + est.samples
        _check_risk(kind, est.risk, est.std_err, est.rejected, est.samples)


def _risk_warm_up(pool, workdir) -> None:
    risk_op(pool[0], NullRecorder(), {}, samples=1000)


# --- cli-cold ---------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    subcommand: str
    fmt: str
    log_a: str
    log_b: str

    def argv(self) -> list[str]:
        argv = [sys.executable, "-m", "goaltime.cli", self.subcommand, "--format", self.fmt,
                "--team-a-log", self.log_a, "--team-b-log", self.log_b]
        if self.subcommand == "risk-curve":
            argv += ["--samples", str(CLI_RISK_SAMPLES)]
        return argv


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def child_env() -> dict:
    """The caller's environment with ``src`` on the import path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], workdir: Path, timeout: float = CLI_TIMEOUT_S) -> Child:
    """Run one process to completion and return its exit code, output and
    peak RSS (from ``wait4``, so only this child counts).

    Output goes through files in ``workdir``, so a large table cannot fill
    a pipe while nothing reads it; a timer signal kills a process that
    outlives ``timeout`` without a helper thread.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        maxrss_kb=usage.ru_maxrss,
    )


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and rows of CLI output; JSON must be strict (no NaN/Infinity)."""
    if fmt == "json":
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
            return list(payload["columns"]), [list(r) for r in payload["rows"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise BadOutput(f"not strict JSON: {exc}") from None
    table = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    if not table:
        raise BadOutput("empty CSV")
    columns, body = table[0], table[1:]
    rows = []
    for row in body:
        if len(row) != len(columns):
            raise BadOutput(f"CSV row {row} does not match columns {columns}")
        try:
            rows.append([cell if col == "estimator" else float(cell) for col, cell in zip(columns, row)])
        except ValueError as exc:
            raise BadOutput(f"CSV cell not numeric: {exc}") from None
    return columns, rows


_CLI_COLUMNS = {
    "predict": ["y", "q0", "q1"],
    "density-table": ["y", "q0", "q1"],
    "summarize": ["estimator", "mode", "mean", "p20", "p50", "p90"],
    "prediction-error": ["estimator", "pe_truncated", "pe_raw"],
    "risk-curve": ["ratio", "risk_q0", "std_err_q0", "risk_q1", "std_err_q1"],
}


def check_table(subcommand: str, columns: list[str], rows: list[list]) -> None:
    if columns != _CLI_COLUMNS[subcommand] or not rows:
        raise BadOutput(f"{subcommand}: unexpected columns {columns} or no rows")
    if subcommand in ("predict", "density-table"):
        _check_density(subcommand, [r[1:] for r in rows])
    elif subcommand == "summarize":
        for row in rows:
            _check_summary_row(f"summarize {row[0]}", *row[1:])
    elif subcommand == "prediction-error":
        for row in rows:
            for value in row[1:]:
                _check_kl(f"prediction-error {row[0]}", value)
    else:
        for ratio, r0, s0, r1, s1 in rows:
            _check_risk(f"risk q0 at {ratio}", r0, s0, 0, CLI_RISK_SAMPLES)
            _check_risk(f"risk q1 at {ratio}", r1, s1, 0, CLI_RISK_SAMPLES)


def cli_op(op: CliOp, rec, acc: dict, workdir: Path) -> None:
    """One fresh ``python -m goaltime.cli`` process, output parsed and checked."""
    with rec.span(f"cli.{op.subcommand}"):
        child = run_child(op.argv(), workdir)
    acc["child_maxrss_kb"] = max(acc.get("child_maxrss_kb", 0), child.maxrss_kb)
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        raise BadOutput(f"{op.subcommand} exited {child.code}: {tail[0]}")
    check_table(op.subcommand, *parse_table(child.stdout, op.fmt))


# (subcommand, format) pairs that fail every time today.  A timed op must
# not fail, so they run in csv in the timed mix, and ``cli_known_defects``
# runs each once per run, untimed, with the same checks.
KNOWN_DEFECTS = (("risk-curve", "json"),)


def cli_ops(seed: int, workdir: Path, pairs: int = 4) -> list[CliOp]:
    """Write seeded log pairs to ``workdir``; ops rotate subcommands,
    alternate csv/json (csv for a known defect), and cycle the pairs
    (period 20)."""
    paths = []
    for k, (log_a, log_b) in enumerate(inputs.log_pairs(seed, pairs)):
        a, b = workdir / f"team_a_{k}.csv", workdir / f"team_b_{k}.csv"
        a.write_bytes(log_a)
        b.write_bytes(log_b)
        paths.append((str(a), str(b)))
    ops = []
    for i in range(20):
        subcommand, fmt = CLI_SUBCOMMANDS[i % 5], ("csv", "json")[i % 2]
        if (subcommand, fmt) in KNOWN_DEFECTS:
            fmt = "csv"
        ops.append(CliOp(subcommand, fmt, *paths[i % pairs]))
    return ops


def cli_known_defects(pool, workdir) -> dict[str, str | None]:
    """Each known-defective op once: ``"<subcommand> --format <fmt>"`` to
    its failure, or to None once it passes."""
    found = {}
    for subcommand, fmt in KNOWN_DEFECTS:
        op = CliOp(subcommand, fmt, pool[0].log_a, pool[0].log_b)
        try:
            cli_op(op, NullRecorder(), {}, workdir)
            found[f"{subcommand} --format {fmt}"] = None
        except (BadOutput, WrongValue) as exc:
            found[f"{subcommand} --format {fmt}"] = f"{type(exc).__name__}: {exc}"
    return found


def _cli_warm_up(pool, workdir) -> None:
    cli_op(pool[0], NullRecorder(), {}, workdir)


# --- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # (seed, workdir) -> list of op inputs
    warm_up: Callable  # (pool, workdir) -> None
    op: Callable  # (item, recorder, acc, workdir) -> None; raises on failure
    reference: str  # the function of ``reference`` that gauges machine speed for it
    in_process: bool = True
    known_defects: Callable | None = None  # (pool, workdir) -> {op: failure or None}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("matchups", lambda seed, wd: inputs.matchups(seed), _matchups_warm_up,
                 lambda item, rec, acc, wd: matchup_op(item, rec, acc), "callbacks"),
        Workload("domain-sweep", lambda seed, wd: inputs.domain_points(seed), _domain_warm_up,
                 lambda item, rec, acc, wd: domain_op(item, rec, acc), "callbacks"),
        Workload("risk-grid", lambda seed, wd: inputs.risk_points(seed), _risk_warm_up,
                 lambda item, rec, acc, wd: risk_op(item, rec, acc), "arrays"),
        Workload("cli-cold", cli_ops, _cli_warm_up, cli_op, "interpreter", in_process=False,
                 known_defects=cli_known_defects),
    )
}
