"""Per-layer metrics of the traced run.

The traced run records a span around every call the workload makes into a
goaltime layer.  A workload reaches only some layers, so after its timed
loop the traced run also calls, at the fixture's parameters, every layer
it did not reach, plus the direct ``specfun`` and CLI start-up measurements
that no workload op isolates.  Each per-layer metric is then computed from
all spans of that name: a median duration per call, or a work count or
rate summed over the run.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np
from goaltime.specfun import gauss_2f1

import inputs
import workloads
from stats import median

# (name, unit); the traced run reports every one of them
PER_LAYER = (
    ("distributions.summarize_q0_ms", "ms"),
    ("distributions.summarize_q1_ms", "ms"),
    ("specfun.hyp2f1_call_us", "us"),
    ("specfun.hyp2f1_evals_per_s", "1/s"),
    ("specfun.hyp2f1_fractional_evals_per_s", "1/s"),
    ("specfun.hyp2f1_fail_frac", "fraction"),
    ("predictive.build_q0_ms", "ms"),
    ("predictive.build_q1_ms", "ms"),
    ("predictive.pdf_q1_ms", "ms"),
    ("evaluation.kl_q0_ms", "ms"),
    ("evaluation.kl_q1_ms", "ms"),
    ("evaluation.risk_q0_ms", "ms"),
    ("evaluation.risk_q1_ms", "ms"),
    ("evaluation.mc_draws", "count"),
    ("evaluation.mc_rejected", "count"),
    ("evaluation.mc_accept_ratio", "fraction"),
    ("ingest.parse_ms", "ms"),
    ("ingest.rows_per_s", "1/s"),
    ("cli.python_floor_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
) + tuple((f"cli.{sub}_ms", "ms") for sub in workloads.CLI_SUBCOMMANDS)

# q1's ordering-constant 2F1 at r1 = r2 = r' = 3: a, b, c = r1+r', r1+r'+r2, r1+r'+1
Q1_2F1_PARAMS = (6.0, 9.0, 7.0)
SCALAR_CALLS = 200
SCALAR_BATCHES = 5
# one Monte Carlo block of frequentist_risk: 4000 draws x 200 quadrature nodes
RISK_BLOCK = (4000, 200)
BATCH_REPEATS = 2
FRACTIONAL_CALLS = 16
CLI_START_REPEATS = 3


def _probe_specfun(rec, seed: int) -> None:
    rng = np.random.default_rng(seed)
    a, b, c = Q1_2F1_PARAMS
    x1, x2 = workloads.FIXTURE_POINT.x1, workloads.FIXTURE_POINT.x2
    # quad evaluates its integrand one point at a time, so the summaries
    # call 2F1 with scalar z
    zs = [-(x1 + y) / x2 for y in np.linspace(0.05, 59.95, SCALAR_CALLS)]
    for _ in range(SCALAR_BATCHES):
        with rec.span("specfun.hyp2f1_scalar", calls=len(zs)):
            for z in zs:
                gauss_2f1(a, b, c, z)
    draws, nodes = RISK_BLOCK
    t = 0.5 * (np.polynomial.legendre.leggauss(nodes)[0] + 1.0)
    y = t / (1.0 - t)
    x1s = rng.gamma(3.0, inputs.RISK_LAMBDA1, size=draws)
    x2s = rng.gamma(3.0, inputs.RISK_LAMBDA1 / 4.0, size=draws)
    z = -(x1s[:, None] + y[None, :]) / x2s[:, None]
    for _ in range(BATCH_REPEATS):
        with rec.span("specfun.hyp2f1_batch", points=z.size):
            gauss_2f1(a, b, c, z)
    # the numerator 2F1 of q1's pdf at domain-sweep parameters, edges included
    for p in inputs.domain_points(seed, FRACTIONAL_CALLS):
        z = -(p.x1 + inputs.GRID) / p.x2
        try:
            with rec.span("specfun.hyp2f1_fractional", points=z.size):
                gauss_2f1(p.r1 + p.r_prime, p.r1 + p.r_prime + p.r2, p.r1 + p.r_prime + 1.0, z)
        except ArithmeticError:
            pass  # the span carries the error; counted in hyp2f1_fail_frac


def _scipy_self_ms(importtime_stderr: str) -> float:
    """Sum of the self times of all scipy modules in ``-X importtime`` output."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line.strip())
        if m and m.group(2).split(".")[0] == "scipy":
            total_us += int(m.group(1))
    return total_us / 1e3


def _probe_cli_start(rec, workdir: Path) -> float:
    """Interpreter floor and CLI import spans; returns scipy's import ms."""
    for _ in range(CLI_START_REPEATS):
        with rec.span("cli.python_floor"):
            workloads.run_child([sys.executable, "-c", "pass"], workdir)
        with rec.span("cli.import"):
            workloads.run_child([sys.executable, "-c", "import goaltime.cli"], workdir)
    child = workloads.run_child([sys.executable, "-X", "importtime", "-c", "import goaltime.cli"], workdir)
    return _scipy_self_ms(child.stderr)


def run_probes(rec, seed: int, workdir: Path) -> dict:
    """Probe calls into every layer the workload's ops did not reach.

    Probes run at the fixture's parameters.  Their failures are recorded on
    their spans and otherwise ignored: they are not ops of the workload.
    Returns the values measured outside spans.
    """
    rec.op = None

    def missing(*names):
        done = {s["name"] for s in rec.spans if "error" not in s}
        return not done.issuperset(names)

    def attempt(name, fn, *args):
        try:
            with rec.span(f"probe.{name}"):
                fn(*args)
        except Exception:  # noqa: BLE001 - the span records the error type
            pass

    _probe_specfun(rec, seed)
    if missing("ingest.parse", "distributions.summarize_q0", "distributions.summarize_q1",
               "evaluation.kl_q0", "evaluation.kl_q1", "predictive.build_q0", "predictive.build_q1"):
        fixture = next(m for m in inputs.matchups(seed) if m.fixture)
        attempt("matchup", workloads.matchup_op, fixture, rec, {})
    if missing("predictive.pdf_q1"):
        attempt("domain", workloads.domain_op, workloads.FIXTURE_POINT, rec, {})
    if missing("evaluation.risk_q0", "evaluation.risk_q1"):
        attempt("risk", workloads.risk_op, inputs.risk_points(seed, 1)[0], rec, {})
    ops = None
    for sub in workloads.CLI_SUBCOMMANDS:
        if missing(f"cli.{sub}"):
            ops = ops or workloads.cli_ops(seed, workdir)
            op = next(o for o in ops if o.subcommand == sub and o.fmt == "csv")
            attempt(f"cli_{sub}", workloads.cli_op, op, rec, {}, workdir)
    return {"cli.import_scipy_ms": _probe_cli_start(rec, workdir)}


def per_layer_metrics(spans: list[dict], measured: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the run's spans."""
    # a name the workload's ops reached is measured from those spans only;
    # probe spans (op None) fill in the rest
    own = {s["name"] for s in spans if s["op"] is not None}
    ok: dict[str, list[dict]] = {}
    every: dict[str, list[dict]] = {}
    for s in spans:
        if s["op"] is None and s["name"] in own:
            continue
        every.setdefault(s["name"], []).append(s)
        if "error" not in s:
            ok.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def median_ms(name):
        if name not in ok:
            raise KeyError(f"no successful span {name!r} in the traced run")
        return median([dur(s) for s in ok[name]]) * 1e3

    def total(name, key):
        return sum(s.get(key, 0) for s in ok.get(name, []))

    m = {f"{layer}_ms": median_ms(layer) for layer in (
        "distributions.summarize_q0", "distributions.summarize_q1",
        "predictive.build_q0", "predictive.build_q1", "predictive.pdf_q1",
        "evaluation.kl_q0", "evaluation.kl_q1", "evaluation.risk_q0", "evaluation.risk_q1",
        "ingest.parse", "cli.python_floor",
    )}
    m.update({f"cli.{sub}_ms": median_ms(f"cli.{sub}") for sub in workloads.CLI_SUBCOMMANDS})
    m["cli.import_ms"] = median_ms("cli.import") - m["cli.python_floor_ms"]
    m["cli.import_scipy_ms"] = measured["cli.import_scipy_ms"]
    m["specfun.hyp2f1_call_us"] = median(
        [dur(s) / s["calls"] for s in ok["specfun.hyp2f1_scalar"]]) * 1e6
    batch = ok["specfun.hyp2f1_batch"]
    m["specfun.hyp2f1_evals_per_s"] = total("specfun.hyp2f1_batch", "points") / sum(map(dur, batch))
    frac = every["specfun.hyp2f1_fractional"]
    m["specfun.hyp2f1_fractional_evals_per_s"] = (
        total("specfun.hyp2f1_fractional", "points") / sum(map(dur, frac)))
    m["specfun.hyp2f1_fail_frac"] = sum("error" in s for s in frac) / len(frac)
    draws = total("evaluation.risk_q0", "draws") + total("evaluation.risk_q1", "draws")
    rejected = total("evaluation.risk_q0", "rejected") + total("evaluation.risk_q1", "rejected")
    m["evaluation.mc_draws"] = draws
    m["evaluation.mc_rejected"] = rejected
    m["evaluation.mc_accept_ratio"] = (draws - rejected) / draws
    m["ingest.rows_per_s"] = total("ingest.parse", "rows") / sum(map(dur, ok["ingest.parse"]))
    return {name: m[name] for name, _ in PER_LAYER}
