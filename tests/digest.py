"""One SHA-256 over a fixed, seeded sweep of the public API.

This is how a change that claims "bit-identical to the parent" is checked:
run the script in both checkouts and compare the printed hashes,

    PYTHONPATH=src python tests/digest.py

A change that moves some output at rounding level says how far: dump the
raw values in one checkout and compare them in the other,

    PYTHONPATH=src python tests/digest.py --dump parent.npz
    PYTHONPATH=src python tests/digest.py --against parent.npz

``--against`` prints, after the hash lines, each section's largest
relative and ulp difference and how many values differ, and exits 1 if
any section's values or structure differ (0 if every one is identical),
so that a claim of bit-identity is a pass/fail check.  A claim about
how many density calls the summaries make is checked the same way,

    PYTHONPATH=src python tests/digest.py --calls

prints, instead of the hashes, the mean density calls per mode, per
quantile set and per summary (the two together) over the summaries of
the ``densities`` section, per summary on its finite windows and on
(0, inf), and the share of quantile sets that end after one call.

It reads only public names (``goaltime``, the ``log_*_base`` functions
of ``goaltime.predictive``, ``goaltime.specfun.log_betainc``,
``goaltime.ingest.serialize_game_log`` and the command line's
``goaltime.cli.main``), so it runs unchanged in an older checkout.
The sweep covers integer and non-integer shapes and the windows (0, 60),
(5, 45) and (0, inf):

* ``densities``: summaries, ``pdf`` and ``cdf`` of q0 and q1;
* ``bases``: ``log_unrestricted_base`` and ``log_restricted_base``,
  including ``y <= 0`` and broadcast statistics;
* ``prediction_error``: both estimates against a truncated gamma truth;
* ``risk_untruncated`` and ``risk_window``: Monte Carlo risks, standard
  errors and rejected-draw counts, at scales far from and near 1, over
  the first five shapes and one at ``r' = 0.2``;
* ``specfun``: ``log_betainc`` at integer and non-integer ``b``, on
  lone points, on arrays of 2 and of 1216 points, on a 256 x 116 block
  and on an array longer than the continued fraction's chunk of 32768
  points, each with points on both sides of the swap point
  ``(a+1)/(a+b+2)``, the two doubles beside it among them;
* ``ingest``: ``parse_game_log`` and ``parse_points``, each from bytes,
  from a path, from a binary file object and from a text file object
  (``io.StringIO``, or a text wrapper whose own decoder fails for bytes
  that are not UTF-8), over the bundled fixtures, seeded synthetic logs
  written by ``serialize_game_log``, and malformed inputs, among them a
  byte that is not UTF-8, a field over ``csv.field_size_limit()`` and
  whitespace-only rows of the header's width: each parse's records and
  every team's ``reduce_to_stat`` in each ``x2_mode``, or its error's
  class, line and message.  Checkouts whose parsers read through one row
  reader (``ingest._rows``) read every input of the corpus alike, so the
  section's hash is comparable across them; it holds no bare
  carriage-return line ends, which older checkouts read from a path
  alone;
* ``cli``: stdout, stderr, exit code and the warnings raised of each of
  a fixed list of ``goaltime.cli.main`` runs, in a scratch directory so
  that every path the output names is relative: all five subcommands in
  CSV and JSON, explicit statistics, a game log path, both points-ratio
  modes, ``--out``, each configuration error, usage errors, two
  numerical failures, ``--version`` and every ``--help`` at
  ``COLUMNS=80``.  Warnings are hashed by class and message alone, not
  by the source line that raised them.

Each section's hash is printed on its own line, so a change that is meant
to move one part of the output shows which part moved; the last line is
the hash of the whole sweep.  A call that raises hashes as its
exception's class name.  The pytest run does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from goaltime import (
    GameRecord,
    GammaModel,
    PredictionProblem,
    ShapeConfig,
    SufficientStat,
    canadiens_fixture_path,
    frequentist_risk,
    gamma_pdf,
    parse_game_log,
    parse_points,
    points_fixture_path,
    prediction_error,
    predictive_summaries,
    reduce_to_stat,
    restricted_predictive,
    summarize,
    toronto_fixture_path,
    truncate,
    unrestricted_predictive,
)
from goaltime.cli import main as cli_main
from goaltime.ingest import serialize_game_log
from goaltime.predictive import log_restricted_base, log_unrestricted_base
from goaltime.specfun import log_betainc

# (r1, r2, r'): integer and non-integer rival shapes, r' below and above 1
SHAPES = [
    (3.0, 3.0, 3.0),
    (3.0, 2.5, 3.0),
    (4.5, 2.5, 0.7),
    (2.0, 5.0, 1.5),
    (1.7, 4.0, 2.2),
    (150.0, 150.0, 200.0),
]
WINDOWS = [(0.0, 60.0), (5.0, 45.0), (0.0, np.inf)]
# the risk sections add r' = 0.2, where nearly all of the truth's mass is in
# the risk rule's head panel
RISK_SHAPES = SHAPES[:5] + [(3.0, 3.0, 0.2)]
STATS_PER_SHAPE = 4
LAMBDA1, LAMBDA2 = 12.0, 6.0


class Sink:
    """One section's hash and, in the order fed, its raw float values and
    the reprs of everything else."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.floats = []
        self.other = []


def _feed(h, value) -> None:
    """Hash ``value`` bit for bit: float arrays by their bytes, anything
    else by its repr."""
    if isinstance(value, (float, np.floating, np.ndarray)):
        value = np.ascontiguousarray(value, dtype=float)
        h.hash.update(value.tobytes())
        h.floats.append(value.ravel())
    else:
        text = repr(value)
        h.hash.update(text.encode())
        h.other.append(text)


def _call(h, fn, *args) -> None:
    """Hash ``fn(*args)``, or the class of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the failure itself is hashed
        value = type(exc).__name__
    if isinstance(value, tuple):
        for part in value:
            _feed(h, part)
    else:
        _feed(h, value)


def _statistics():
    """Seeded statistics ``(shape, x1, x2)``, ``STATS_PER_SHAPE`` per shape."""
    rng = np.random.default_rng(2026)
    for r1, r2, rp in SHAPES:
        x1s = rng.gamma(r1, LAMBDA1, STATS_PER_SHAPE)
        x2s = rng.gamma(r2, LAMBDA2, STATS_PER_SHAPE)
        for x1, x2 in zip(x1s, x2s):
            yield (r1, r2, rp), float(x1), float(x2)


def _densities():
    """q0 and q1 at each statistic and window: ``(density, ys)``, or the
    class name of what the build raises and ``ys``."""
    for (r1, r2, rp), x1, x2 in _statistics():
        for lo, hi in WINDOWS:
            p = PredictionProblem(
                obs_a=SufficientStat(x1, r1), obs_b=SufficientStat(x2, r2), r_prime=rp, window=(lo, hi)
            )
            top = hi if np.isfinite(hi) else lo + 4.0 * rp * x1 / r1 + 60.0
            ys = np.concatenate(([lo - 1.0, lo], np.linspace(lo, top, 41)[1:-1], [top, top + 1.0]))
            for build in (unrestricted_predictive, restricted_predictive):
                try:
                    yield build(p), ys
                except Exception as exc:  # noqa: BLE001
                    yield type(exc).__name__, ys


def densities(h) -> None:
    for d, ys in _densities():
        if isinstance(d, str):
            _feed(h, d)
            continue
        _call(h, lambda: predictive_summaries(d).as_tuple())
        _call(h, d.pdf, ys)
        _call(h, d.cdf, ys)
        _call(h, d.cdf, float(ys[7]))


def bases(h) -> None:
    for (r1, r2, rp), x1, x2 in _statistics():
        scale = rp * x1 / r1
        ys = np.concatenate(([-1.0, -0.0, 0.0, 1e-300], scale * np.linspace(0.01, 4.0, 50)))
        _call(h, log_unrestricted_base, ys, x1, r1, rp)
        _call(h, log_restricted_base, ys, x1, x2, r1, r2, rp)
        _call(h, log_restricted_base, float(ys[9]), x1, x2, r1, r2, rp)
        x1s = x1 * np.array([0.5, 1.0, 2.0])[:, None]
        x2s = x2 * np.array([2.0, 1.0, 0.5])[:, None]
        _call(h, log_unrestricted_base, ys, x1s, r1, rp)
        _call(h, log_restricted_base, ys, x1s, x2s, r1, r2, rp)


def prediction_errors(h) -> None:
    for (r1, r2, rp), x1, x2 in _statistics():
        for lo, hi in WINDOWS:
            truth_model = GammaModel(rp, LAMBDA1)
            truth = truncate(lambda y, m=truth_model: gamma_pdf(m, y), lo, hi)
            p = PredictionProblem(
                obs_a=SufficientStat(x1, r1), obs_b=SufficientStat(x2, r2), r_prime=rp, window=(lo, hi)
            )
            for build in (unrestricted_predictive, restricted_predictive):
                _call(h, lambda: prediction_error(truth, build(p)))


def _risk(*args):
    e = frequentist_risk(*args)
    return e.risk, e.std_err, e.samples, e.rejected


def _risks(h, windows, lambdas) -> None:
    for seed, (r1, r2, rp) in enumerate(RISK_SHAPES):
        shapes = ShapeConfig(r1, r2, rp)
        for window in windows:
            for lam1, lam2 in lambdas:
                for kind in ("q0", "q1"):
                    _call(h, _risk, lam1, lam2, shapes, kind, 600, seed, window)


def risk_untruncated(h) -> None:
    _risks(h, [None], [(LAMBDA1, LAMBDA2), (1.0, 0.25), (1e-3, 1e-3), (1e3, 5e2), (1e6, 1e5)])


def risk_window(h) -> None:
    _risks(h, [(0.0, 60.0), (5.0, 45.0)], [(LAMBDA1, LAMBDA2), (30.0, 30.0)])


# (a, b) of the specfun section: small, mixed and large shapes, integer and
# non-integer b
BETAINC_SHAPES = [(6.0, 2.5), (6.0, 3.0), (0.7, 0.3), (3.0, 40.5), (150.0, 150.0), (337.13, 9.19), (2.0, 225.0)]


def _betainc_points(rng, a, b, size):
    """``size`` points in [0, 1]: the two doubles beside the swap point,
    then seeded uniform ones."""
    swap = (a + 1.0) / (a + b + 2.0)
    x = np.concatenate(([np.nextafter(swap, 0.0), np.nextafter(swap, 1.0)], rng.random(size)))
    return x[:size]


def betainc(h) -> None:
    rng = np.random.default_rng(2028)
    for a, b in BETAINC_SHAPES:
        swap = (a + 1.0) / (a + b + 2.0)
        for x in (np.nextafter(swap, 0.0), np.nextafter(swap, 1.0), 0.0, 1.0, *rng.random(6)):
            _call(h, log_betainc, a, b, float(x))
        for size in (2, 1216, 40_000):
            _call(h, log_betainc, a, b, _betainc_points(rng, a, b, size))
        _call(h, log_betainc, a, b, _betainc_points(rng, a, b, 256 * 116).reshape(256, 116))


_LOG = "team,opponent,elapsed_minutes"
_HUGE = '"' + "x" * (csv.field_size_limit() + 1) + '"'
# (parser, text or bytes): each is read as given and, for game logs, with
# \r\n line ends
MALFORMED = [
    (parse_game_log, ""),
    (parse_game_log, "\n"),
    (parse_game_log, _LOG),
    (parse_game_log, "team,opponent\nA,B\n"),
    (parse_game_log, " team , opponent , elapsed_minutes \nA,B,12.5\n"),
    (parse_game_log, "\ufeff" + _LOG + "\nA,B,12.5\n"),
    (parse_game_log, _LOG + ",goal\nA,B,12.5,3\n"),
    (parse_game_log, _LOG + ",goal_index,extra\nA,B,12.5,3,x\n"),
    (parse_game_log, _LOG + ",goal_index\nA,B,12.5,three\n"),
    (parse_game_log, _LOG + ",goal_index\nA,B,12.5,0\n"),
    (parse_game_log, _LOG + ",goal_index\nA,B,12.5\n"),
    (parse_game_log, _LOG + "\nA,B,12.5\nA,B,oops\n"),
    (parse_game_log, _LOG + "\nA,B,nan\n"),
    (parse_game_log, _LOG + "\nA,B,60.0\nA,B,60.000001\n"),
    (parse_game_log, _LOG + "\nA,B,1e-300\nA,B,-0.0\n"),
    (parse_game_log, _LOG + "\nA,A,10.0\n"),
    (parse_game_log, _LOG + "\n ,B,10.0\n"),
    (parse_game_log, _LOG + "\nA,B\n"),
    (parse_game_log, _LOG + "\n\n , , \n\t\nA,B,10.0\n , , , x\n"),
    (parse_game_log, _LOG + '\n"A, the first","B ""b""",10.0\n"A\rA","B\nB",20.0\nA,C,30\n'),
    (parse_game_log, _LOG + '\n"A,B,10.0\n'),
    (parse_game_log, _LOG + "\n  A  ,  B  ,  17.25  \n"),
    (parse_game_log, _LOG + "\nA,B,10.0\n , ,\t\n\t,\u3000, \nA,C,oops\n"),
    (parse_game_log, _LOG.encode() + b"\nA,B,10.0\nMontr\xe9al,B,12.0\n"),
    (parse_game_log, _LOG + "\nA,B,10.0\n" + _HUGE + ",B,12.0\n"),
    (parse_points, ""),
    (parse_points, "team,points"),
    (parse_points, "team,pts\nA,10\n"),
    (parse_points, " team , points \nA, 10 \n"),
    (parse_points, "team,points\nA,many\n"),
    (parse_points, "team,points\nA,10.0\n"),
    (parse_points, "team,points\nA,0\n"),
    (parse_points, "team,points\n,10\n"),
    (parse_points, "team,points\nA\n"),
    (parse_points, "team,points\n\n , \nA,105\nB,71\n , , x\n"),
    (parse_points, "team,points\n \t, \nA,105\n\u3000,\nB,many\n"),
    (parse_points, b"team,points\nA,105\n\xff,71\n"),
    (parse_points, "team,points\nA," + _HUGE + "\n"),
]


def _synthetic_logs():
    """Seeded game logs, written by ``serialize_game_log``."""
    rng = np.random.default_rng(2027)
    teams = ["Toronto", "Montreal", "Boston", "Ottawa, ON", 'The "Habs"']
    for rows in (1, 7, 40):
        records = []
        for _ in range(rows):
            team, opponent = rng.choice(len(teams), 2, replace=False)
            elapsed = float(rng.uniform(0.0, 60.0))
            records.append(GameRecord(teams[team], teams[opponent], elapsed, int(rng.integers(1, 6))))
        buf = io.StringIO()
        serialize_game_log(records, buf)
        yield buf.getvalue().encode()


def _parse(h, parse, data: bytes, path: Path) -> None:
    """Hash ``parse`` of ``data`` from bytes, a path, a binary file object
    and a text file object: its records and their reductions, or its
    error."""
    path.write_bytes(data)
    try:
        text = io.StringIO(data.decode("utf-8"))
    except UnicodeDecodeError:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    for source in (data, path, io.BytesIO(data), text):
        try:
            records = parse(source)
        except Exception as exc:  # noqa: BLE001 - the failure itself is hashed
            _feed(h, (type(exc).__name__, getattr(exc, "line", None), str(exc)))
            continue
        _feed(h, records)
        if parse is parse_game_log:
            for team in sorted({rec.team for rec in records}):
                for mode in ("raw", "points_ratio", "points_ratio_squared"):
                    stat = reduce_to_stat(records, team, r=2.5, x2_mode=mode, points=(105, 71))
                    _feed(h, stat.x)
                    _feed(h, stat.r)


def ingest(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        for fixture in (toronto_fixture_path(), canadiens_fixture_path()):
            _parse(h, parse_game_log, fixture.read_bytes(), path)
        _parse(h, parse_points, points_fixture_path().read_bytes(), path)
        for data in _synthetic_logs():
            _parse(h, parse_game_log, data, path)
        for parse, text in MALFORMED:
            data = text if isinstance(text, bytes) else text.encode()
            _parse(h, parse, data, path)
            if parse is parse_game_log:
                _parse(h, parse, data.replace(b"\n", b"\r\n"), path)


_SMALL_CURVE = ["--samples", "200", "--ratios", "1,2"]
_POINTS = ["--points-a", "105", "--points-b", "71"]
# argv of each run; the logs and the output name are files in the run's
# scratch directory (``cli``)
CLI_RUNS = [
    [command, *args, "--format", fmt]
    for command, args in (
        ("predict", ["--grid", "12"]),
        ("density-table", ["--grid", "12"]),
        ("summarize", []),
        ("prediction-error", []),
        ("risk-curve", _SMALL_CURVE),
    )
    for fmt in ("csv", "json")
] + [
    ["predict", "--x1", "35.85", "--x2", "39.07", "--grid", "7", "--window", "5,45"],
    ["summarize", "--x1", "20", "--x2", "80", "--r1", "2.5", "--r2", "4.5", "--r-prime", "0.7"],
    ["summarize", "--x1", "30", "--team-b-log", "habs.csv", "--window", "0,inf"],
    ["prediction-error", "--team-a-log", "leafs.csv", "--team-a", "Toronto Maple Leafs", "--x2", "40", "--format", "json"],
    ["prediction-error", "--truth-shape", "2.5", "--truth-scale", "15", "--window", "0,inf"],
    ["summarize", "--x2-mode", "points-ratio", *_POINTS],
    ["summarize", "--x2-mode", "points-ratio-squared", *_POINTS, "--format", "json"],
    ["risk-curve", "--window", "0,60", "--lambda1", "7", "--seed", "3", "--r2", "2.5", *_SMALL_CURVE],
    ["risk-curve", "--window", "0,inf", "--samples", "200", "--format", "json"],
    ["summarize", "--out", "out.csv"],
    # configuration errors, in the order the configuration is checked
    ["predict", "--window", "60"],
    ["predict", "--window", "a,b"],
    ["predict", "--window", "60,0"],
    ["predict", "--x1", "30", "--team-a-log", "leafs.csv"],
    ["predict", "--x2", "30", "--team-b-log", "habs.csv"],
    ["predict", "--team-a-log", "no-such-log.csv"],
    ["predict", "--team-a-log", "header-only.csv"],
    ["predict", "--team-a-log", "not-utf8.csv"],
    ["predict", "--team-a-log", "leafs.csv", "--team-a", "Nowhere"],
    ["predict", "--x2-mode", "points-ratio"],
    ["predict", "--x2-mode", "points-ratio-squared", "--points-a", "105"],
    ["predict", "--grid", "1"],
    ["summarize", "--out", "no-such-dir/out.csv"],
    ["summarize", "--out", "."],
    ["predict", "--window", "0,inf"],
    ["density-table", "--window", "5,inf"],
    ["risk-curve", "--window", "5,inf"],
    ["risk-curve", "--ratios", "8,1"],
    ["risk-curve", "--ratios", "1,inf", "--samples", "200"],
    ["risk-curve", "--ratios", "1,x"],
    ["risk-curve", "--samples", "5"],
    ["risk-curve", "--seed", "-1", *_SMALL_CURVE],
    ["risk-curve", "--r1", "0.5", *_SMALL_CURVE],
    ["risk-curve", "--r-prime", "0", *_SMALL_CURVE],
    ["risk-curve", "--lambda1", "-1", *_SMALL_CURVE],
    ["risk-curve", "--lambda1", "nan", *_SMALL_CURVE],
    ["summarize", "--r-prime", "-1"],
    ["summarize", "--r1", "nan"],
    ["summarize", "--x1", "-1"],
    ["summarize", "--x2", "0"],
    ["summarize", "--x1", "30", "--x2", "inf"],
    ["prediction-error", "--truth-scale", "0"],
    ["prediction-error", "--truth-shape", "inf"],
    # usage errors, the parser's own
    ["no-such-command"],
    ["summarize", "--format", "xml"],
    ["predict", "--grid", "many"],
    # numerical failures
    ["predict", "--x1", "1e-300", "--x2", "1e-300", "--window", "59.99999,60"],
    ["risk-curve", "--r-prime", "1000", "--window", "0,60", "--samples", "200", "--ratios", "1"],
    ["--version"],
    *(
        [*command, "--help"]
        for command in ([], ["predict"], ["density-table"], ["summarize"], ["prediction-error"], ["risk-curve"])
    ),
]


def _cli_run(h, argv) -> None:
    """Hash one ``cli.main`` run: stdout, stderr, exit code and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    _feed(h, (argv, out.getvalue(), err.getvalue(), code))
    _feed(h, [(w.category.__name__, str(w.message)) for w in caught])


def cli(h) -> None:
    cwd = os.getcwd()
    columns = os.environ.get("COLUMNS")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            os.environ["COLUMNS"] = "80"
            Path("leafs.csv").write_bytes(toronto_fixture_path().read_bytes())
            Path("habs.csv").write_bytes(canadiens_fixture_path().read_bytes().replace(b"\n", b"\r\n"))
            Path("header-only.csv").write_text(_LOG + "\n")
            Path("not-utf8.csv").write_bytes(_LOG.encode() + b"\nA,B,10.0\nMontr\xe9al,B,12.0\n")
            # numpy's own error handling, as in a fresh process
            with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
                for argv in CLI_RUNS:
                    _cli_run(h, argv)
            _feed(h, Path("out.csv").read_text())
    finally:
        os.chdir(cwd)
        if columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = columns


SECTIONS = {
    "densities": densities,
    "bases": bases,
    "prediction_error": prediction_errors,
    "risk_untruncated": risk_untruncated,
    "risk_window": risk_window,
    "specfun": betainc,
    "ingest": ingest,
    "cli": cli,
}


# the mode's five-point stencil, ``distributions._STENCIL``, written out so
# that the script reads no private name
STENCIL_POINTS = 5


def density_calls() -> str:
    """Mean density calls per mode, per quantile set and per summary of the
    densities sweep's summaries, per summary on the finite windows and on
    (0, inf), and the share of quantile sets that end after one call.
    Each density is built again by ``truncate`` around a base that records
    the shape of each call; ``summarize``'s calls are then told apart by
    that shape: the mode's own calls are flat, of ``STENCIL_POINTS``
    points, and every other call is a quantile step, which samples its
    levels as rows, or flat, with the mode's first stencil after them."""
    counts, finite = [], []
    for d, _ in _densities():
        if isinstance(d, str):
            continue
        shapes = []

        def base(y, real=d.base):
            shapes.append(np.shape(y))
            return real(y)

        counted = truncate(base, d.lo, d.hi)
        shapes.clear()
        summarize(counted)
        mode = shapes.count((STENCIL_POINTS,))
        counts.append((mode, len(shapes) - mode))
        finite.append(np.isfinite(d.hi))
    counts, finite = np.array(counts), np.array(finite)
    mode, quantiles = counts.mean(axis=0)
    per_summary = counts.sum(axis=1)
    one = np.mean(counts[:, 1] == 1)
    return (
        f"density calls over {len(counts)} summaries: {mode:.2f} per mode, "
        f"{quantiles:.2f} per quantile set (levels 0.2, 0.5, 0.9), {mode + quantiles:.2f} per summary "
        f"({per_summary[finite].mean():.2f} on finite windows, {per_summary[~finite].mean():.2f} on (0, inf)); "
        f"{one:.0%} of quantile sets end after one call"
    )


def _ordered(x: np.ndarray) -> np.ndarray:
    """Doubles as integers in the same order, one apart per ulp."""
    i = x.view(np.int64)
    return np.where(i < 0, np.int64(-(2**63)) - i, i)


def compare(ours: dict, theirs: dict) -> tuple[str, bool]:
    """One line per section: the largest relative and ulp difference of its
    float values, and how many of them differ (NaN equals NaN); and whether
    every section is identical, values and structure."""
    lines = []
    identical = True
    for name in SECTIONS:
        if f"{name}.floats" not in theirs:
            lines.append(f"{name:18s} not in the other file")
            identical = False
            continue
        a, b = ours[f"{name}.floats"], theirs[f"{name}.floats"]
        if a.shape != b.shape or not np.array_equal(ours[f"{name}.other"], theirs[f"{name}.other"]):
            lines.append(f"{name:18s} differs in structure: {a.size} against {b.size} values")
            identical = False
            continue
        differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
        identical = identical and not differ.any()
        a, b = a[differ], b[differ]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.max(np.abs(a - b) / np.abs(b), initial=0.0)
        ulp = max((abs(int(u) - int(v)) for u, v in zip(_ordered(a), _ordered(b))), default=0)
        lines.append(f"{name:18s} max rel {rel:.3g}  max ulp {ulp}  ({a.size} of {differ.size} values differ)")
    return "\n".join(lines), identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 hashes over a seeded sweep of the public API")
    parser.add_argument("--dump", metavar="PATH", help="write each section's raw values to PATH (.npz)")
    parser.add_argument("--against", metavar="PATH", help="compare the raw values with a --dump file")
    parser.add_argument(
        "--calls", action="store_true", help="print only the density calls per mode, quantile set and summary"
    )
    args = parser.parse_args(argv)
    if args.calls:
        with np.errstate(all="ignore"):
            print(density_calls())
        return 0
    total = hashlib.sha256()
    values = {}
    with np.errstate(all="ignore"):
        for name, sweep in SECTIONS.items():
            h = Sink()
            sweep(h)
            total.update(h.hash.digest())
            print(f"{name:18s} {h.hash.hexdigest()}")
            values[f"{name}.floats"] = np.concatenate(h.floats) if h.floats else np.empty(0)
            values[f"{name}.other"] = np.array(h.other, dtype=str)
    print(f"{'total':18s} {total.hexdigest()}")
    if args.dump:
        with open(args.dump, "wb") as fh:
            np.savez(fh, **values)
    if args.against:
        with np.load(args.against) as theirs:
            text, identical = compare(values, dict(theirs))
        print(text)
        return 0 if identical else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
