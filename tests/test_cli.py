import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import goaltime
from goaltime.cli import _render, build_parser, main, resolve_config

from test_ingest import unreadable_inputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return meta, header, rows


class TestPredict:
    def test_fixture_defaults(self, capsys):
        code, out, err = run(capsys, "predict", "--grid", "600")
        assert code == 0, err
        meta, header, rows = parse_csv(out)
        assert header == ["y", "q0", "q1"]
        assert len(rows) == 600
        ys = np.array([float(r[0]) for r in rows])
        q0 = np.array([float(r[1]) for r in rows])
        q1 = np.array([float(r[2]) for r in rows])
        # grid strictly inside the open window
        assert ys[0] > 0.0 and ys[-1] < 60.0
        # peaks near the reference modes
        assert ys[q0.argmax()] == pytest.approx(17.9, abs=0.5)
        assert ys[q1.argmax()] == pytest.approx(28.1, abs=0.5)

    def test_metadata_block(self, capsys):
        code, out, _ = run(capsys, "predict", "--grid", "10")
        meta, _, _ = parse_csv(out)
        assert meta[0].startswith("# goaltime ")
        assert meta[1].startswith("# config: ")
        cfg = json.loads(meta[1].removeprefix("# config: "))
        assert cfg["command"] == "predict"
        assert cfg["x1"] == pytest.approx(35.85, abs=0.01)
        assert meta[2].startswith("# seed: ")

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "predict", "--grid", "50")
        _, out2, _ = run(capsys, "predict", "--grid", "50")
        assert out1 == out2

    def test_explicit_stats(self, capsys):
        code, out, err = run(
            capsys, "predict", "--x1", "35.85", "--x2", "39.07", "--grid", "20"
        )
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert len(rows) == 20

    def test_unit_future_shape_monotone(self, capsys):
        code, out, _ = run(capsys, "predict", "--r-prime", "1", "--grid", "100")
        assert code == 0
        _, _, rows = parse_csv(out)
        q0 = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(q0) < 0)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "predict", "--grid", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["y", "q0", "q1"]
        assert len(payload["rows"]) == 5
        assert payload["meta"]["config"]["grid"] == 5

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "densities.csv"
        code, out, _ = run(capsys, "predict", "--grid", "5", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().count("\n") == 5 + 4


UNREADABLE_LOGS = unreadable_inputs("team,opponent,elapsed_minutes", "A,B,10.0")


class TestConfigErrors:
    def test_both_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "predict", "--x1", "30", "--team-a-log", "somewhere.csv"
        )
        assert code == 2
        assert "exactly one" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "predict", "--team-a-log", "/does/not/exist.csv")
        assert code == 2

    @pytest.mark.parametrize("name, data, line, message", UNREADABLE_LOGS, ids=[c[0] for c in UNREADABLE_LOGS])
    def test_unreadable_log(self, capsys, tmp_path, name, data, line, message):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        code, out, err = run(capsys, "summarize", "--team-a-log", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"goaltime: configuration error: line {line}: {message}")

    def test_bad_window(self, capsys):
        code, _, err = run(capsys, "predict", "--window", "60,0")
        assert code == 2

    def test_points_mode_needs_points(self, capsys):
        code, _, err = run(capsys, "predict", "--x2-mode", "points-ratio")
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["summarize", "--r-prime", "-1"],
            ["summarize", "--x1", "-1"],
            ["summarize", "--x2", "0"],
            ["risk-curve", "--lambda1", "-1"],
            ["prediction-error", "--truth-scale", "0"],
            ["risk-curve", "--r1", "0.5"],
            # the risk's untruncated grid covers (0, inf) only
            ["risk-curve", "--window", "5,inf"],
            ["risk-curve", "--seed", "-1", "--samples", "200", "--ratios", "1,2"],
        ],
    )
    def test_out_of_domain_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["risk-curve", "--lambda1", "inf", "--samples", "200", "--ratios", "1,2"],
            ["risk-curve", "--lambda1", "nan", "--samples", "200", "--ratios", "1,2"],
            ["risk-curve", "--r1", "nan", "--samples", "200", "--ratios", "1,2"],
            ["risk-curve", "--r2", "inf", "--samples", "200", "--ratios", "1,2"],
            ["risk-curve", "--ratios", "1,inf", "--samples", "200"],
            ["summarize", "--r1", "nan"],
            ["summarize", "--x1", "30", "--x2", "inf"],
            ["prediction-error", "--truth-scale", "nan"],
            ["prediction-error", "--truth-shape", "inf"],
        ],
    )
    def test_non_finite_input_is_a_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert "configuration error" in err

    def test_unopenable_out_path(self, capsys, tmp_path):
        dest = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run(capsys, "summarize", "--out", str(dest))
        assert code == 2
        assert out == ""
        assert err.startswith("goaltime: configuration error: ") and err.count("\n") == 1
        assert not dest.parent.exists()

    def test_out_path_checked_before_the_command(self, capsys, monkeypatch, tmp_path):
        # an --out that cannot be written exits 2 before any work is done
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(goaltime.evaluation, "risk_curve", never)
        for dest in (tmp_path / "no-such-dir" / "x.csv", tmp_path):
            code, out, err = run(capsys, "risk-curve", "--samples", "200", "--ratios", "1", "--out", str(dest))
            assert code == 2
            assert out == ""
            assert err.startswith("goaltime: configuration error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_path_check_leaves_the_file(self, tmp_path):
        # the check neither creates nor truncates the file
        dest = tmp_path / "x.csv"
        resolve_config(build_parser().parse_args(["summarize", "--out", str(dest)]))
        assert not dest.exists()
        dest.write_text("keep")
        resolve_config(build_parser().parse_args(["summarize", "--out", str(dest)]))
        assert dest.read_text() == "keep"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestNumericalFailure:
    def test_degenerate_window_exits_3(self, capsys):
        # a sliver of window so far in the tail of a tiny-scale density that
        # its mass underflows to 0
        code, _, err = run(
            capsys, "predict", "--x1", "1e-300", "--x2", "1e-300", "--window", "59.99999,60"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_risk_window_without_truth_mass_exits_3(self, capsys):
        # one precise error, raised before any draw, and no numpy warning
        code, out, err = run(
            capsys, "risk-curve", "--r-prime", "1000", "--window", "0,60", "--samples", "200", "--ratios", "1"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "goaltime: numerical failure: the truth Gamma(r' = 1000.0, lambda1 = 12.0)"
            " has no mass in doubles on the window (0.0, 60.0)\n"
        )


class TestSummarize:
    def test_reference_rows(self, capsys):
        code, out, err = run(capsys, "summarize")
        assert code == 0, err
        _, header, rows = parse_csv(out)
        assert header == ["estimator", "mode", "mean", "p20", "p50", "p90"]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows}
        for got, want in zip(table["q0"], (17.92, 28.35, 14.38, 26.62, 50.3)):
            assert got == pytest.approx(want, abs=0.1)
        for got, want in zip(table["q1"], (28.13, 33.12, 19.06, 32.82, 53.48)):
            assert got == pytest.approx(want, abs=1.5)

    def test_points_ratio_mode_shifts_rival_stat(self, capsys):
        code, out, err = run(
            capsys, "summarize", "--x2-mode", "points-ratio", "--points-a", "105",
            "--points-b", "71",
        )
        assert code == 0, err
        meta, _, _ = parse_csv(out)
        cfg = json.loads(meta[1].removeprefix("# config: "))
        assert cfg["x2"] == pytest.approx(39.07 * 105 / 71, abs=0.05)


    def test_small_window_mass_is_accepted(self, capsys):
        # x1 far above the window: the mass over (0, 60) is about 2e-21 and
        # q0 is nearly y^2 there; its quantiles against the exact ones (mpmath,
        # through the beta CDF) and against the y^2 limit 60 p^(1/3), which
        # the first-order correction in 60/x1 moves by at most 1.4e-6 min
        code, out, err = run(capsys, "summarize", "--x1", "1e9", "--x2", "30")
        assert code == 0, err
        _, _, rows = parse_csv(out)
        q0 = {r[0]: [float(v) for v in r[1:]] for r in rows}["q0"]
        with mp.workdps(40):
            x1 = mp.mpf(10) ** 9
            mass = mp.betainc(3, 3, 0, 60 / (x1 + 60), regularized=True)
            for prob, got in zip((0.2, 0.5, 0.9), q0[2:]):
                limit = 60.0 * prob ** (1.0 / 3.0)
                u = mp.findroot(
                    lambda v: mp.betainc(3, 3, 0, v, regularized=True) - prob * mass, limit / x1
                )
                assert got == pytest.approx(float(x1 * u / (1 - u)), abs=1e-6)
                assert got == pytest.approx(limit, abs=1.4e-6)


class TestPredictionError:
    def test_reference_values(self, capsys):
        code, out, err = run(capsys, "prediction-error")
        assert code == 0, err
        _, header, rows = parse_csv(out)
        assert header == ["estimator", "pe_truncated", "pe_raw"]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows}
        assert table["q1"][0] == pytest.approx(0.04, abs=0.1)
        assert table["q0"][1] == pytest.approx(0.45, abs=0.1)
        assert table["q1"][0] < table["q0"][1]


class TestDensityTable:
    def test_raw_densities_not_window_normalized(self, capsys):
        code, out, err = run(capsys, "density-table", "--grid", "400")
        assert code == 0, err
        _, _, rows = parse_csv(out)
        ys = np.array([float(r[0]) for r in rows])
        q0 = np.array([float(r[1]) for r in rows])
        # trapezoid mass over (0, 60) of the untruncated density stays below 1
        mass = np.trapezoid(q0, ys)
        assert mass == pytest.approx(0.726, abs=0.01)


class TestRiskCurve:
    def test_small_curve(self, capsys):
        code, out, err = run(
            capsys, "risk-curve", "--ratios", "1,2", "--samples", "500", "--seed", "5"
        )
        assert code == 0, err
        _, header, rows = parse_csv(out)
        assert header == ["ratio", "risk_q0", "std_err_q0", "risk_q1", "std_err_q1"]
        assert len(rows) == 2
        assert float(rows[0][1]) > 0

    def test_deterministic_given_seed(self, capsys):
        args = ("risk-curve", "--ratios", "1,1.5", "--samples", "300", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_defaults_in_metadata(self):
        # the parser leaves --samples, --ratios and --lambda1 unset, so that
        # it needs no evaluation import; resolve_config fills them in
        cfg = resolve_config(build_parser().parse_args(["risk-curve"]))
        meta = strict_json(_render(cfg, ["ratio"], []).splitlines()[1].removeprefix("# config: "))
        assert meta["samples"] == 20000
        assert meta["ratios"] == [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
        assert meta["lambda1"] == 12.0
        assert tuple(meta["ratios"]) == goaltime.evaluation.DEFAULT_RATIO_GRID

    def test_explicit_values_in_metadata(self):
        args = ["risk-curve", "--samples", "300", "--ratios", "1,2.5", "--lambda1", "7"]
        cfg = resolve_config(build_parser().parse_args(args))
        extras = {key: cfg[key] for key in ("ratios", "lambda1")}
        assert (cfg["samples"], extras) == (300, {"ratios": [1.0, 2.5], "lambda1": 7.0})


# the keys every config block holds, and those each data source and command add
_BASE_KEYS = {
    "command", "r1", "r2", "r_prime", "window", "x1", "x2", "x2_mode", "grid", "samples", "seed", "format", "out"
}
_LOGS = {"team_a_log", "team_a", "team_b_log", "team_b"}
_EXPLICIT = {"team_a_log", "team_b_log"}
_TRUTH = {"truth_shape", "truth_scale"}
_TORONTO = "toronto_2017_18.csv"


@pytest.mark.parametrize(
    "argv, extra, team_a_log",
    [
        (["predict"], _LOGS, _TORONTO),
        (["density-table"], _LOGS, _TORONTO),
        (["summarize"], _LOGS, _TORONTO),
        (["summarize", "--x1", "30", "--x2", "40"], _EXPLICIT, None),
        (["summarize", "--x1", "30"], _EXPLICIT | {"team_b"}, None),
        (["summarize", "--team-a-log", "LOG"], _LOGS, "LOG"),
        (["prediction-error"], _LOGS | _TRUTH, _TORONTO),
        (["prediction-error", "--x1", "30", "--x2", "40"], _EXPLICIT | _TRUTH, None),
        (["risk-curve"], {"ratios", "lambda1"}, "absent"),
    ],
)
def test_config_keys_per_command_and_source(argv, extra, team_a_log):
    # the config block is the resolved dict itself: one flat set of keys per
    # command and data source, with no nesting and no team keys for the risk
    log = str(goaltime.toronto_fixture_path())
    argv = [log if arg == "LOG" else arg for arg in argv]
    cfg = resolve_config(build_parser().parse_args(argv))
    block = strict_json(_render(cfg, ["c"], []).splitlines()[1].removeprefix("# config: "))
    assert set(cfg) == set(block) == _BASE_KEYS | extra
    assert block.get("team_a_log", "absent") == (log if team_a_log == "LOG" else team_a_log)


def strict_json(text):
    """Parse ``text`` as JSON, rejecting the NaN/Infinity extensions."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictOutput:
    def test_risk_curve_json_is_strict(self, capsys):
        code, out, err = run(
            capsys, "risk-curve", "--ratios", "1,2", "--samples", "200", "--format", "json"
        )
        assert code == 0, err
        cfg = strict_json(out)["meta"]["config"]
        assert cfg["x1"] is None
        assert cfg["window"] == [0.0, None]

    def test_csv_config_line_is_strict(self, capsys):
        code, out, err = run(capsys, "risk-curve", "--ratios", "1,2", "--samples", "200")
        assert code == 0, err
        meta, _, _ = parse_csv(out)
        cfg = strict_json(meta[1].removeprefix("# config: "))
        assert cfg["x1"] is None and cfg["window"] == [0.0, None]

    def test_too_few_samples_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "risk-curve", "--samples", "5")
        assert code == 2
        assert "configuration error" in err

    def test_json_cells_rounded_once_non_finite_null(self):
        cfg = resolve_config(build_parser().parse_args(["summarize", "--format", "json"]))
        rows = [["q0", 1.0 / 3.0, float("nan")], ["q1", float("inf"), -float("inf")], ["q2", 2, 1e-320]]
        payload = strict_json(_render(cfg, ["estimator", "a", "b"], rows))
        assert payload["rows"] == [["q0", 0.3333333333, None], ["q1", None, None], ["q2", 2, 1e-320]]
        # the metadata is not rounded
        assert payload["meta"]["config"]["x1"] == cfg["x1"]

    def test_descending_ratios_are_a_config_error(self, capsys):
        code, _, err = run(capsys, "risk-curve", "--ratios", "8,1")
        assert code == 2
        assert "configuration error" in err


class TestFormerNumericalFailures:
    """Inputs on which the ordering constant used to fail."""

    def test_vanishing_rival_statistic(self, capsys):
        # criterion 10's limit at an extreme x2: q1 approaches q0
        code, out, err = run(capsys, "predict", "--x2", "1e-300")
        assert code == 0, err
        _, _, rows = parse_csv(out)
        q0 = np.array([float(r[1]) for r in rows])
        q1 = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(q1 - q0)) < 1e-3

    def test_large_shapes_summary(self, capsys):
        code, out, err = run(capsys, "summarize", "--r-prime", "200", "--r1", "150", "--r2", "150")
        assert code == 0, err
        _, _, rows = parse_csv(out)
        for row in rows:
            mode, mean, p20, p50, p90 = (float(v) for v in row[1:])
            assert 0.0 < p20 < p50 < p90 < 60.0
            assert 0.0 <= mode <= 60.0 and 0.0 < mean < 60.0

    def test_non_integer_rival_shape_risk_curve(self, capsys):
        code, out, err = run(
            capsys, "risk-curve", "--r2", "2.5", "--samples", "2000", "--ratios", "1,8"
        )
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(np.isfinite(float(v)) for row in rows for v in row)


def _fresh_env():
    """The environment with this source tree first on the import path."""
    src = str(Path(goaltime.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_adaptive_solvers():
    # every integral, root and optimum comes from the fixed window grid, and
    # the incomplete beta is the package's own: no scipy module at all
    code = (
        "import sys, goaltime.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# modules that no cold command loads, and those that each command must not
_NEVER = ("scipy", "logging")
_NOT_FOR = {
    "predict": ("goaltime.evaluation", "numpy.polynomial"),
    "density-table": ("goaltime.evaluation", "numpy.polynomial"),
    "summarize": ("goaltime.evaluation", "numpy.polynomial"),
    "prediction-error": ("numpy.polynomial",),
    "risk-curve": ("goaltime.ingest", "csv"),
}


@pytest.mark.parametrize("command", list(_NOT_FOR))
def test_cold_command_loads_only_what_it_runs(command, tmp_path):
    # each command runs in a fresh interpreter on the bundled fixtures, and
    # reports every module the process holds once it is done (-X importtime
    # would not do: it misses submodules that ``from . import`` loads)
    code = (
        "import sys\n"
        "from goaltime.cli import main\n"
        "print(main())\n"
        "print(*sorted(sys.modules), sep='\\n')\n"
    )
    args = [command, "--out", str(tmp_path / "out")] + (["--samples", "100"] if command == "risk-curve" else [])
    done = subprocess.run([sys.executable, "-c", code, *args], env=_fresh_env(), capture_output=True, text=True, check=True)
    exit_code, *loaded = done.stdout.splitlines()
    assert exit_code == "0", done.stderr
    assert (tmp_path / "out").stat().st_size > 0
    assert "goaltime.predictive" in loaded
    banned = _NEVER + _NOT_FOR[command]
    assert [m for m in loaded if any(m == b or m.startswith(b + ".") for b in banned)] == []
