"""CLI golden outputs: each command's stdout, compared byte for byte.

The files under ``tests/golden/`` hold the stdout of one ``goaltime``
command each.  The metadata records a bundled fixture log by its file
name, so the output does not depend on where the package is installed.

A change that is meant to move an output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed digits in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from goaltime.cli import main

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = {
    "predict": ["predict", "--grid", "60"],
    "predict_json": ["predict", "--grid", "60", "--format", "json"],
    "density_table": ["density-table", "--grid", "60"],
    "summarize": ["summarize"],
    "summarize_inf": ["summarize", "--window", "0,inf"],
    "prediction_error": ["prediction-error"],
    "prediction_error_inf": ["prediction-error", "--window", "0,inf"],
    "risk_curve": ["risk-curve", "--samples", "2000"],
    "risk_curve_window": ["risk-curve", "--samples", "2000", "--window", "0,60"],
    "risk_curve_r2": ["risk-curve", "--samples", "2000", "--r2", "2.5", "--ratios", "1,8"],
    "summarize_large_shapes": ["summarize", "--r-prime", "200", "--r1", "150", "--r2", "150"],
    "summarize_small_shapes": [
        "summarize", "--r1", "1.2", "--r2", "1.1", "--r-prime", "0.3", "--window", "0,inf",
    ],
    "summarize_edge_mode_lo": ["summarize", "--r-prime", "0.5", "--window", "0,inf"],
    "summarize_edge_mode_hi": ["summarize", "--x1", "1e9", "--x2", "30"],
}


def stdout_of(argv: list[str]) -> str:
    """stdout of one command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert stdout_of(COMMANDS[name]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(stdout_of(argv), encoding="utf-8")
        print(f"wrote {name}.txt", file=sys.stderr)
