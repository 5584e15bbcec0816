import os
import subprocess
import sys
from pathlib import Path

import pytest

import goaltime

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run from tmp_path, so any figure a demo writes lands there
    src = str(Path(goaltime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout
