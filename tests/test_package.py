import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goaltime


def fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this source tree."""
    src = str(Path(goaltime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_public_names_are_their_submodules():
    for name in goaltime.__all__:
        module = importlib.import_module(f"goaltime.{goaltime._EXPORTS[name]}")
        assert getattr(goaltime, name) is getattr(module, name), name
        assert getattr(goaltime, name).__module__ == module.__name__, name


def test_dir_lists_every_public_name():
    assert set(goaltime.__all__) <= set(dir(goaltime))
    assert {"__version__", "evaluation", "ingest"} <= set(dir(goaltime))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from goaltime import *", namespace)
    assert set(goaltime.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(goaltime, name) for name in goaltime.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'goaltime' has no attribute 'no_such_name'"):
        goaltime.no_such_name
    assert not hasattr(goaltime, "no_such_name")
    with pytest.raises(ImportError):
        exec("from goaltime import no_such_name", {})


def test_import_runs_no_submodule_until_asked():
    out = fresh(
        "import sys, goaltime\n"
        "print(sorted(m for m in sys.modules if m.startswith('goaltime')))\n"
        "m = goaltime.evaluation\n"
        "print(m is sys.modules['goaltime.evaluation'], m.__name__, callable(m.risk_curve))\n"
        "print(goaltime.truncate is sys.modules['goaltime.distributions'].truncate)\n"
    )
    assert out.splitlines() == ["['goaltime']", "True goaltime.evaluation True", "True"]
