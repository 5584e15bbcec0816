"""Reference computations: how fast the machine runs right now.

On the host this benchmark was written on, other tenants slow every
process by up to 2x for phases of seconds to minutes.  The timed loop runs
one of these fixed computations between ops and scales each op's time by
the machine's speed around it (see ``run.timed_loop``).  They share no code
with goaltime, so a change to goaltime cannot change them.  Each does the
kind of work the ops it calibrates do, because a slow phase slows different
kinds of work by different amounts; the CLI workload's ops are fresh
processes, so its reference is one too.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy import integrate

_ARRAY = np.linspace(0.5, 2.0, 200_000)

# typical seconds of each reference between ops on the 2-core x86_64 machine
# the benchmark was written on, outside slow phases; this only sets the scale
NOMINAL_S = {"callbacks": 0.00125, "arrays": 0.0038, "interpreter": 0.045}


def _bump(y: float) -> float:
    a = np.asarray([y])
    return float(np.where(a > 0.0, np.exp(-a * a), 0.0)[0])


def callbacks() -> float:
    """Seconds for adaptive quad over a scalar Python callback on tiny arrays."""
    start = time.perf_counter()
    for _ in range(6):
        integrate.quad(_bump, 0.0, 5.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return time.perf_counter() - start


def arrays() -> float:
    """Seconds for large-array exp/log reductions, like a Monte Carlo KL block."""
    start = time.perf_counter()
    for _ in range(3):
        np.log1p(np.exp(-_ARRAY)).sum()
    return time.perf_counter() - start


def interpreter() -> float:
    """Seconds to start and stop a bare Python process, as every CLI op does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start
