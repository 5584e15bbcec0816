"""In-memory span recorder for the traced benchmark run.

A span is one timed call from the benchmark into a goaltime layer: its
name, start and end (``time.perf_counter`` seconds), the span that was open
when it started (its parent), the op it belongs to, and any work counts the
caller attaches (rows parsed, Monte Carlo draws, ...).  Spans stay in memory
and are written as JSON lines once the run ends, so writing costs nothing
inside the timed loop.

``NullRecorder`` has the same interface and records nothing; the untraced
run uses it, so both runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block; the yielded dict takes extra counts."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def with_self_times(self) -> list[dict]:
        """Every span with ``dur`` and ``self`` (duration minus child cover)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        return [
            {**s, "dur": s["end"] - s["start"],
             "self": self_time(s["start"], s["end"], children.get(s["id"], []))}
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.with_self_times():
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class NullRecorder:
    """Recorder stand-in for the untraced run: calls straight through."""

    @contextmanager
    def span(self, name: str, **counts):
        yield {}

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if hi <= lo:
            continue
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, child_intervals)
