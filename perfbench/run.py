"""goaltime benchmark: four seeded closed-loop workloads, one command.

    python3 perfbench/run.py --workload matchups --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One run sets up (import, input generation, warm-up), runs one workload as a
single closed-loop client for ``--seconds``, checks every op's output, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Spans, the environment and the full result go to ``perfbench/out/``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: one client, one thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, deque  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("matchups", "domain-sweep", "risk-grid", "cli-cold")
SETUP_REPEATS = 3
DEFAULT_SECONDS = 35
REFERENCE_WINDOW = 7

# (name, unit); the untraced run reports every one of them
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def reference_for(wl):
    """The workload's reference computation and its nominal seconds."""
    import reference

    return getattr(reference, wl.reference), reference.NOMINAL_S[wl.reference]


def speed_factor(wl, samples: int = REFERENCE_WINDOW) -> float:
    """Nominal over current time of the workload's reference computation."""
    measure, nominal = reference_for(wl)
    return nominal / stats.median([measure() for _ in range(samples)])


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs and warm up.

    Returns the workload, its inputs, and the set-up seconds as measured
    and scaled to the machine's nominal speed.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[workload]
    pool = wl.generate(seed, workdir)
    wl.warm_up(pool, workdir)
    seconds = time.perf_counter() - start
    return wl, pool, (seconds, seconds * speed_factor(wl))


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """One more set-up in a fresh interpreter, so import cost counts again."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed_loop(wl, pool, seconds: float, rec, workdir: Path) -> dict:
    """One client, closed loop: the next op starts when the last one ends.

    Between ops the workload's reference computation runs (``reference``).
    Each op's time is also scaled by the machine's speed around it: nominal
    reference time over the median of the last ``REFERENCE_WINDOW``
    reference times, the last one taken just after the op.
    """
    measure, nominal = reference_for(wl)
    refs = deque([measure()], maxlen=REFERENCE_WINDOW)
    all_refs = list(refs)
    latencies, scaled, failures, examples = [], [], Counter(), {}
    acc: dict = {}
    wrong = attempted = 0
    busy = busy_scaled = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = pool[attempted % len(pool)]
        rec.op = attempted
        attempted += 1
        ok = False
        t0 = time.perf_counter()
        try:
            with rec.span(f"op.{wl.name}"):
                wl.op(item, rec, acc, workdir)
            ok = True
        except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
            kind = type(exc).__name__
            if kind == "WrongValue":
                wrong += 1
            failures[kind] += 1
            examples.setdefault(kind, f"{item!r:.200}: {exc}")
        dt = time.perf_counter() - t0
        refs.append(measure())
        all_refs.append(refs[-1])
        dt_scaled = dt * nominal / stats.median(refs)
        busy += dt
        busy_scaled += dt_scaled
        if ok:
            latencies.append(dt)
            scaled.append(dt_scaled)
    return {
        "busy_s": busy,
        "busy_scaled_s": busy_scaled,
        "latencies": latencies,
        "scaled": scaled,
        "reference_ms": stats.median(all_refs) * 1e3,
        "attempted": attempted,
        "failures": dict(failures),
        "failure_examples": examples,
        "wrong": wrong,
        "acc": acc,
    }


def end_to_end(wl, loop: dict, setups: list[tuple[float, float]]) -> dict:
    """Every end-to-end metric as ``name -> (value, unit, note)``.

    Times are scaled to the machine's nominal speed (see ``timed_loop``);
    the ``wall_`` entries are the same figures as measured.
    """
    lat_ms = [t * 1e3 for t in loop["scaled"]]
    wall_ms = [t * 1e3 for t in loop["latencies"]]
    n = len(lat_ms)
    failed = loop["attempted"] - n
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    else:
        rss_kb = loop["acc"]["child_maxrss_kb"]
        rss_note = "largest CLI process"
    tail_note = (f"n={n}, {stats.beyond(n, 90)} beyond p90; the 10-beyond rule "
                 f"needs n>={stats.samples_needed(90)}, highest level met: {stats.tail_level(n)}")
    busy, busy_scaled = loop["busy_s"], loop["busy_scaled_s"]
    out = {
        "setup_s": (stats.median([s for _, s in setups]), "s", f"median of {len(setups)} set-ups"),
        "op_p50_ms": (stats.percentile(lat_ms, 50), "ms", f"n={n}"),
        "op_p90_ms": (stats.percentile(lat_ms, 90), "ms", tail_note),
        "ops_per_s": (n / busy_scaled, "1/s", f"{n} ok ops in {busy_scaled:.2f} scaled s"),
        "fail_frac": (failed / loop["attempted"], "fraction", f"{failed} of {loop['attempted']}"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", rss_note),
    }
    if "draws" in loop["acc"]:
        out["mc_draws_per_s"] = (loop["acc"]["draws"] / busy_scaled, "1/s", "draws x estimators")
    out.update({
        "wall_setup_s": (stats.median([w for w, _ in setups]), "s", "as measured"),
        "wall_op_p50_ms": (stats.percentile(wall_ms, 50), "ms", "as measured"),
        "wall_op_p90_ms": (stats.percentile(wall_ms, 90), "ms", "as measured"),
        "wall_ops_per_s": (n / busy, "1/s", f"as measured, {busy:.2f} s in ops"),
        "reference_ms": (loop["reference_ms"], "ms", f"median {wl.reference} reference"),
    })
    return out


def git_sha() -> str | None:
    """HEAD's commit from ``.git`` files, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, pool, first_setup = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setups = [first_setup] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        rec = Recorder() if args.trace else NullRecorder()
        loop = timed_loop(wl, pool, args.seconds, rec, workdir)
        defects = wl.known_defects(pool, workdir) if wl.known_defects else {}
        if not loop["latencies"]:
            print(f"perfbench: every op of {args.workload} failed: {loop['failure_examples']}", file=sys.stderr)
            return 1
        e2e = end_to_end(wl, loop, setups)
        per_layer = {}
        if args.trace:
            import layers

            measured = layers.run_probes(rec, args.seed, workdir)
            units = dict(layers.PER_LAYER)
            per_layer = {k: (v, units[k]) for k, v in layers.per_layer_metrics(rec.spans, measured).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = loop["attempted"] - len(loop["latencies"])
    correct = loop["wrong"] == 0 and (args.workload != "matchups" or loop["acc"].get("fixture_checked", False))
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<16} {value:14.6g} {unit:<9} ({note})")
    for kind, count in sorted(loop["failures"].items()):
        print(f"  failed {kind} x{count}: {loop['failure_examples'][kind]}")
    for op, failure in defects.items():
        print(f"  known defect, untimed: {op}: {failure or 'passes now'}")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "attempted": loop["attempted"], "failed": failed,
        "failures": loop["failures"], "failure_examples": loop["failure_examples"],
        "known_defects": defects,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        rec.dump(OUT / f"trace-{tag}.jsonl")
    reported = per_layer if args.trace else {k: e2e[k][:2] for k, _ in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced; prints the tracing overhead."""
    rows = []
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            subprocess.run(argv, cwd=ROOT, check=True, timeout=600)
            tag = f"{workload}-seed{args.seed}-trace{trace}"
            results.append(json.loads((OUT / f"result-{tag}.json").read_text()))
        rows.append((workload, *results))
    print("\ntracing overhead (traced / untraced - 1):")
    for workload, plain, traced in rows:
        gaps = []
        for name in ("op_p50_ms", "ops_per_s"):
            a, b = plain["end_to_end"][name]["value"], traced["end_to_end"][name]["value"]
            gaps.append(f"{name} {b / a - 1:+.2%}")
        print(f"  {workload:<13} " + "  ".join(gaps))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "goaltime" / "__init__.py").is_file():
        print(f"perfbench: goaltime sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
