"""rdh3d benchmark: three role-based workloads, closed loop, one client.

    python3 perfbench/run.py --workload roundtrip-large --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
of that checkout; no install is needed. Each run

1. times a fresh interpreter importing ``rdh3d.cli`` several times
   (``setup_s``, median; untraced runs only);
2. generates the workload's inputs from ``--seed`` in a child process
   (perfbench/gen.py), so generation is in no metric;
3. runs sessions back to back, one at a time in this process, until
   ``--seconds`` have passed (at least one), checking every output;
4. prints a human-readable summary, then as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; a timing is the
sum over a session's steps of each step's median over the run's
sessions. With ``--trace 1`` untraced and traced sessions alternate; the
metrics are the per-layer ones (see spans.py), lower medians over the
traced sessions, plus the per-role timings of the untraced sessions and
the tracing overhead. The spans are written to
``perfbench/_out/``. See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("roundtrip-large", "decimal-owner", "corpus-sweep")
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "owner_s": "s",
    "peak_rss_mb": "MiB",
    "bpv": "bits/vertex",
}
# Timings of one role or one row (from untraced sessions), the failure
# ratio and the tracing overhead. They are zero on some workloads (no such
# step, or nothing failed), and an end-to-end metric must be nonzero on
# every workload, so they are reported with the per-layer metrics.
RUN_METRICS = {
    "hide_s": "s",
    "extract_s": "s",
    "recover_s": "s",
    "metrics_s": "s",
    "row_p50_s": "s",
    "row_p90_s": "s",
    "fail_frac": "ratio",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="rdh3d benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few hundred vertices per mesh (smoke test)")
    return p.parse_args(argv)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters running `import rdh3d.cli`; the
    first, untimed, import writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import rdh3d.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def context() -> dict:
    from importlib.metadata import version

    libs = {name: version(name) for name in ("numpy", "scipy", "cryptography")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine(), **libs}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def step_total(sessions, attr="steps") -> float:
    """Sum over a session's steps of each step's median across sessions,
    so that a burst of machine noise in one step of one session drops out."""
    tables = [getattr(s, attr) for s in sessions]
    keys = dict.fromkeys(k for t in tables for k in t)
    return sum(median([t[k] for t in tables if k in t]) for k in keys)


def role_metrics(untraced) -> dict:
    def step(name):
        return median([s.steps[name] for s in untraced if name in s.steps])

    rows = [r for s in untraced for r in s.rows]
    return {"hide_s": step("embed"), "extract_s": step("extract"),
            "recover_s": step("recover"), "metrics_s": step("metrics"),
            "row_p50_s": percentile(rows, 50), "row_p90_s": percentile(rows, 90)}


def run(args, work: Path):
    from sessions import SESSIONS, load_cases
    from spans import LAYER_METRICS, Tracer

    setup = [] if args.trace else measure_setup()
    in_dir = work / "inputs"
    gen = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(in_dir)] + ["--tiny"] * args.tiny
    subprocess.run(gen, check=True, timeout=600)
    cases = load_cases(in_dir)
    session_fn = SESSIONS[args.workload]

    quiet = Tracer(enabled=False)
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or not untraced
           or (args.trace and not traced)):
        traced_turn = bool(args.trace) and len(traced) < len(untraced)
        tr = tracer if traced_turn else quiet
        tr.trace_id = len(traced)
        if traced_turn:
            tracer.install()
        try:
            with tr.span("session"):
                s = session_fn(cases, work, tr)
        finally:
            tracer.uninstall()
        (traced if traced_turn else untraced).append(s)

    sessions = untraced + traced
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    e2e = {
        "setup_s": median(setup),
        "session_s": step_total(untraced),
        "owner_s": step_total(untraced, "owner"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bpv": median([s.embedded_bits / s.n_vertices for s in untraced if s.n_vertices]),
    }
    roles = role_metrics(untraced)
    roles["fail_frac"] = failed / attempted
    roles["trace.overhead_s"] = step_total(traced) - e2e["session_s"] if traced else 0.0
    env = context()
    layers = {}
    if traced:
        per_session = [tracer.layer_metrics(k) for k in range(len(traced))]
        # median_low keeps exact counts exact with an even number of sessions
        layers = {name: statistics.median_low([m[name] for m in per_session])
                  for name in LAYER_METRICS}
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.json",
                    {**env, "workload": args.workload, "seed": args.seed})

    units = {**END_TO_END, **RUN_METRICS, **LAYER_METRICS}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} untraced_sessions={len(untraced)} "
          f"traced_sessions={len(traced)} setup_samples={len(setup)} "
          f"rows={sum(len(s.rows) for s in untraced)}")
    print(f"# context {json.dumps(env)}")
    if args.trace:
        del e2e["setup_s"]
    for name, value in {**e2e, **roles, **layers}.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print("# session totals (s): untraced "
          + " ".join(f"{sum(s.steps.values()):.3f}" for s in untraced)
          + (" traced " + " ".join(f"{sum(s.steps.values()):.3f}" for s in traced)
             if traced else ""))
    for s in sessions:
        for problem in s.problems:
            print(f"FAILED {problem}")

    shown = {**roles, **layers} if args.trace else e2e
    metrics = {name: {"value": value, "unit": units[name]} for name, value in shown.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return failed == 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rdh3d" / "cli.py").is_file():
        print(f"error: {SRC / 'rdh3d'} not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return 0 if run(args, work) else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
