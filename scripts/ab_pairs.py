"""Alternating A/B pairs of the benchmark: a parent commit against the
working tree.

    python3 scripts/ab_pairs.py --parent HEAD~1 --workload corpus-sweep \
        --seed 1 --pairs 10 --out BENCH.json

Run from anywhere inside a git checkout. The parent commit is exported
with `git archive` into a temporary directory beside the checkout, in
its parent directory (under TMPDIR instead when that is set), which is
removed on exit, on an error and on SIGTERM. A parent exported under the
system temporary folder read decimal-owner's peak RSS 4 MiB lower than
the same code in the checkout; beside the checkout the two sides of one
commit still differ by about 1 MiB, so an RSS gap that small is not a
finding. Each pair then runs
`perfbench/run.py --trace 0` once there and once in the working tree,
with the same workload, seed and run length, the parent first in even
pairs and the working tree first in odd ones. Nothing under perfbench/
is edited: each side runs its own copy. --workload takes one workload,
a comma-separated list, or `all` for every workload that the working
tree's BENCHMARK.json declares; the workloads run one after the other,
each with its own pairs.

Each side runs with its own fresh bytecode cache (PYTHONPYCACHEPREFIX
pointing into the temporary directory, with bytecode writing on), filled
by one short --tiny run of the workload before the first pair. So both
sides load every module, the package and its dependencies alike, from
bytecode compiled in this session: a `__pycache__` left in the working
tree, which the exported parent lacks, is never read, and loading from
bytecode rather than source changes a run's peak RSS.

For every end-to-end metric the script prints each side's runs, their
median and quartiles, and the pairs the working tree won (ties count for
neither side). It also says whether the gap between the medians exceeds
the parent's interquartile range. The results go into --out, a JSON
object keyed by "<workload>/seed<seed>", so that several invocations
fill one file; an existing entry under the same key is replaced.

With --layers, one traced run (`--trace 1`) per side follows the pairs,
and each side's per-layer values (`mesh_io.parse_s`,
`partition.partition_s` and the rest) are printed next to each other and
stored under "layers", to show which stage a change in an end-to-end
metric sits in. A single traced run per side shows where time goes, not
whether a gap is real; the pairs decide that.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Metrics for which a higher value is better; every other one is a cost.
HIGHER_IS_BETTER = {"bpv"}


def stop(signum, frame):
    """A SIGTERM handler: exit through SystemExit, so that the temporary
    directory is removed on the way out."""
    raise SystemExit(128 + signum)


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, root: Path, dest: Path) -> None:
    """Write the tree of commit into dest with git archive."""
    tar = dest / "tree.tar"
    git("archive", "--format=tar", f"--output={tar}", commit, cwd=root)
    subprocess.run(["tar", "-x", "-f", str(tar), "-C", str(dest)], check=True)
    tar.unlink()


def pycache_env(prefix: Path) -> dict:
    """The environment of one side's runs: bytecode cached under prefix."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: Path, env: dict, workload: str, seed: int, seconds: float,
             *extra: str, trace: int = 0) -> dict:
    """One benchmark run in tree: the last line of its output, parsed.
    With trace=1 its metrics are the per-layer ones."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=seconds * 10 + 600)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:  # one pair: no spread to speak of
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per metric: each side's runs, median and quartiles, and the pairs
    the working tree won."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if name in HIGHER_IS_BETTER else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "parent": {"runs": parent, **ps},
            "change": {"runs": change, **cs},
            "wins": wins,
            "losses": losses,
            "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
            "gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def report(key: str, entry: dict) -> None:
    print(f"== {key}: {entry['pairs']} pairs, parent {entry['parent_commit'][:12]} "
          f"against the working tree ({entry['change_commit'][:12]}"
          f"{', with edits' if entry['change_dirty'] else ''})")
    for name, m in entry["metrics"].items():
        print(f"{name}:")
        for side in ("parent", "change"):
            s = m[side]
            print(f"  {side:7s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"runs {' '.join(f'{v:.4g}' for v in s['runs'])}")
        ratio = m["median_ratio"]
        print(f"  working tree won {m['wins']} of {entry['pairs']} pairs (lost {m['losses']}); "
              f"median ratio {'n/a' if ratio is None else f'{ratio:.4f}'}; "
              f"gap exceeds parent IQR: {m['gap_exceeds_parent_iqr']}")
    print(f"failed operations: parent {entry['failed']['parent']}, "
          f"change {entry['failed']['change']}")
    if "layers" in entry:
        print("per layer, one traced run per side (layers at 0 on both left out):")
        parent, change = entry["layers"]["parent"], entry["layers"]["change"]
        for name in (n for n in parent if parent[n] or change[n]):
            ratio = f"{change[name] / parent[name]:.4f}" if parent[name] else "n/a"
            print(f"  {name:28s} parent {parent[name]:<12.6g} change {change[name]:<12.6g} "
                  f"ratio {ratio}")


def workloads(spec: str, root: Path) -> list[str]:
    """The workloads that --workload names: a comma-separated list, or
    `all` for those of root/BENCHMARK.json."""
    if spec == "all":
        return [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    return [name for name in spec.split(",") if name]


def compare(args, workload: str, sides: dict, envs: dict, root: Path) -> dict:
    """The pairs of one workload, and its traced runs with --layers: the
    entry stored under "<workload>/seed<seed>"."""
    runs = {"parent": [], "change": []}
    for side in sides:  # fills the side's bytecode cache
        run_once(sides[side], envs[side], workload, args.seed, 0.1, "--tiny")
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.perf_counter()
            runs[side].append(run_once(sides[side], envs[side], workload, args.seed,
                                       args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: session_s "
                  f"{runs[side][-1]['metrics'].get('session_s', float('nan')):.4f} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
    entry = {
        "workload": workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "parent_commit": git("rev-parse", args.parent, cwd=root),
        "change_commit": git("rev-parse", "HEAD", cwd=root),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no", cwd=root)),
        "order": "parent first in even pairs (0-based), the working tree first in odd ones",
        "bytecode": "a fresh PYTHONPYCACHEPREFIX per side, filled by one --tiny run",
        "nproc": os.cpu_count(),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "metrics": summarize(runs),
    }
    if args.layers:
        entry["layers"] = {side: run_once(sides[side], envs[side], workload, args.seed,
                                          args.seconds, trace=1)["metrics"]
                           for side in sides}
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--workload", required=True,
                   help="a workload, a comma-separated list of them, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="run length of each benchmark run (the same on both sides)")
    p.add_argument("--out", required=True, help="JSON file to add this comparison to")
    p.add_argument("--layers", action="store_true",
                   help="after the pairs, one --trace 1 run per side for the per-layer values")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    names = workloads(args.workload, root)
    if not names:
        p.error("--workload names no workload")
    out = Path(args.out)
    previous = signal.signal(signal.SIGTERM, stop)
    try:
        with tempfile.TemporaryDirectory(prefix="ab-",
                                         dir=os.environ.get("TMPDIR") or root.parent) as tmp:
            parent_tree = Path(tmp, "parent")
            parent_tree.mkdir()
            export(args.parent, root, parent_tree)
            sides = {"parent": parent_tree, "change": root}
            envs = {side: pycache_env(Path(tmp, f"pycache-{side}")) for side in sides}
            for workload in names:
                key = f"{workload}/seed{args.seed}"
                entry = compare(args, workload, sides, envs, root)
                report(key, entry)
                doc = json.loads(out.read_text()) if out.exists() else {}
                doc[key] = entry
                out.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
