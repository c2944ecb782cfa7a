"""Smoke test of the benchmark at a few hundred vertices per mesh.

    python3 -m pytest perfbench -q

Runs every workload of BENCHMARK.json untraced and traced, and checks
that every metric it names is printed with its unit and that no
operation failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable] + SPEC["command"][1:]


def bench(*args, cwd=ROOT):
    return subprocess.run(COMMAND + [str(a) for a in args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", 7, "--seconds", 1,
                "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["fail_frac"] == 0
        # the wrappers see the partition wherever rdh3d computes it
        assert values["partition.calls"] >= 1
    else:
        assert all(v > 0 for v in values.values()), values


def test_same_seed_same_inputs(tmp_path):
    def generate(seed, name):
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", "corpus-sweep",
                        "--seed", str(seed), "--out", str(tmp_path / name), "--tiny"],
                       check=True, timeout=120)
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                if p.suffix in (".off", ".obj", ".ply")}

    first = generate(11, "a")
    assert generate(11, "b") == first
    assert generate(12, "c") != first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", 1,
                "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
