"""Self-checks of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/test_perfbench.py

Two traced runs with one seed must give identical counts and an identical
input digest; another seed must change the input digest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _run(*args):
    proc = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("ENV "))[4:])
    return env, json.loads(lines[-1])


def _traced(workload, seed):
    env, last = _run("--workload", workload, "--seed", str(seed), "--trace", "1")
    with open(os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}.json")) as fp:
        report = json.load(fp)
    counts = {name: rec["calls"] for name, rec in report["trace"]["functions"].items()}
    derived = {name: m["value"] for name, m in report["metrics"].items() if m["unit"] != "s"}
    derived.pop("trace.overhead")
    return env, last, counts, report["trace"]["edges"], derived


@pytest.mark.parametrize("workload", ["regular-degree", "cli-corpus"])
def test_traced_runs_repeat_exactly(workload):
    env1, last1, counts1, edges1, derived1 = _traced(workload, 3)
    env2, last2, counts2, edges2, derived2 = _traced(workload, 3)
    assert last1["correct"] and last2["correct"]
    assert env1["input_digest"] == env2["input_digest"]
    assert counts1 and counts1 == counts2
    assert edges1 == edges2
    assert derived1 == derived2


def test_seed_changes_inputs():
    env_a, _ = _run("--workload", "regular-degree", "--seed", "3", "--seconds", "1")
    env_b, _ = _run("--workload", "regular-degree", "--seed", "4", "--seconds", "1")
    assert env_a["input_digest"] != env_b["input_digest"]


def test_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the run
    fails without printing a result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(RUN + ["--workload", "regular-degree", "--seed", "0", "--seconds", "1",
                                     "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
