"""qgrass benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record

Run from the root of a source checkout (it imports qgrass from ./src).
Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md
explains them.  Every step runs in its own fresh interpreter (see
worker.py), one at a time, with PYTHONHASHSEED=0 and QGRASS_WORKERS=1.

--trace 0   set-up time (median over 3 to 9 fresh processes), then a
            closed-loop single-client pass over the seeded operation list
            for at least T seconds and MIN_OPS operations: throughput,
            latency percentiles, peak RSS.  Times are given at a nominal
            host speed, measured by hostspeed.py between operations.
--trace 1   the first TRACE_PREFIX operations once untraced and once with
            the library wrapped by tracer.py: per-layer self time and
            counts, and the tracing overhead.
--record    run every operation of the default seed once and store the
            digests of their canonical results in perfbench/expected/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Everything the run writes goes under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0         # every run ends well inside 180 s
SETUP_MIN_REPEATS = 3      # set-up is repeated at least this often,
SETUP_MAX_REPEATS = 9      # and while the repeats so far took under
SETUP_BUDGET_S = 1.5       # this long, so cheap set-ups get a steadier median
SETUP_CHUNKS = 10          # reference chunks timed before and after each set-up
MIN_OPS = 100              # so that at least ten samples lie beyond p90

T0 = time.monotonic()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["QGRASS_WORKERS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining():
    return max(1.0, DEADLINE_S - (time.monotonic() - T0))


def spawn(args, timeout=None):
    """Run one child to completion; returns its wall time in seconds."""
    t = time.perf_counter()
    # own session, so a child that overruns is stopped with everything it started
    with subprocess.Popen(args, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=min(timeout or remaining(), remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"child {' '.join(args[1:4])} overran the run's time limit")
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        fail(f"child {' '.join(args[1:4])} exited {proc.returncode}:\n{err[-2000:]}")
    return wall


def worker(*args):
    return [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]


def measure_setup(workload):
    """Median set-up time over fresh processes, each at nominal host speed
    (scaled by reference chunks timed just before and just after it)."""
    walls, scaled = [], []
    while len(walls) < SETUP_MIN_REPEATS or (sum(walls) < SETUP_BUDGET_S and len(walls) < SETUP_MAX_REPEATS):
        if workload == "cli-corpus":
            args = [sys.executable, os.path.join(HERE, "clirun.py"), "--", "checks"]
        else:
            args = worker("setup", workload)
        before = hostspeed.measure_mean(SETUP_CHUNKS)
        wall = spawn(args, timeout=60)
        after = hostspeed.measure_mean(SETUP_CHUNKS)
        walls.append(wall)
        scaled.append(wall * hostspeed.NOMINAL_S * 2 / (before + after))
    return statistics.median(scaled), walls


def src_summary():
    """Line count and content digest of the library sources (the checkout
    the benchmark runs in need not be a git repository)."""
    lines, h = 0, hashlib.sha256()
    pkg = os.path.join(SRC, "qgrass")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fp:
                data = fp.read()
            lines += data.count(b"\n")
            h.update(name.encode() + b"\0" + data)
    return lines, h.hexdigest()


def environment(seed, input_digest):
    commit = "unknown"      # an exported checkout has no .git; src_sha256 still names the code
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines, digest = src_summary()
    return {
        "commit": commit,
        "src_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "input_digest": input_digest,
        "src_lines": lines,
        "PYTHONHASHSEED": "0",
        "QGRASS_WORKERS": "1",
        "clients": 1,
    }


def load_result(run_dir, name):
    with open(os.path.join(run_dir, name)) as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's aggregates


def layer_value(metric, trace, extra):
    if metric in extra:
        return extra[metric]
    funcs = trace["functions"]
    base, _, kind = metric.rpartition(".")
    rec = funcs.get(base, {})
    if kind == "calls":
        return rec.get("calls", 0)
    if kind == "self_s":
        if rec:
            return rec["self_s"]
        prefix = base + "."     # a whole module
        return sum(r["self_s"] for name, r in funcs.items() if name.startswith(prefix))
    if kind == "found":
        return rec.get("found", 0)
    if kind == "hit_ratio":
        return rec["hits"] / rec["calls"] if rec.get("calls") else 0.0
    if kind == "exact_tests_per_call":
        tests = sum(n for a, b, n in trace["edges"] if a == base and b == "regularity.is_exact")
        return tests / rec["calls"] if rec.get("calls") else 0.0
    raise KeyError(metric)


def main(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    if not os.path.isfile(os.path.join(SRC, "qgrass", "__init__.py")):
        fail("no qgrass sources under ./src; run from the root of a qgrass checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "layers.json")) as fp:
        layers = json.load(fp)

    # a fixed name: CLI reports echo the corpus paths, and their digests are recorded
    run_dir = os.path.join(OUT, f"run-{args.workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return run(args, bench, layers, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, bench, layers, run_dir):
    w, seed = args.workload, args.seed
    if args.record:
        seed = 0
    gen_s = spawn(worker("gen", w, seed, run_dir), timeout=120)
    with open(os.path.join(run_dir, "specs.json")) as fp:
        input_digest = json.load(fp)["input_digest"]
    env = environment(seed, input_digest)
    print("ENV " + json.dumps(env, sort_keys=True))

    if args.record:
        spawn(worker("run", w, run_dir, "--record"))
        res = load_result(run_dir, "result.json")
        for line in res["failures"]:
            print("FAIL " + line)
        print(f"recorded {res['distinct_ops']} results to perfbench/expected/{w}.json")
        return 0 if not res["failures"] else 1

    if args.trace:
        return run_traced(args, bench, layers, run_dir, env)

    t = time.monotonic()
    setup_s, setup_walls = measure_setup(w)
    setup_steps_s = time.monotonic() - t
    run_s = spawn(worker("run", w, run_dir, "--seconds", args.seconds, "--min-ops", MIN_OPS))
    res = load_result(run_dir, "result.json")
    scale = res["host_scale"]
    wall_ms = [x * 1000.0 for x in res["latencies_s"]]
    lat_ms = [x * scale for x in wall_ms]
    deciles = statistics.quantiles(lat_ms, n=10)
    attempted, failed = res["ops"], res["failed_ops"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res["ops"] / (res["wall_s"] * scale), "ops/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    wall = {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": res["ops"] / res["wall_s"],
        "op_p50_ms": statistics.median(wall_ms),
        "op_p90_ms": statistics.quantiles(wall_ms, n=10)[8],
    }
    for line in res["failures"]:
        print("FAIL " + line)
    print(f"workload {w}: {attempted} operations ({res['distinct_ops']} distinct of {res['list_length']}) "
          f"in {res['wall_s']:.3f} s, closed loop, 1 client; {sum(1 for x in lat_ms if x > deciles[8])} "
          f"samples above p90; set-up runs {', '.join(f'{t:.4f}' for t in setup_walls)} s")
    print(f"steps: inputs {gen_s:.1f} s, {len(setup_walls)} set-ups {setup_steps_s:.1f} s, "
          f"run {run_s:.1f} s of which checks {res['check_s']:.1f} s; {time.monotonic() - T0:.1f} s in all")
    print(f"host speed: {res['host_samples']} reference chunks, scale {scale:.4f} "
          f"(times below are at nominal speed; wall-clock values in brackets)")
    for name, (value, unit) in metrics.items():
        raw = f"  [{wall[name]:.6f}]" if name in wall else ""
        print(f"{name:<14} {value:>14.6f} {unit}{raw}")
    wanted = [m["name"] for m in bench["end_to_end"]]
    out = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def run_traced(args, bench, layers, run_dir, env):
    w = args.workload
    sys.path[:0] = [HERE, SRC]
    import workloads

    prefix = workloads.WORKLOADS[w].TRACE_PREFIX
    spawn(worker("run", w, run_dir, "--prefix", prefix))
    plain = load_result(run_dir, "result.json")
    spawn(worker("run", w, run_dir, "--prefix", prefix, "--trace"))
    traced = load_result(run_dir, "result-trace.json")
    trace = traced["trace"]
    extra = {"src.lines": env["src_lines"], "trace.overhead": traced["wall_s"] / plain["wall_s"]}

    report = {"workload": w, "env": env, "prefix_ops": prefix,
              "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "metrics": {}, "trace": trace}
    print(f"traced run of {w}: first {prefix} operations, untraced {plain['wall_s']:.3f} s, "
          f"traced {traced['wall_s']:.3f} s (warm-up traced too)")
    for entry in layers["metrics"]:
        value = layer_value(entry["name"], trace, extra)
        report["metrics"][entry["name"]] = {"value": value, "unit": entry["unit"]}
        moves = "; ".join(f"{m['metric']} on {m['workload']}" for m in entry.get("moves", []))
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{entry['name']:<50} {shown} {entry['unit']:<6} -> {moves}")
    path = os.path.join(OUT, f"trace-{w}-seed{args.seed}.json")
    with open(path, "w") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
    print(f"trace report written to {os.path.relpath(path)}")

    failures = plain["failures"] + traced["failures"]
    for line in failures:
        print("FAIL " + line)
    attempted = plain["ops"] + traced["ops"]
    failed = plain["failed_ops"] + traced["failed_ops"]
    out = {m["name"]: report["metrics"][m["name"]] for m in bench["per_layer"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
