"""Child process of the benchmark: one fresh interpreter per task.

    worker.py gen    WORKLOAD SEED OUT_DIR      seeded specs -> OUT_DIR/specs.json
    worker.py setup  WORKLOAD                   import qgrass + fixed warm-ups, nothing else
    worker.py run    WORKLOAD OUT_DIR [options] warm up, run the operations, check them

`run` writes OUT_DIR/result[-trace].json.  Options: --seconds T and
--min-ops N run the operation list in a closed loop (cycling if it runs
out) until both are reached; --prefix P runs exactly the first P operations
once; --trace wraps the library first; --record runs every operation once
and writes the expected digests instead of checking against them.  A
host-speed reference chunk (hostspeed.py) is timed between operations; its
time is left out of `wall_s` and its scale is written as `host_scale`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
DEFAULT_SEED = 0


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout()


def cmd_gen(workload, seed, out_dir):
    w = workload()
    specs = w.generate(random.Random(f"{w.name}:{seed}"), out_dir)
    with open(os.path.join(out_dir, "specs.json"), "w") as fp:
        json.dump({"workload": w.name, "seed": seed, "input_digest": digest(specs), "specs": specs}, fp)


def cmd_setup(workload):
    workload().warm_up()


def cmd_run(workload, out_dir, opts):
    import hostspeed
    import tracer as tracing
    import workloads

    with open(os.path.join(out_dir, "specs.json")) as fp:
        bundle = json.load(fp)
    specs = bundle["specs"]
    if opts.prefix:
        specs = specs[: opts.prefix]
    w = workload()
    tr = None
    if opts.trace and w.name == "cli-corpus":
        # each CLI call traces itself (clirun.py) and leaves a file here
        w.trace_dir = os.path.join(out_dir, "trace-calls")
        os.makedirs(w.trace_dir, exist_ok=True)
    elif opts.trace:
        tr = tracing.Tracer()
        tr.install()
    w.warm_up()
    if tr:
        tr.enabled = False
    inputs = [w.materialize(s) for s in specs]
    if tr:
        tr.enabled = True

    in_process = w.name != "cli-corpus"
    if in_process:
        signal.signal(signal.SIGALRM, _alarm)
    latencies, raws, errors = [], {}, {}
    every_once = opts.prefix or opts.record
    speed = hostspeed.Sampler()
    before = speed.spent()
    i = 0
    t_begin = time.perf_counter()
    while True:
        j = i % len(inputs)
        t0 = time.perf_counter()
        try:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, workloads.IN_PROCESS_CAP_S)
            try:
                raw = w.execute(inputs[j])
            finally:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:   # any raise is a failed operation, reported below
            raw = None
            errors[i] = f"op {j} raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        raws.setdefault(j, []).append((i, raw))
        i += 1
        if every_once:
            if i == len(inputs):
                break
        elif t1 - t_begin >= opts.seconds and i >= opts.min_ops:
            break
        speed.tick()
    wall = time.perf_counter() - t_begin - (speed.spent() - before)
    if tr:
        tr.enabled = False
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    t_check = time.perf_counter()
    # correctness, outside timing: certificates for every distinct operation,
    # equal results on repeats, and digests recorded for the default seed
    expected = None
    exp_path = os.path.join(EXPECTED_DIR, f"{w.name}.json")
    if not opts.record and bundle["seed"] == DEFAULT_SEED and os.path.exists(exp_path):
        with open(exp_path) as fp:
            expected = json.load(fp)
        if expected["input_digest"] != bundle["input_digest"]:
            errors[-1] = "input digest differs from the recorded one for the default seed"
    digests = {}
    for j, runs in raws.items():
        first = None
        for run_index, raw in runs:
            if run_index in errors:
                continue
            try:
                canon = w.canonical(specs[j], inputs[j], raw)
                d = digest(canon)[:16]
                problems = w.check(specs[j], inputs[j], raw) if first is None else []
            except Exception as exc:   # a malformed result can break a check
                errors[run_index] = f"op {j}: checking raised {type(exc).__name__}: {exc}"
                continue
            if first is None:
                first = d
                digests[j] = d
                if expected is not None and expected["results"][j] != d:
                    problems.append(f"result differs from the recorded one: {json.dumps(canon)[:300]}")
                if problems:
                    errors[run_index] = f"op {j}: " + "; ".join(problems)
            elif d != first:
                errors[run_index] = f"op {j}: result differs between repeats"

    check_s = time.perf_counter() - t_check
    snapshot = None
    if tr:
        tr.uninstall()
        snapshot = tr.snapshot()
    elif opts.trace:
        parts = []
        for name in sorted(os.listdir(w.trace_dir)):
            with open(os.path.join(w.trace_dir, name)) as fp:
                parts.append(json.load(fp))
        snapshot = tracing.merge(parts)

    if opts.record:
        with open(exp_path, "w") as fp:
            json.dump({"seed": bundle["seed"], "input_digest": bundle["input_digest"],
                       "results": [digests.get(j) for j in range(len(specs))]}, fp, indent=0)
            fp.write("\n")

    result = {
        "input_digest": bundle["input_digest"],
        "ops": len(latencies),
        "distinct_ops": len(raws),
        "list_length": len(specs),
        "wall_s": wall,
        "latencies_s": latencies,
        "host_scale": speed.scale(),
        "host_samples": len(speed.samples),
        "peak_rss_kb": peak_rss_kb,
        "failures": [errors[k] for k in sorted(errors)],
        "failed_ops": min(len(errors), len(latencies)),
        "check_s": check_s,
        "trace": snapshot,
    }
    name = "result-trace.json" if opts.trace else "result.json"
    with open(os.path.join(out_dir, name), "w") as fp:
        json.dump(result, fp)


def main(argv):
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("task", choices=["gen", "setup", "run"])
    p.add_argument("workload")
    p.add_argument("rest", nargs="*")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-ops", type=int, default=100)
    p.add_argument("--prefix", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--record", action="store_true")
    opts = p.parse_args(argv)
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[opts.workload]
    if opts.task == "gen":
        cmd_gen(workload, int(opts.rest[0]), opts.rest[1])
    elif opts.task == "setup":
        cmd_setup(workload)
    else:
        cmd_run(workload, opts.rest[0], opts)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
