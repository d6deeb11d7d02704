#!/usr/bin/env python3
"""Repository benchmark: builds srv6bench and runs its workloads.

    python3 benchmark/run.py --seed 1                   # all workloads
    python3 benchmark/run.py --seed 1 --trace           # traced runs
    python3 benchmark/run.py --workload endbpf_tag --seed 2 --seconds 10 \\
        --trace 0 --out results.json

Builds the library and the runner from source into build-bench/ (cmake),
then runs each workload in its own process, one after another. Every run
checks its outputs (conservation ledger, digests, workload pins); a traced
run also validates the trace files it wrote under benchmark/out/.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. attempted and failed count correctness checks. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1
its per_layer metrics; when several workloads run, each metric name is
prefixed with "<workload>.".
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "srv6bench")
OUT_DIR = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds srv6bench; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return False
    return True


def check_trace(workload, per_layer, metrics):
    """Validates one traced run's files; returns a list of problems."""
    problems = []
    base = os.path.join(OUT_DIR, workload)
    try:
        with open(base + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        with open(base + ".layers.json") as f:
            json.load(f)
    except (OSError, ValueError, KeyError) as e:
        return ["trace files of %s do not load: %s" % (workload, e)]
    spans = {e["args"]["id"]: e["args"] for e in events}
    names = {e["name"] for e in events}
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            problems.append("span %d ends before it starts" % s["id"])
        parent = spans.get(s["parent"])
        if s["parent"] >= 0 and (
                parent is None or s["start_ns"] < parent["start_ns"]
                or s["end_ns"] > parent["end_ns"]):
            problems.append("span %d lies outside its parent" % s["id"])
    for want in ("run", "setup", "window", "slice", "replay.net",
                 "replay.seg6", "replay.sim"):
        if want not in names:
            problems.append("no %s span in %s trace" % (want, workload))
    for name in per_layer:
        if name not in metrics:
            problems.append("%s: per-layer metric %s missing" % (workload, name))
    return problems


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict or None, problems)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out-dir", OUT_DIR]
    if trace:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ["%s timed out after %d s" % (workload, RUN_TIMEOUT_S)]
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, ["%s exited with %d" % (workload, p.returncode)]
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    for m in wanted:
        v = result["metrics"].get(m["name"])
        if v is None or not math.isfinite(v["value"]) or v["unit"] != m["unit"]:
            problems.append("%s: metric %s missing or malformed"
                            % (workload, m["name"]))
    if trace:
        problems += check_trace(workload, [m["name"] for m in wanted],
                                result["metrics"])
    return result, problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", help="also write every run's full result here")
    args = ap.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    workloads = [args.workload] if args.workload else names
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = failed = 0
    metrics, full = {}, {}
    for w in workloads:
        result, problems = run_workload(spec, w, args.seed, args.seconds,
                                        args.trace)
        if result is None:
            for p in problems:
                log("error:", p)
            return 1
        full[w] = result
        checks = result["checks"]
        attempted += len(checks) + len(problems)
        bad = [c for c in checks if not c["ok"]]
        failed += len(bad) + len(problems)
        for c in bad:
            log("FAILED %s/%s: %s" % (w, c["name"], c["detail"]))
        for p in problems:
            log("FAILED", p)
        log("%s (seed %d): failed_frac = %d/%d"
            % (w, args.seed, len(bad) + len(problems),
               len(checks) + len(problems)))
        if problems:
            continue
        for m in wanted:
            v = result["metrics"][m["name"]]
            key = m["name"] if args.workload else w + "." + m["name"]
            metrics[key] = {"value": v["value"], "unit": v["unit"]}
            log("  %-34s %16.6g %s" % (m["name"], v["value"], v["unit"]))
        if args.trace:
            for k in ("trace.coverage", "trace.overhead"):
                log("  %s = %.4f" % (k, result["metrics"][k]["value"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(full, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
