#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on this host.

    python3 benchmark/calibrate.py --out benchmark/calibration/<name>.json

Runs two sets of 10 runs of every workload under each of three seed
protocols, one run after another, workload by workload:

  seed1      seed 1 every run (the default seed): host noise alone;
  seed2      seed 2 every run (the held-out seed): host noise alone;
  seeds1-10  seeds 1..10, one per run: host noise plus what the seed changes,
             the way a comparison over several seeds sees it.

For each protocol, set, workload and end-to-end metric it reports the
median, the quartiles as statistics.quantiles(values, n=4) gives them, and
the spread (q3 - q1) / median. Across a protocol's two sets it reports how
far the second median moved from the first, in the metric's worse
direction. The uncorrected figures behind the host-corrected metrics
(sim_pps_wall, setup_wall_s, host.ref_ms) get the same summary. It records
nproc, the CPU model and the total wall time beside the raw values.

A bound in BENCHMARK.json should be at least three times the widest spread
of any protocol and above the widest worsening of a median, and never below
3%.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FULL = os.path.join(HERE, "out", "calibrate-run.json")
# What srv6bench reports beside the end-to-end metrics: the uncorrected
# rate and set-up time, and the host reference unit's median time.
UNCORRECTED = [{"name": "sim_pps_wall", "better": "higher"},
               {"name": "setup_wall_s", "better": "lower"},
               {"name": "host.ref_ms", "better": "lower"}]
RUNS = 10
SETS = 2
PROTOCOLS = {
    "seed1": [1] * RUNS,
    "seed2": [2] * RUNS,
    "seeds1-10": list(range(1, RUNS + 1)),
}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(workload, seed):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--trace", "0", "--out", FULL],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0 or not p.stdout.strip():
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, p.stderr))
    with open(FULL) as f:
        metrics = json.load(f)[workload]["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def measure(spec, seeds, t0):
    """Runs SETS sets of every workload at `seeds`; returns the summary."""
    metrics = spec["end_to_end"] + UNCORRECTED
    sets = []
    for s in range(SETS):
        raw = {}
        for w in spec["workloads"]:
            runs = [run(w["name"], seed) for seed in seeds]
            raw[w["name"]] = {m["name"]: [r[m["name"]] for r in runs]
                              for m in metrics}
            print("set %d %s done (%.0f s)" % (s + 1, w["name"],
                                                time.time() - t0),
                  file=sys.stderr, flush=True)
        sets.append(raw)
    workloads = {}
    for w in spec["workloads"]:
        per_metric = {}
        for m in metrics:
            stats = [summarize(raw[w["name"]][m["name"]]) for raw in sets]
            sign = 1 if m["better"] == "lower" else -1
            per_metric[m["name"]] = {
                "sets": [dict(st, values=raw[w["name"]][m["name"]])
                         for st, raw in zip(stats, sets)],
                "max_spread": max(st["spread"] for st in stats),
                "median_worsening": sign * (stats[1]["median"] -
                                            stats[0]["median"]) /
                                    stats[0]["median"],
            }
        workloads[w["name"]] = per_metric
    return {"seeds": seeds, "workloads": workloads}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    t0 = time.time()
    report = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
              "run_seconds": spec["run_seconds"], "runs_per_set": RUNS,
              "sets_per_protocol": SETS, "protocols": {}}
    for name, seeds in PROTOCOLS.items():
        print("protocol %s" % name, file=sys.stderr, flush=True)
        report["protocols"][name] = measure(spec, seeds, t0)
    report["total_wall_s"] = round(time.time() - t0, 1)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    for name, proto in report["protocols"].items():
        for w, per_metric in proto["workloads"].items():
            for metric, r in per_metric.items():
                print("%-9s %-11s %-13s spread %s  worsening %+.4f"
                      % (name, w, metric,
                         " ".join("%.4f" % st["spread"] for st in r["sets"]),
                         r["median_worsening"]))
    print("total wall time %.0f s" % report["total_wall_s"])


if __name__ == "__main__":
    main()
