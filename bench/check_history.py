#!/usr/bin/env python3
"""Check bench JSONs against the regression floors in bench/history/baseline.json.

Usage: check_history.py [--strict] [--baseline PATH] JSON...

Each JSON argument is matched to a baseline entry by its basename (CI
names all nine: BENCH_vm.json, BENCH_burst.json, BENCH_mc.json,
BENCH_lpm.json, BENCH_hotpath.json, BENCH_filter.json, BENCH_slo.json,
BENCH_pdes.json, BENCH_chaos.json). A named file that does not exist fails
the check: a bench that could not write its JSON must not pass unchecked.
Metric names may be dotted paths into nested objects (e.g.
"fig2_fib48.sim_kpps").

Exit status is non-zero when a named JSON is missing, when any
*simulated*-time floor (deterministic on every host) is violated, or — with
--strict — when any wall-clock floor is.
Wall-clock violations without --strict only warn: CI smoke runs use --quick
measurement windows on shared runners, where wall-based ratios are noise.
(BENCH_lpm.json's speedup_fib48 is additionally self-gated by the
bench_lpm_sweep binary itself, which exits non-zero below its floor.)
"""
import argparse
import json
import os
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def warn(msg):
    print(f"WARN: {msg}")
    return 0


def get_metric(data, metric):
    """Resolves 'a.b.c' through nested dicts; None when any step is absent."""
    node = data
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_floor(data, name, metric, floor, on_violation):
    value = get_metric(data, metric)
    if value is None:
        return fail(f"{name}: metric '{metric}' missing")
    if value < floor:
        return on_violation(f"{name}: {metric} = {value} below floor {floor}")
    print(f"ok:   {name}: {metric} = {value} (floor {floor})")
    return 0


def check_ceiling(data, name, metric, ceiling, on_violation):
    """Upper bounds for metrics where bigger is worse (latency percentiles,
    blackhole durations)."""
    value = get_metric(data, metric)
    if value is None:
        return fail(f"{name}: metric '{metric}' missing")
    if value > ceiling:
        return on_violation(
            f"{name}: {metric} = {value} above ceiling {ceiling}")
    print(f"ok:   {name}: {metric} = {value} (ceiling {ceiling})")
    return 0


def check_burst_invariance(data, name, limit):
    rates = [row["sim_kpps"] for row in data.get("rows", [])]
    if len(rates) < 2 or min(rates) <= 0:
        return fail(f"{name}: no usable rows for sim_kpps invariance")
    ratio = max(rates) / min(rates)
    if ratio > limit:
        return fail(f"{name}: sim_kpps varies across bursts "
                    f"(max/min = {ratio:.4f} > {limit}) — the datapath is "
                    f"no longer burst-invariant")
    print(f"ok:   {name}: sim_kpps burst-invariant (max/min = {ratio:.4f})")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--strict", action="store_true",
                    help="wall-clock floors fail instead of warning")
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(__file__),
                                         "history", "baseline.json"))
    ap.add_argument("jsons", nargs="+")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)

    rc = 0
    for path in args.jsons:
        name = os.path.basename(path)
        if not os.path.exists(path):
            rc |= fail(f"{path} not found")
            continue
        with open(path) as f:
            data = json.load(f)
        sim_floors = base.get("sim", {}).get(name, {})
        sim_evaluated = 0
        for metric, floor in sim_floors.items():
            if get_metric(data, metric) is not None:
                # smoke runs may omit e.g. the 4-cpu row
                rc |= check_floor(data, name, metric, floor, fail)
                sim_evaluated += 1
        sim_ceilings = base.get("sim_ceilings", {}).get(name, {})
        for metric, ceiling in sim_ceilings.items():
            if get_metric(data, metric) is not None:
                rc |= check_ceiling(data, name, metric, ceiling, fail)
                sim_evaluated += 1
        # A present file with sim floors/ceilings must have evaluated at
        # least one of them — otherwise a renamed/dropped metric would
        # silently disable the deterministic gate this script exists to
        # enforce.
        if (sim_floors or sim_ceilings) and sim_evaluated == 0:
            rc |= fail(f"{name}: none of the sim metrics "
                       f"{sorted(sim_floors) + sorted(sim_ceilings)} are "
                       f"present — the deterministic bounds were not "
                       f"evaluated")
        for metric, floor in base.get("wall", {}).get(name, {}).items():
            rc |= check_floor(data, name, metric, floor,
                              fail if args.strict else warn)
        inv = base.get("sim_invariants", {}).get(name, {})
        if "rows_sim_kpps_max_over_min" in inv:
            rc |= check_burst_invariance(data, name,
                                         inv["rows_sim_kpps_max_over_min"])
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
