#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of one build agree?

    python3 perfbench/selfcheck.py [--runs 5] [--base-seed 9000]

Run from the checkout root. Set A runs every workload --runs times with
seeds base, base+1, ...; set B runs it as many times again with the next
seeds, in the reverse workload order, so drift in the machine does not land
on one workload only. Every run is listed. For each workload and metric it
prints the median, quartiles, min and max of each set, the spread of all
runs (interquartile distance over median), and whether the sets agree:
set B's median no worse than set A's by more than the bound, and the spread
within the bound (set-up time is exempt from the spread test).

Bounds come from BENCHMARK.json's end_to_end list; the workload-specific
figures that BENCHMARK.json cannot carry (every workload must report every
end_to_end metric there) take the bounds in EXTRA below. Exits 1 unless
every metric agrees and no operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name: (better, bound) for figures reported by one workload only. Serve
# latencies are client-observed and not host-scaled. On the 4-vCPU
# development VM p99 is set by UnixBench misses and the requests queued
# behind them on the three in-order connections, so only changes beyond 50%
# are resolved. p50 lies in the shoulder of the hit latencies, which moves
# with the host's wake-up latency and with head-of-line waits; it can
# spread past even this bound (NOTES.md, finding (d)).
EXTRA = {
    "actions_per_s_4k": ("higher", 0.25),
    "actions_per_s_64k": ("higher", 0.25),
    "p50_ms": ("lower", 0.5),
    "p99_ms": ("lower", 0.5),
    "goodput_rps": ("higher", 0.1),
    "repro_err_pp": ("lower", 0.25),
}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600)
    path = os.path.join(ROOT, ".bench_build", "runs",
                        "result-%s-%d-0.json" % (workload, seed))
    with open(path) as f:
        result = json.load(f)
    result["exit"] = done.returncode
    return result


def worse_by(better, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    change = (other - base) / base
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--base-seed", type=int, default=9000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(EXTRA)

    results = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    print("runs (seconds=%d):" % seconds)
    for set_name, order, seed0 in (("A", workloads, args.base_seed),
                                   ("B", workloads[::-1],
                                    args.base_seed + args.runs)):
        for i in range(args.runs):
            rotated = order[i % len(order):] + order[:i % len(order)]
            for w in rotated:
                r = run_once(w, seed0 + i, seconds)
                results[set_name][w].append(r)
                print("  set %s %-12s seed %-6d exit %d attempted %-5d failed %d  %s"
                      % (set_name, w, seed0 + i, r["exit"], r["attempted"],
                         r["failed"], " ".join(
                             "%s=%.6g" % (k, v["value"])
                             for k, v in r["metrics"].items())), flush=True)

    ok = True
    summary = {}
    print("\n%-12s %-18s %-6s %38s %38s %7s %7s %6s %s" % (
        "workload", "metric", "bound", "set A median [q1 q3] min max",
        "set B median [q1 q3] min max", "spread", "B worse", "n", "verdict"))
    for w in workloads:
        runs = results["A"][w] + results["B"][w]
        if any(r["failed"] or r["exit"] for r in runs):
            ok = False
            print("%-12s FAILED operations or non-zero exit in some run" % w)
        for name in runs[0]["metrics"]:
            if name not in bounds:
                continue
            better, bound = bounds[name]
            a = [r["metrics"][name]["value"] for r in results["A"][w]]
            b = [r["metrics"][name]["value"] for r in results["B"][w]]
            both = a + b
            spread = benchlib.spread(both)
            drift = worse_by(better, statistics.median(a), statistics.median(b))
            agree = drift <= bound and (name == "setup_s" or spread <= bound)
            ok = ok and agree

            def describe(v):
                q1, _, q3 = statistics.quantiles(v, n=4)
                return "%.4g [%.4g %.4g] %.4g %.4g" % (
                    statistics.median(v), q1, q3, min(v), max(v))
            print("%-12s %-18s %-6.3g %38s %38s %7.3f %7.3f %6d %s" % (
                w, name, bound, describe(a), describe(b), spread, drift,
                len(both), "agree" if agree else "DISAGREE"))
            summary.setdefault(w, {})[name] = {
                "set_a": a, "set_b": b, "spread": spread,
                "b_worse_by": drift, "bound": bound, "agree": agree}
    out = os.path.join(ROOT, ".bench_build", "runs",
                       "selfcheck-%d.json" % args.base_seed)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\n%s (details in %s)" % ("ALL AGREE" if ok else "NOT STEADY",
                                    os.path.relpath(out, ROOT)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
