#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the output digests run.py checks against.

    python3 perfbench/pin.py [paper_quick] [rank_scale]

Run it from the checkout root only after a deliberate change to what the
simulator computes, and review the diff of pins.json with that change: a
pin that moves under a change meant to be output-neutral is a bug.
"""

import json
import os
import sys

import run

# perfbench_runner's paper_quick takes the seed modulo this many variants.
PAPER_VARIANTS = 16


def main():
    workloads = sys.argv[1:] or ["paper_quick", "rank_scale"]
    run.build()
    pins = run.load_pins()
    if "paper_quick" in workloads:
        pins["paper_quick"] = {}
        for variant in range(PAPER_VARIANTS):
            out = run.runner("paper_quick", seed=variant, passes=1, trace=0)
            pins["paper_quick"][str(variant)] = out["passes"][0]["digests"]
            print("paper_quick variant %d pinned" % variant, flush=True)
    if "rank_scale" in workloads:
        pins["rank_scale"] = rank_scale_pins()
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def rank_scale_pins():
    pins = {}
    out = run.runner("rank_scale", seed=0, seconds=1, trace=0)
    for leg in out["timed"]["legs"]:
        hashes = {b["hash"] for b in leg["blocks"] if not b["error"]}
        if len(hashes) != 1 or len(leg["blocks"]) != sum(
                1 for b in leg["blocks"] if not b["error"]):
            raise SystemExit("rank_scale leg %s is not deterministic: %s"
                             % (leg["name"], sorted(hashes)))
        pins[leg["name"]] = hashes.pop()
    return pins


if __name__ == "__main__":
    main()
