#!/usr/bin/env python3
"""Paired perfbench runs of a parent tree and a change tree.

    python3 benchmarks/pairs.py --parent <tree> --change <tree> --pr <n> \\
        --seeds 11-20

For each workload and seed it runs ``perfbench/run.py`` once in each tree,
one after the other, and alternates which tree goes first from seed to seed,
so that a slow phase of the machine does not always land on the same side.
Each tree runs its own ``perfbench/run.py`` against its own ``src/``.  The
output file gets, per workload and metric, the value of every run, the
medians, the parent's quartiles, the number of pairs the change wins and the
median gain in the metric's better direction.  Next to the calibrated
metrics it summarises ``raw_wall_s``, read from each run's
``perfbench/out`` file: the median over the passes of the measured seconds,
before the speed calibration, of the untraced ops (the calibration rescales
every latency by the box's speed at the time, so it can turn a gain measured
in raw seconds into a loss, or back).  The run length, the workloads
and each metric's better direction come from the change tree's
``BENCHMARK.json``.  The results go under one key of the output file
(``end_to_end``, or ``traced`` for ``--trace 1``); other keys of an existing
file are kept.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """'11-20' or '11,12,15' to a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(parent, change, better):
    """Summary of one metric over paired runs.

    ``parent`` and ``change`` are the values of the same seeds in the same
    order; ``better`` is "lower" or "higher".  A pair is a win when the change
    is strictly better.  ``median_gain`` is the gap between the medians,
    positive when the change is better; ``parent_iqr`` is the distance
    between the parent's quartiles.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    if len(parent) == 1:
        q1 = q3 = parent[0]
    else:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "median_gain": sign * (parent_median - change_median),
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "better": better,
    }


def raw_pass_wall(doc):
    """The median over the passes of a perfbench out file ``doc`` of the
    per-pass sum of ``raw_latency_s`` over its untraced op records."""
    walls = {}
    for r in doc["ops"]:
        if not r["traced"]:
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["raw_latency_s"]
    return statistics.median(walls.values())


def _describe(tree):
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: (result line, its out file)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(out) as fh:
        return result, json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout with the change")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload of BENCHMARK.json)")
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="default: BENCH_<pr>.json in the change tree")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    better["raw_wall_s"] = "lower"
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}

    section = {"command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                          f"--seconds {seconds} --trace {args.trace}",
               "order": "per seed one run in each tree; even seeds parent first, "
                        "odd seeds change first",
               "seeds": seeds, "commits": {s: _describe(t) for s, t in trees.items()}}
    environment = None
    for workload in workloads:
        runs, values = [], {side: [] for side in SIDES}
        for seed in seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                result, doc = run_once(trees[side], workload, seed, seconds, args.trace)
                environment = doc["environment"]
                run[side] = {k: result[k] for k in ("correct", "failed", "attempted")}
                values[side].append({**{k: v["value"] for k, v in result["metrics"].items()},
                                     "raw_wall_s": raw_pass_wall(doc)})
                print(f"{workload} seed {seed} {side}: correct={result['correct']}",
                      file=sys.stderr)
            runs.append(run)
        section[workload] = {
            "runs": runs,
            "metrics": {m: summarize([v[m] for v in values["parent"]],
                                     [v[m] for v in values["change"]], better[m])
                        for m in values["parent"][0] if m in better},
        }
    if environment is not None:
        section["hardware"] = {k: environment[k] for k in
                               ("nproc", "cpu_model", "python", "numpy", "scipy")}

    path = args.out or os.path.join(args.change, f"BENCH_{args.pr}.json")
    doc = {"pr": args.pr}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["end_to_end" if args.trace == 0 else "traced"] = section
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
