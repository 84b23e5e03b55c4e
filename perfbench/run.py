#!/usr/bin/env python3
"""nodallab benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload construct-family --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed, runs a fixed number of passes over
its ops back to back, checks every op's output, writes the seed, the inputs,
every op record and the metrics to perfbench/out/, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
passes with every op both untraced and traced, and reports the per-layer
metrics and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# wall time of one pass on the reference box (2-core Xeon, see README.md); the
# pass count is fixed from --seconds with these, so both sides of a comparison
# run the same ops and the same number of samples
NOMINAL_PASS_S = {"construct-family": 8.5, "weiss-ladder": 14.0, "nodal-grids": 6.3}
SETUP_REPEATS = 3
# no new pass starts after this many seconds, to stay inside the 180 s limit
PASS_DEADLINE_S = 130.0
# a failed op counts as +inf latency; JSON has no infinity, so it is written as this
FAILED_LATENCY_S = 1e9
TAIL_BEYOND = 10
# one calibration loop on the reference box when it runs at full speed
CAL_REF_S = 0.030


def _parse_args(workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _calibrate(small, large):
    """Time a fixed mix of interpreter work and of ufuncs on small and large
    arrays, the three kinds of work nodallab's ops do."""
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    for i in range(50000):
        s += (i % 7) * 0.5
    for x in (small,) * 20 + (large,):
        np.sum(np.sin(x) * np.arctan2(x, x + 1.0))
    return time.perf_counter() - t0


class Clock:
    """Converts measured seconds to seconds at the reference machine speed.

    The box's speed drifts by up to 2x over tens of seconds (other tenants),
    which no number of samples in a 25 s run averages out.  A calibration
    loop runs after every timed interval, and the interval is scaled by
    CAL_REF_S over the mean of the calibrations on either side of it.
    """

    def __init__(self):
        import numpy as np

        self.arrays = np.linspace(0.1, 3.0, 20000), np.linspace(0.1, 3.0, 500000)
        self.last = _calibrate(*self.arrays)

    def scale(self, seconds):
        now = _calibrate(*self.arrays)
        speed = CAL_REF_S / (0.5 * (self.last + now))
        self.last = now
        return seconds * speed, speed


def _run_op(op, index, clock, tracer=None):
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result, reason = op.call(), None
    except Exception as exc:  # a raising op is a failed op; the run goes on
        result, reason = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    scaled, speed = clock.scale(latency)
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # unreadable output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
    return {"pass": index, "op": op.name, "latency_s": scaled, "raw_latency_s": latency,
            "speed": speed, "ok": reason is None, "reason": reason,
            "known_failure": op.known_failure, "traced": tracer is not None}


def _run_pass(ops, index, clock, tracer=None):
    """One pass over the ops.  With a tracer every op runs twice, untraced and
    traced, in an order that alternates from op to op so that neither side
    collects the first-call costs."""
    records = []
    for i, op in enumerate(ops):
        if tracer is None:
            records.append(_run_op(op, index, clock))
            continue
        for traced in ((False, True) if (i + index) % 2 == 0 else (True, False)):
            records.append(_run_op(op, index, clock, tracer if traced else None))
    return records, sum(r["latency_s"] for r in records)


def _run_passes(ops, count, first, t_start, clock, tracer=None):
    records, walls = [], []
    for i in range(first, first + count):
        if walls and time.perf_counter() - t_start > PASS_DEADLINE_S:
            break
        recs, wall = _run_pass(ops, i, clock, tracer)
        records += recs
        walls.append(wall)
    return records, walls


def _latency_stats(records):
    lat = sorted(r["latency_s"] if r["ok"] else math.inf for r in records)
    n = len(lat)
    # The median is the mean of the middle fifth of the sorted latencies.  On
    # weiss-ladder half the ops are cheap monomial calls, so the plain sample
    # median would be the midpoint between two single extreme samples.
    m = max(1, round(n / 5))
    m += (n - m) % 2  # centre the window
    middle = lat[(n - m) // 2:(n - m) // 2 + m]
    i = max(0, n - 1 - TAIL_BEYOND)
    return {"p50": sum(middle) / len(middle), "tail": lat[i],
            "tail_percentile": 100.0 * (i + 1) / n, "samples": n}


def _json_number(x):
    return x if math.isfinite(x) else FAILED_LATENCY_S


def main():
    t_start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    try:
        from nodallab import cli
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"error: cannot import nodallab from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: nodallab resolved to {cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    args = _parse_args(workloads.WORKLOADS)
    setup = workloads.WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        clock = Clock()
        import_s = clock.scale(import_s)[0]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs, ops = setup(args.seed, workdir)
            builds.append(clock.scale(time.perf_counter() - t0)[0])
        setup_s = import_s + statistics.median(builds)

        passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                records, walls = _run_passes(ops, max(1, passes // 2), 0, t_start, clock, tracer)
            finally:
                tracer.uninstall()
        else:
            records, walls = _run_passes(ops, passes, 0, t_start, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    unexpected = [r for r in records if not r["ok"] and not r["known_failure"]]
    problems = [f"{r['op']}: {r['reason']}" for r in unexpected]
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "inputs": inputs, "environment": _environment(),
           "setup_builds_s": builds, "import_s": import_s}

    if args.trace:
        # span times are not rescaled, so the overhead compares measured seconds
        plain_s = sum(r["raw_latency_s"] for r in records if not r["traced"])
        traced_s = sum(r["raw_latency_s"] for r in records if r["traced"])
        problems += tracer.check_arc_counts()
        metrics = tracer.metrics(traced_s, plain_s)
        doc["passes"] = {"traced": len(walls)}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        passed = attempted - failed
        stats = _latency_stats(records)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "ops_per_s": (passed / sum(walls), "1/s"),
            "op_p50_s": (_json_number(stats["p50"]), "s"),
            "op_tail_s": (_json_number(stats["tail"]), "s"),
            "pass_frac": (passed / attempted, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        doc["passes"] = {"untraced": len(walls), "pass_walls_s": walls}
        doc["tail"] = {"percentile": stats["tail_percentile"], "samples": stats["samples"]}

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    doc.update(ops=records, problems=problems, result=result)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)

    for r in records:
        if not r["ok"]:
            tag = "known" if r["known_failure"] else "UNEXPECTED"
            print(f"[{tag} failure] pass {r['pass']} {r['op']}: {r['reason']}")
    for p in problems:
        print(f"[problem] {p}")
    if "tail" in doc:
        print(f"op_tail_s is p{doc['tail']['percentile']:.1f} of {doc['tail']['samples']} ops")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
