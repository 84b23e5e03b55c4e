#!/usr/bin/env python3
"""Singular-point detection on three sets of inputs, one verdict per input.

    PYTHONPATH=src python3 benchmarks/detections.py [--json <file>]

The sets, each run through ``nodal.detect_singular``:

* ``large-k``: u_k at q in {1, 1.5, 1.75, 1.9, 1.95}, lambda_- in {1, 3} and
  k in {k_bar + 1, 2 k_bar + 5, 4 k_bar + 20}, exact and as its 513^2
  ``GridField`` sample, at n = 256 and 512 (120 inputs).  It passes with
  exactly one point within one pixel, 2 / (n - 1), of the vertex.
* ``multi-root``: Re prod (z - a)^m for three sets of roots, exact and as a
  513^2 sample, at n in {64, 96, 128, 192, 256, 512} (36 inputs).  It passes
  with exactly one point per root, each root within two pixels of a point.
* ``nodal-grids``: the detect inputs of the nodal-grids workload for numpy
  seeds 11-30, u_k and its 513^2 sample at q = 1 and 1.5, n = 256 (80
  inputs).  It passes with one point within 0.05 of the vertex.

Each line gives the verdict, the number of points and each point as
(x, y, branches).  ``--json`` writes every input with its points in full
(x, y, |u|, |grad u|, branches), so two runs can be compared bit for bit.
Standard library, numpy and nodallab only; not part of Tier-1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from nodallab.construct import construct_uk
from nodallab.fields import ClosedFormField, GridField
from nodallab.nodal import detect_singular
from nodallab.params import ProblemParams, k_bar

SAMPLE_N = 513
LARGE_K_QS = (1.0, 1.5, 1.75, 1.9, 1.95)
LARGE_K_LAMBDAS = (1.0, 3.0)
LARGE_K_NS = (256, 512)
# the three fields of tests/test_nodal.py: (root, order) pairs
ROOTS = (
    ((0.3, 2), (-0.4 + 0.2j, 3)),
    ((0.45, 4), (-0.3 - 0.3j, 3)),
    ((0.3, 2), (-0.4 + 0.2j, 2), (0.1 - 0.5j, 2)),
)
ROOT_NS = (64, 96, 128, 192, 256, 512)
GRID_SEEDS = range(11, 31)
GRID_QS = (1.0, 1.5)
GRID_N = 256


def roots_field(roots):
    """Re prod (z - a)^m over the (a, m) of ``roots``: a singular point of
    order m at each a (its gradient is not read by detection)."""
    def value(x, y):
        z = x + 1j * y
        return np.real(np.prod([(z - a) ** m for a, m in roots], axis=0))

    return ClosedFormField(value, lambda x, y: (0 * x, 0 * y))


def _fields(u):
    return (("exact", u), (f"{SAMPLE_N}^2", GridField.sample(u, SAMPLE_N)))


def large_k():
    for q in LARGE_K_QS:
        for lam in LARGE_K_LAMBDAS:
            p = ProblemParams(q=q, lambda_minus=lam)
            kb = k_bar(p)
            for k in (kb + 1, 2 * kb + 5, 4 * kb + 20):
                for source, f in _fields(construct_uk(p, k).to_field()):
                    for n in LARGE_K_NS:
                        name = f"q={q:g} lambda_-={lam:g} k={k} {source} n={n}"
                        yield name, f, n, [0j], 2.0 / (n - 1)


def multi_root():
    for roots in ROOTS:
        label = " ".join(f"({complex(a):g})^{m}" for a, m in roots)
        for source, f in _fields(roots_field(roots)):
            for n in ROOT_NS:
                yield f"{label} {source} n={n}", f, n, [a for a, _ in roots], 4.0 / (n - 1)


def nodal_grids():
    # the draws of perfbench/workloads.py's nodal_grids
    for seed in GRID_SEEDS:
        rng = np.random.default_rng(seed)
        for q in GRID_QS:
            p = ProblemParams(q=q, lambda_minus=float(rng.uniform(1.0, 4.0)))
            k = k_bar(p) + int(rng.integers(1, 4))
            for source, f in _fields(construct_uk(p, k).to_field()):
                yield f"seed={seed} q={q:g} k={k} {source} n={GRID_N}", f, GRID_N, [0j], 0.05


SETS = {"large-k": large_k, "multi-root": multi_root, "nodal-grids": nodal_grids}


def verdict(points, roots, tol):
    """True when there is one point per root and each root has a point
    within ``tol``."""
    return len(points) == len(roots) and all(
        min(abs(complex(x, y) - a) for x, y, *_ in points) <= tol for a in roots)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", default=None, help="write every input and its points here")
    args = ap.parse_args(argv)

    doc = {}
    for set_name, inputs in SETS.items():
        rows = []
        for name, f, n, roots, tol in inputs():
            points = detect_singular(f, n)
            ok = verdict(points, roots, tol)
            shown = " ".join(f"({x:+.3f}, {y:+.3f}, {b})" for x, y, _, _, b in points)
            print(f"{set_name} {name}: {'pass' if ok else 'FAIL'} {len(points)} {shown}")
            rows.append({"input": name, "pass": ok, "points": [list(p) for p in points]})
        failed = [r["input"] for r in rows if not r["pass"]]
        print(f"{set_name}: {len(rows) - len(failed)} of {len(rows)} pass, {len(failed)} fail")
        doc[set_name] = {"inputs": len(rows), "failed": failed, "rows": rows}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
