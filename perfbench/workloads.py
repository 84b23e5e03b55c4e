"""The benchmark's three workloads: seeded inputs, set-up and the ops of one pass.

Each workload function takes the seed and a scratch directory and returns
``(inputs, ops)``.  ``inputs`` records every generated input, so a second seed
can confirm a later claim.  An op is one CLI command or one public library
call; its check applies the acceptance suite's tolerance to the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nodallab import cli, construct, fields, functionals, nodal, orders
from nodallab.params import ProblemParams, gamma_q, k_bar

ORIGIN = (0.0, 0.0)

CONSTRUCT_QS = (1.0, 1.25, 1.5, 1.75)
FAMILY_QS = (1.0, 1.5)
LAMBDA_MINUS_RANGE = (1.0, 4.0)

# weiss-ladder radius ladders, kept short so that two passes fit in a 25 s run
LINEAR_LADDER = np.linspace(0.1, 1.0, 4)
DERIVATIVE_LADDER = np.array([0.6])
GEOMETRIC_LADDER = np.geomspace(0.02, 0.8, 6)
DYADIC_LADDER = 0.5 * 2.0 ** -np.arange(8.0)[::-1]

GRID_SAMPLE_N = 513
EXTRACT_NS = (256, 512)
DETECT_N = 256


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    # returns None when the output is within tolerance, else the failure reason
    check: Callable[[object], str | None]
    # a failure documented as known at the benchmark's baseline (README.md)
    known_failure: bool = False


def _draw_uk(rng, q):
    """Seeded lambda_minus in [1, 4] and k in {k_bar+1 .. k_bar+3}."""
    p = ProblemParams(q=q, lambda_minus=float(rng.uniform(*LAMBDA_MINUS_RANGE)))
    return p, k_bar(p) + int(rng.integers(1, 4))


def _uk_record(p, k):
    return {"q": p.q, "lambda_minus": p.lambda_minus, "k": k}


# ------------------------------------------------------------ construct-family

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _exit_reason(rc, err):
    lines = err.strip().splitlines()
    return f"exit {rc}: {lines[-1] if lines else 'no message'}"


def _construct_op(p, k, outdir):
    argv = ["construct", "--q", repr(p.q), "--lambda-minus", repr(p.lambda_minus),
            "--k", str(k), "--out", outdir]

    def check(res):
        rc, err = res
        try:
            if rc != 0:
                return _exit_reason(rc, err)
            with open(os.path.join(outdir, "result.json")) as fh:
                doc = json.load(fh)
            with open(os.path.join(outdir, "summary.txt")) as fh:
                nq = float(re.search(r"N_q\(u_k, 0, 1\) = (\S+)", fh.read()).group(1))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        g = gamma_q(p)
        drift_tol = 1e-6 if p.q == 1.0 else 1e-4
        if doc["zero_count"] != 2 * k:
            return f"zero count {doc['zero_count']} != 2k = {2 * k}"
        if not doc["psi_residual"] < 1e-6:
            return f"psi_residual {doc['psi_residual']:.2e} >= 1e-6"
        if not doc["energy_drift"] < drift_tol:
            return f"energy drift {doc['energy_drift']:.2e} >= {drift_tol:g}"
        if not abs(nq - g) < 1e-3 * g:
            return f"|N_q - gamma_q| = {abs(nq - g):.2e} >= 1e-3 gamma_q"
        return None

    return Op(f"construct q={p.q} lambda_minus={p.lambda_minus:.4f} k={k}",
              lambda: _run_cli(argv), check, known_failure=p.q == 1.75)


def _verify_op(seed, outdir):
    argv = ["verify", "--suite", "hamiltonian", "--seed", str(seed), "--out", outdir]

    def check(res):
        rc, err = res
        try:
            if rc != 0:
                return _exit_reason(rc, err)
            with open(os.path.join(outdir, "verify.json")) as fh:
                doc = json.load(fh)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        bad = [c["name"] for c in doc["checks"] if not c["pass"]]
        return f"failed checks: {bad}" if bad else None

    return Op(f"verify hamiltonian seed={seed}", lambda: _run_cli(argv), check)


def construct_family(seed, workdir):
    """In-process `nodallab construct` for two draws per q, then one verify."""
    rng = np.random.default_rng(seed)
    draws = [_draw_uk(rng, q) for q in CONSTRUCT_QS for _ in range(2)]
    ops = [_construct_op(p, k, os.path.join(workdir, f"construct{i}"))
           for i, (p, k) in enumerate(draws)]
    ops.append(_verify_op(seed, os.path.join(workdir, "verify")))
    inputs = {"constructs": [_uk_record(p, k) for p, k in draws],
              "verify": {"suite": "hamiltonian", "seed": seed}}
    return inputs, ops


# ---------------------------------------------------------------- weiss-ladder

def _monotonicity_op(name, f, gamma, constancy):
    def check(scan):
        if scan["verdict"] != "monotone":
            return f"W drops by {scan['drop']:.2e} at r={scan['radius']}"
        if constancy:
            w = np.asarray(scan["values"])
            spread = (w.max() - w.min()) / abs(w.mean())
            if not spread < 1e-4:
                return f"W not radius-constant at gamma_q: spread {spread:.2e}"
            if not w.mean() < 0:
                return f"W constant {w.mean():.3e} not negative"
        return None

    return Op(f"{name} monotonicity_scan gamma={gamma:g}",
              lambda: functionals.monotonicity_scan(f, ORIGIN, gamma, LINEAR_LADDER), check)


def _field_ladder_ops(name, f, order, homogeneous):
    """Criteria 04-07 on one field: Weiss monotonicity and constancy,
    derivative identities, transition exponent and order estimate."""
    g = gamma_q(f.params)
    tol = 1e-3 if homogeneous else 1e-6
    gammas = np.arange(order - 0.5, order + 0.5001, 0.05)

    def check_identities(rep):
        worst = max(rep["H_prime_max_residual"], rep["W_prime_max_residual"])
        return None if worst < tol else f"identity residual {worst:.2e} >= {tol:g}"

    def check_transition(est):
        gap = abs(est - order)
        return None if gap <= 0.05 + 1e-12 else f"transition exponent off by {gap:.3f}"

    def check_order(est):
        if est.snapped != order:
            return f"snapped to {est.snapped}, want {order:g}"
        if not abs(est.raw_slope - order) < 0.05:
            return f"raw slope {est.raw_slope:.4f} off by >= 0.05"
        if not est.nondegeneracy_ratio > 0:
            return f"nondegeneracy ratio {est.nondegeneracy_ratio}"
        return None

    return [
        _monotonicity_op(name, f, g, constancy=homogeneous),
        _monotonicity_op(name, f, g + 0.5, constancy=False),
        Op(f"{name} check_derivative_identities",
           lambda: functionals.check_derivative_identities(
               f, ORIGIN, DERIVATIVE_LADDER, g, 2.0), check_identities),
        Op(f"{name} transition_exponent",
           lambda: functionals.transition_exponent(f, ORIGIN, gammas, GEOMETRIC_LADDER),
           check_transition),
        Op(f"{name} estimate_order",
           lambda: orders.estimate_order(f, ORIGIN, DYADIC_LADDER), check_order),
    ]


def weiss_ladder(seed, workdir):
    """Monitor traces over radius ladders on two u_k and two harmonic monomials."""
    rng = np.random.default_rng(seed)
    ops, records = [], []
    for q in FAMILY_QS:
        p, k = _draw_uk(rng, q)
        u = construct.construct_uk(p, k).to_field()
        ops += _field_ladder_ops(f"u_k q={q} k={k}", u, gamma_q(p), homogeneous=True)
        records.append(_uk_record(p, k))
    # a monomial of degree d is admissible as an order once d <= beta_q
    for d, q in ((2, 1.0), (3, 1.5)):
        f = fields.monomial_field(d)
        f.params = ProblemParams(q=q, mu=0.0)
        ops += _field_ladder_ops(f"monomial d={d}", f, float(d), homogeneous=False)
        records.append({"monomial_degree": d, "q": q, "mu": 0.0})
    inputs = {"fields": records,
              "ladders": {"linear": LINEAR_LADDER.tolist(),
                          "derivative": DERIVATIVE_LADDER.tolist(),
                          "geometric": GEOMETRIC_LADDER.tolist(),
                          "dyadic": DYADIC_LADDER.tolist()}}
    return inputs, ops


# ----------------------------------------------------------------- nodal-grids

def _check_segments(ns):
    pts = np.asarray(ns.segments, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return "no nodal segments"
    rmax = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    return None if rmax <= 1.0 + 1e-9 else f"segment endpoint at radius {rmax:.6f} > 1"


def _nodal_ops(name, f, k, known_singular_failure):
    kept = {}

    def extract(n):
        kept[n] = None  # nodal_length fails when this pass's extraction did
        kept[n] = nodal.extract_nodal_set(f, n)
        return kept[n]

    def check_length(length):
        return None if abs(length - k) < 0.05 * k else f"nodal length {length:.4f} vs k={k}"

    def check_singular(reps):
        if len(reps) != 1:
            return f"{len(reps)} singular clusters, want 1"
        dist = float(np.hypot(reps[0][0], reps[0][1]))
        return None if dist < 0.05 else f"singular point at distance {dist:.3f} from the origin"

    ops = [Op(f"{name} extract_nodal_set n={n}", lambda n=n: extract(n), _check_segments)
           for n in EXTRACT_NS]
    ops.append(Op(f"{name} nodal_length r=0.5 (n={EXTRACT_NS[-1]})",
                  lambda: nodal.nodal_length(kept[EXTRACT_NS[-1]], 0.5), check_length))
    ops.append(Op(f"{name} detect_singular n={DETECT_N}",
                  lambda: nodal.detect_singular(f, DETECT_N), check_singular,
                  known_failure=known_singular_failure))
    return ops


def nodal_grids(seed, workdir):
    """Nodal and singular sets of two u_k and of their 513^2 grid samples."""
    rng = np.random.default_rng(seed)
    ops, records = [], []
    for q in FAMILY_QS:
        p, k = _draw_uk(rng, q)
        u = construct.construct_uk(p, k).to_field()
        grid = fields.GridField.sample(u, GRID_SAMPLE_N)
        # spurious clusters along flat nodal rays: README.md, known baseline failures
        ops += _nodal_ops(f"u_k q={q} k={k}", u, k, known_singular_failure=q == 1.5)
        ops += _nodal_ops(f"GridField({GRID_SAMPLE_N}) of u_k q={q} k={k}", grid, k,
                          known_singular_failure=True)
        records.append(_uk_record(p, k))
    inputs = {"fields": records, "grid_sample_n": GRID_SAMPLE_N,
              "extract_ns": list(EXTRACT_NS), "detect_n": DETECT_N,
              "nodal_length_radius": 0.5}
    return inputs, ops


WORKLOADS = {
    "construct-family": construct_family,
    "weiss-ladder": weiss_ladder,
    "nodal-grids": nodal_grids,
}
