"""Command-line front end: construct, analyze, verify, sweep, plot.

Exit codes: 0 success, 1 verification failure, 2 construction or precondition
error, 3 I/O or parse error.  Every command writes a run.json provenance
record into the output directory.  Outputs are deterministic for a fixed
configuration and seed (run.json timings excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import construct as cons
from . import fields, functionals, nodal, orders, params as pm

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONSTRUCT = 2
EXIT_IO = 3


def _versions():
    import scipy
    try:
        from importlib.metadata import version
        own = version("nodallab")
    except Exception:
        own = "unknown"
    return {"nodallab": own, "numpy": np.__version__, "scipy": scipy.__version__}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_record(outdir, config, timings):
    _write_json(os.path.join(outdir, "run.json"),
                {"config": config, "versions": _versions(), "timings": timings})


def _params_from_args(args):
    return pm.ProblemParams(q=args.q, lambda_plus=args.lambda_plus,
                            lambda_minus=args.lambda_minus)


def _config_dict(args, command):
    keys = ("q", "lambda_plus", "lambda_minus", "k", "k_range", "grid", "n",
            "out", "seed", "jobs", "suite", "profile", "input", "singular")
    doc = {"command": command}
    for key in keys:
        if hasattr(args, key):
            doc[key] = getattr(args, key)
    return doc


def _ensure_outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- construct

def cmd_construct(args):
    outdir = _ensure_outdir(args)
    p = _params_from_args(args)
    t0 = time.perf_counter()
    try:
        mr = cons.construct_uk(p, args.k, n=args.n)
    except (cons.ConstructionError, cons.SolverError) as exc:
        _write_json(os.path.join(outdir, "error.json"),
                    {"error": type(exc).__name__, "message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    t_construct = time.perf_counter() - t0

    profile_path = os.path.join(outdir, "profile.txt")
    fields.save(mr.profile, profile_path)
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        fh.write(mr.to_json(profile_path="profile.txt"))
        fh.write("\n")

    nq = functionals.eval_Nt(mr.to_field(), (0.0, 0.0), 1.0, p.q)
    gq = pm.gamma_q(p)
    summary = [
        f"k = {mr.k}   period T = {mr.T:.12g}",
        f"matching point t_bar = {mr.t_bar:.12g}  (t_bar/T = {mr.t_bar / mr.T:.12g})",
        f"slope mismatch residual = {mr.psi_residual:.3e}",
        f"energy drift (relative) = {mr.energy_drift:.3e}",
        f"ode residual (relative) = {mr.ode_residual:.3e}",
        f"profile zeros per period = {mr.zero_count}",
        f"N_q(u_k, 0, 1) = {nq:.9g}   target 2/(2-q) = {gq:.9g}",
    ]
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    _write_run_record(outdir, _config_dict(args, "construct"),
                      {"construct_s": round(t_construct, 3)})
    return EXIT_OK


# ------------------------------------------------------------------ analyze

def _field_from_input(path):
    obj = fields.load(path)
    if isinstance(obj, fields.AngularProfile):
        p = obj.params or pm.ProblemParams()
        return fields.HomogeneousField(pm.gamma_q(p), obj, p), obj
    if isinstance(obj, fields.HomogeneousField):
        return obj, obj.profile
    return obj, None


def cmd_analyze(args):
    outdir = _ensure_outdir(args)
    t0 = time.perf_counter()
    field, profile = _field_from_input(args.input)
    radii = 0.5 * 2.0 ** (-np.arange(8.0))[::-1]
    report = {}
    est = orders.estimate_order(field, (0.0, 0.0), radii)
    report["order"] = est.to_dict()
    report["frequency_at_1"] = functionals.eval_Nt(field, (0.0, 0.0), 1.0,
                                                   field.params.q)
    if profile is not None:
        zs = nodal.profile_zero_structure(profile)
        report["profile_zeros"] = {"count": len(zs["zeros"]),
                                   "antipodal": zs["antipodal"],
                                   "min_abs_slope": (min(abs(s) for s in zs["slopes"])
                                                     if zs["slopes"] else None)}

    ns = nodal.extract_nodal_set(field, args.grid)
    ns.save_csv(os.path.join(outdir, "nodal.csv"))
    report["nodal_length_half"] = nodal.nodal_length(ns, 0.5)
    sing = nodal.detect_singular(field, args.grid)
    _write_json(os.path.join(outdir, "singular.json"),
                [{"x": s[0], "y": s[1], "abs_u": s[2], "abs_grad": s[3]}
                 for s in sing])
    report["singular_clusters"] = len(sing)
    _write_json(os.path.join(outdir, "analysis.json"), report)
    _write_run_record(outdir, _config_dict(args, "analyze"),
                      {"analyze_s": round(time.perf_counter() - t0, 3)})
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ------------------------------------------------------------------- verify

def _suite_recurrences(args, checks):
    p = _params_from_args(args)
    gq = pm.gamma_q(p)
    K = 60
    betas = pm.beta_k_sequence(p, K)
    # strict increase is asserted until double precision saturates one ulp
    # below the limit; q=1 is degenerate (the sequence sits at the limit)
    inc = all(b2 > b1 or gq - b1 < 1e-12 for b1, b2 in zip(betas, betas[1:]))
    inc = inc and all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
    nonint = all(b != round(b) for b in betas[1:]) or p.q == 1.0
    checks.append(("beta_k increasing", inc or p.q == 1.0))
    checks.append(("beta_k non-integer", nonint))
    checks.append(("beta_k limit", abs(betas[-1] - gq) < 1e-3))
    sigmas = pm.sigma_k_sequence(p, K)
    checks.append(("sigma_k increasing",
                   all(b > a for a, b in zip(sigmas, sigmas[1:]))))
    checks.append(("sigma_k bound",
                   all(s2 < (2.0 + p.q * s1) / 2.0
                       for s1, s2 in zip(sigmas, sigmas[1:]))))
    checks.append(("sigma_k limit", abs(sigmas[-1] - gq) < 1e-3))


def _suite_functionals(args, checks):
    f = fields.monomial_field(2)
    radii = np.linspace(0.1, 1.0, 20)
    scan = functionals.monotonicity_scan(f, (0.0, 0.0), 2.5, radii)
    checks.append(("W monotone on harmonic", scan["verdict"] == "monotone"))
    rep = functionals.check_derivative_identities(f, (0.0, 0.0),
                                                 np.linspace(0.2, 0.9, 8),
                                                 2.0, 2.0)
    checks.append(("H' identity on harmonic", rep["H_prime_max_residual"] < 1e-6))
    checks.append(("W' identity on harmonic", rep["W_prime_max_residual"] < 1e-6))


def _suite_construction(args, checks):
    p = _params_from_args(args)
    k = args.k if args.k is not None else pm.k_bar(p) + 1
    mr = cons.construct_uk(p, k, n=args.n)
    checks.append(("zero count 2k", mr.zero_count == 2 * k))
    drift_tol = 1e-6 if p.q == 1.0 else 1e-4
    checks.append(("energy drift", mr.energy_drift < drift_tol))
    checks.append(("matching residual", abs(mr.psi_residual) < 1e-6))
    nq = functionals.eval_Nt(mr.to_field(), (0.0, 0.0), 1.0, p.q)
    checks.append(("frequency identity",
                   abs(nq - pm.gamma_q(p)) < 1e-3 * pm.gamma_q(p)))


def _suite_hamiltonian(args, checks):
    rng = np.random.default_rng(args.seed)
    for q in (1.0, 1.5):
        p = pm.ProblemParams(q=q)
        worst = 0.0
        for _ in range(5):
            w0, v0 = rng.uniform(-1.0, 1.0, size=2)
            _, _, _, drift = cons.hamiltonian_cauchy(p, w0, v0, 1e-3, 10000)
            worst = max(worst, drift)
        checks.append((f"hamiltonian drift q={q}", worst < 1e-6))


def _suite_profile(args, checks):
    obj = fields.load(args.profile)
    if not isinstance(obj, fields.AngularProfile):
        raise fields.ParseError("verify --profile expects a profile file")
    p = obj.params or pm.ProblemParams()
    tr = cons.energy_function(p, obj)
    e = tr.values
    mean = abs(float(np.mean(e))) or 1.0
    drift = (float(np.max(e)) - float(np.min(e))) / mean
    checks.append(("stored profile energy drift", drift < 1e-4))


SUITES = {
    "recurrences": _suite_recurrences,
    "functionals": _suite_functionals,
    "construction": _suite_construction,
    "hamiltonian": _suite_hamiltonian,
}


def cmd_verify(args):
    outdir = _ensure_outdir(args)
    t0 = time.perf_counter()
    if args.suite and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; have "
              f"{sorted(SUITES)}", file=sys.stderr)
        return EXIT_IO
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_IO
    names = [args.suite] if args.suite else list(SUITES)
    checks = []
    for name in names:
        SUITES[name](args, checks)
    if args.profile:
        _suite_profile(args, checks)
    report = {"checks": [{"name": n, "pass": bool(ok)} for n, ok in checks],
              "all_pass": all(ok for _, ok in checks)}
    _write_json(os.path.join(outdir, "verify.json"), report)
    for n, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {n}")
    _write_run_record(outdir, _config_dict(args, "verify"),
                      {"verify_s": round(time.perf_counter() - t0, 3)})
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


# -------------------------------------------------------------------- sweep

def _sweep_one(job):
    qq, lp, lm, k, n, grid = job
    p = pm.ProblemParams(q=qq, lambda_plus=lp, lambda_minus=lm)
    try:
        mr = cons.construct_uk(p, k, n=n)
        field = mr.to_field()
        nq = functionals.eval_Nt(field, (0.0, 0.0), 1.0, p.q)
        ns = nodal.extract_nodal_set(field, grid)
        length = nodal.nodal_length(ns, 0.5)
        return (k, f"{mr.t_bar:.12g}", f"{nq:.12g}", f"{length:.12g}",
                f"{mr.energy_drift:.6g}", "ok")
    except Exception as exc:  # per-k failures become rows, the sweep goes on
        return (k, "", "", "", "", f"error: {exc}")


def _parse_k_range(spec):
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def cmd_sweep(args):
    outdir = _ensure_outdir(args)
    t0 = time.perf_counter()
    try:
        ks = _parse_k_range(args.k_range)
    except ValueError:
        print(f"error: bad k range {args.k_range!r}", file=sys.stderr)
        return EXIT_IO
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_IO
    p = _params_from_args(args)
    kb = pm.k_bar(p)
    bad = [k for k in ks if k <= kb]
    if bad:
        print(f"error: k values {bad} do not exceed k_bar={kb}", file=sys.stderr)
        return EXIT_CONSTRUCT

    jobs = [(p.q, p.lambda_plus, p.lambda_minus, k, args.n, args.grid)
            for k in ks]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]

    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w") as fh:
        fh.write("k,t_bar,N_q,nodal_length_half,energy_drift,status\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    _write_run_record(outdir, _config_dict(args, "sweep"),
                      {"sweep_s": round(time.perf_counter() - t0, 3)})
    return EXIT_OK


# --------------------------------------------------------------------- plot

_SVG_SIZE = 640
_MARGIN = 40


def _disk_to_svg(x, y):
    # unit disk mapped into the square viewport, y up
    half = (_SVG_SIZE - 2 * _MARGIN) / 2.0
    cx = _MARGIN + half
    return (cx + x * half, cx - y * half)


def _plot_nodal(segments, singular, out):
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">']
    cx, cy = _disk_to_svg(0.0, 0.0)
    half = (_SVG_SIZE - 2 * _MARGIN) / 2.0
    parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{half:.2f}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    for (x1, y1), (x2, y2) in segments:
        a = _disk_to_svg(x1, y1)
        b = _disk_to_svg(x2, y2)
        parts.append(f'<line x1="{a[0]:.3f}" y1="{a[1]:.3f}" '
                     f'x2="{b[0]:.3f}" y2="{b[1]:.3f}" '
                     'stroke="#cc0000" stroke-width="1.2"/>')
    for s in singular:
        cxy = _disk_to_svg(s["x"], s["y"])
        parts.append(f'<circle cx="{cxy[0]:.3f}" cy="{cxy[1]:.3f}" r="4" '
                     'fill="none" stroke="#0000cc" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(out, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _plot_trace(radii, values, label, out):
    w, h = _SVG_SIZE, _SVG_SIZE // 2
    lx = np.log10(radii)
    safe = np.abs(values)
    safe[safe == 0] = np.min(safe[safe > 0]) if np.any(safe > 0) else 1.0
    ly = np.log10(safe)
    x0, x1 = float(lx.min()), float(lx.max())
    y0, y1 = float(ly.min()), float(ly.max())
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 1.0, x1 + 1.0

    def sx(v):
        return _MARGIN + (v - x0) / (x1 - x0) * (w - 2 * _MARGIN)

    def sy(v):
        return h - _MARGIN - (v - y0) / (y1 - y0) * (h - 2 * _MARGIN)

    pts = " ".join(f"{sx(a):.3f},{sy(b):.3f}" for a, b in zip(lx, ly))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w - 2 * _MARGIN}" '
             f'height="{h - 2 * _MARGIN}" fill="none" stroke="black"/>',
             f'<polyline points="{pts}" fill="none" stroke="#cc0000" '
             'stroke-width="1.5"/>',
             f'<text x="{w // 2}" y="{h - 8}" text-anchor="middle" '
             f'font-size="12">log10 r  [{x0:.2f}, {x1:.2f}]</text>',
             f'<text x="12" y="{h // 2}" font-size="12" '
             f'transform="rotate(-90 12 {h // 2})" text-anchor="middle">'
             f'log10 |{label}|  [{y0:.2f}, {y1:.2f}]</text>',
             "</svg>"]
    with open(out, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_plot(args):
    with open(args.input) as fh:
        header = fh.readline().strip()
        body = fh.read().strip()
    try:
        if header == "x1,y1,x2,y2":
            segments = []
            for ln in body.splitlines():
                x1, y1, x2, y2 = (float(tok) for tok in ln.split(","))
                segments.append(((x1, y1), (x2, y2)))
            singular = []
            if args.singular:
                with open(args.singular) as fh:
                    singular = json.load(fh)
            _plot_nodal(segments, singular, args.out)
        elif header == "r,value":
            rows = [tuple(float(tok) for tok in ln.split(","))
                    for ln in body.splitlines()]
            if not rows:
                raise ValueError("empty trace")
            radii = np.array([r for r, _ in rows])
            values = np.array([v for _, v in rows])
            _plot_trace(radii, values, "value", args.out)
        else:
            raise ValueError(f"unrecognized header {header!r}")
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------- driver

_CONFIG_TYPES = {"q": float, "lambda_plus": float, "lambda_minus": float,
                 "k": int, "n": int, "grid": int, "jobs": int, "seed": int}


def _load_config(path):
    """key=value lines; numeric keys are converted here, so a bad value is a ParseError."""
    doc = {}
    with open(path) as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise fields.ParseError(f"line {i}: expected key=value, got {ln!r}")
            key, val = (s.strip() for s in ln.split("=", 1))
            key = key.replace("-", "_")
            kind = _CONFIG_TYPES.get(key, str)
            try:
                doc[key] = kind(val)
            except ValueError:
                raise fields.ParseError(
                    f"line {i}: {key}={val!r} is not a valid {kind.__name__}") from None
    return doc


def _build_parser():
    parser = argparse.ArgumentParser(prog="nodallab")
    parser.add_argument("--config", help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--q", type=float, default=1.0)
        sp.add_argument("--lambda-plus", type=float, default=1.0)
        sp.add_argument("--lambda-minus", type=float, default=1.0)

    sp = sub.add_parser("construct", help="build a homogeneous profile")
    add_params(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("analyze", help="order / nodal analysis of a stored field")
    sp.add_argument("--input", required=True)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("verify", help="run verification suites")
    add_params(sp)
    sp.add_argument("--suite", default=None)
    sp.add_argument("--profile", default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="construct over a range of k")
    add_params(sp)
    sp.add_argument("--k-range", required=True,
                    help="lo:hi inclusive, or comma list")
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("plot", help="render nodal CSV or trace CSV to SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--singular", default=None)
    sp.add_argument("--out", default="plot.svg")
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # pre-pass: pull --config so its values become subcommand defaults
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        if known.config:
            converted = _load_config(known.config)
            for action in parser._subparsers._group_actions[0].choices.values():
                action.set_defaults(**{k: v for k, v in converted.items()
                                       if any(a.dest == k for a in action._actions)})
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else EXIT_OK
        return args.func(args)
    except (fields.ParseError, OSError) as exc:
        # ParseError is a ValueError, so it is caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (cons.ConstructionError, cons.SolverError, ValueError) as exc:
        # parameter validation and construction errors are precondition failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT


if __name__ == "__main__":
    sys.exit(main())
