"""Command-line front end: construct, analyze, verify, sweep, plot.

Exit codes: 0 success, 1 verification failure, 2 construction or precondition
error, 3 I/O or parse error.  One parser, built at import and never changed,
checks every flag; a ``--config`` file's ``key=value`` lines enter it as
``--key=value`` flags right after the command name, so the user's own flags
win.  ``main`` owns the output directory of every command but plot: it
creates it, writes the run.json provenance record on exit 0 or 1, with the
whole command's time, and error.json on a failed construction or solve.
Outputs are deterministic for a fixed configuration and seed (run.json
timings excepted).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import construct as cons
from . import __version__, fields, functionals, nodal, orders, params as pm

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONSTRUCT = 2
EXIT_IO = 3


def _versions():
    import scipy
    return {"nodallab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _strict(doc):
    """``doc`` with every non-finite float as None, so its JSON is strict."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _strict(val) for key, val in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(val) for val in doc]
    return doc


def _json_text(doc):
    """The one JSON spelling of a document, for its file and for stdout."""
    return json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _params_from_args(args):
    return pm.ProblemParams(q=args.q, lambda_plus=args.lambda_plus,
                            lambda_minus=args.lambda_minus)


def _profile_params(profile):
    """A stored profile's parameters: the CLI guesses none."""
    if profile.params is None:
        raise fields.ParseError("the profile has no parameter block")
    return profile.params


def _frequency(field):
    """N_q(u, 0, 1): the frequency of the field on the unit circle about the origin."""
    return functionals.eval_Nt(field, (0.0, 0.0), 1.0, field.params.q)


# ---------------------------------------------------------------- construct

def cmd_construct(args):
    p = _params_from_args(args)
    mr = cons.construct_uk(p, args.k, n=args.n)

    profile_path = os.path.join(args.out, "profile.txt")
    fields.save(mr.profile, profile_path)
    _write_json(os.path.join(args.out, "result.json"),
                {**mr.to_dict(), "profile_path": "profile.txt"})

    nq = _frequency(mr.to_field())
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
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK


# ------------------------------------------------------------------ analyze

def _field_from_input(path):
    obj = fields.load(path)
    if isinstance(obj, fields.AngularProfile):
        p = _profile_params(obj)
        return fields.HomogeneousField(pm.gamma_q(p), obj, p), obj
    if isinstance(obj, fields.HomogeneousField):
        return obj, obj.profile
    return obj, None


def cmd_analyze(args):
    field, profile = _field_from_input(args.input)
    radii = 0.5 * 2.0 ** (-np.arange(8.0))[::-1]
    report = {}
    est = orders.estimate_order(field, (0.0, 0.0), radii)
    report["order"] = est.to_dict()
    report["frequency_at_1"] = _frequency(field)
    if profile is not None:
        zs = nodal.profile_zero_structure(profile)
        report["profile_zeros"] = {"count": len(zs["zeros"]),
                                   "antipodal": zs["antipodal"],
                                   "min_abs_slope": (min(abs(s) for s in zs["slopes"])
                                                     if zs["slopes"] else None)}

    # one sample of the disk for both extraction and detection
    xs, V, inside = nodal._sample_disk(field, args.grid)
    ns = nodal._extract(field, xs, V)
    ns.save_csv(os.path.join(args.out, "nodal.csv"))
    report["nodal_length_half"] = nodal.nodal_length(ns, 0.5)
    sing = nodal._detect(pm.gamma_q(field.params), xs, V, inside)
    _write_json(os.path.join(args.out, "singular.json"),
                [{"x": s[0], "y": s[1], "abs_u": s[2], "abs_grad": s[3], "branches": s[4]}
                 for s in sing])
    report["singular_clusters"] = len(sing)
    _write_json(os.path.join(args.out, "analysis.json"), report)
    print(_json_text(report))
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
    nq = _frequency(mr.to_field())
    checks.append(("frequency identity",
                   abs(nq - pm.gamma_q(p)) < 1e-3 * pm.gamma_q(p)))


def _suite_hamiltonian(args, checks):
    rng = np.random.default_rng(args.seed)
    for q in (1.0, 1.5):
        p = pm.ProblemParams(q=q)
        drifts = [cons.hamiltonian_cauchy(p, *rng.uniform(-1.0, 1.0, size=2), 1e-3, 10000)[3]
                  for _ in range(5)]
        # each drift on its own: a max fold drops NaN, max(0.0, nan) is 0.0
        checks.append((f"hamiltonian drift q={q}", all(d < 1e-6 for d in drifts),
                       {"drifts": drifts}))


def _suite_profile(args, checks):
    obj = fields.load(args.profile)
    if not isinstance(obj, fields.AngularProfile):
        raise fields.ParseError("verify --profile expects a profile file")
    drift = cons.profile_energy_drift(_profile_params(obj), obj)
    checks.append(("stored profile energy drift", drift < 1e-4))


SUITES = {
    "recurrences": _suite_recurrences,
    "functionals": _suite_functionals,
    "construction": _suite_construction,
    "hamiltonian": _suite_hamiltonian,
}


def _verify_report(outdir, checks, all_pass):
    # a check is (name, ok) or (name, ok, extra keys for verify.json)
    _write_json(os.path.join(outdir, "verify.json"),
                {"checks": [{"name": n, "pass": bool(ok), **dict(*extra)}
                            for n, ok, *extra in checks],
                 "all_pass": all_pass})
    for n, ok, *_ in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {n}")


def cmd_verify(args):
    names = [args.suite] if args.suite else list(SUITES)
    checks = []
    try:
        for name in names:
            SUITES[name](args, checks)
        if args.profile:
            _suite_profile(args, checks)
    except (cons.ConstructionError, cons.SolverError):
        # keep the checks that ran; main reports the failed solve
        _verify_report(args.out, checks, False)
        raise
    all_pass = all(c[1] for c in checks)
    _verify_report(args.out, checks, all_pass)
    return EXIT_OK if all_pass else EXIT_VERIFY


# -------------------------------------------------------------------- sweep

def _sweep_one(job):
    p, k, n, grid = job
    try:
        mr = cons.construct_uk(p, k, n=n)
        field = mr.to_field()
        nq = _frequency(field)
        ns = nodal.extract_nodal_set(field, grid)
        length = nodal.nodal_length(ns, 0.5)
        return (k, f"{mr.t_bar:.12g}", f"{nq:.12g}", f"{length:.12g}",
                f"{mr.energy_drift:.6g}", "ok")
    except Exception as exc:  # per-k failures become rows, the sweep goes on
        return (k, "", "", "", "", f"error: {exc}")


def cmd_sweep(args):
    p = _params_from_args(args)
    # every row would fail alike: refuse the sweep as construct does
    for k in args.k_range:
        cons.check_k(p, k)
    cons.check_arc_grid(args.n)
    nodal.check_grid(args.grid)

    jobs = [(p, k, args.n, args.grid) for k in args.k_range]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: loading multiprocessing costs every other command
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at the first submit: no more than rows
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]

    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        # quoted where needed: an error message may hold commas
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("k", "t_bar", "N_q", "nodal_length_half", "energy_drift", "status"))
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# --------------------------------------------------------------------- plot

_SVG_SIZE = 640
_MARGIN = 40


def _disk_to_svg(x, y):
    # unit disk mapped into the square viewport, y up
    half = (_SVG_SIZE - 2 * _MARGIN) / 2.0
    cx = _MARGIN + half
    return (cx + x * half, cx - y * half)


def _write_svg(out, w, h, parts):
    """Write the SVG document of width w and height h that holds `parts`."""
    with open(out, "w") as fh:
        fh.write("\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                            f'height="{h}" viewBox="0 0 {w} {h}">', *parts, "</svg>"]) + "\n")


def _plot_nodal(segments, singular, out):
    cx, cy = _disk_to_svg(0.0, 0.0)
    half = (_SVG_SIZE - 2 * _MARGIN) / 2.0
    parts = [f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{half:.2f}" '
             'fill="none" stroke="black" stroke-width="1"/>']
    for x1, y1, x2, y2 in segments.reshape(-1, 4).tolist():
        a = _disk_to_svg(x1, y1)
        b = _disk_to_svg(x2, y2)
        parts.append(f'<line x1="{a[0]:.3f}" y1="{a[1]:.3f}" '
                     f'x2="{b[0]:.3f}" y2="{b[1]:.3f}" '
                     'stroke="#cc0000" stroke-width="1.2"/>')
    for x, y in singular:
        cxy = _disk_to_svg(x, y)
        parts.append(f'<circle cx="{cxy[0]:.3f}" cy="{cxy[1]:.3f}" r="4" '
                     'fill="none" stroke="#0000cc" stroke-width="1.5"/>')
    _write_svg(out, _SVG_SIZE, _SVG_SIZE, parts)


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
    parts = [f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w - 2 * _MARGIN}" '
             f'height="{h - 2 * _MARGIN}" fill="none" stroke="black"/>',
             f'<polyline points="{pts}" fill="none" stroke="#cc0000" '
             'stroke-width="1.5"/>',
             f'<text x="{w // 2}" y="{h - 8}" text-anchor="middle" '
             f'font-size="12">log10 r  [{x0:.2f}, {x1:.2f}]</text>',
             f'<text x="12" y="{h // 2}" font-size="12" '
             f'transform="rotate(-90 12 {h // 2})" text-anchor="middle">'
             f'log10 |{label}|  [{y0:.2f}, {y1:.2f}]</text>']
    _write_svg(out, w, h, parts)


def _singular_points(path):
    """The (x, y) of each point of a singular.json: a list of objects whose x
    and y are finite numbers."""
    with open(path) as fh:
        doc = json.load(fh)

    def finite(v):
        # a bool is no number; the bound also rejects NaN, inf and huge ints
        return type(v) in (int, float) and abs(v) <= sys.float_info.max

    if not (isinstance(doc, list) and all(
            isinstance(s, dict) and finite(s.get("x")) and finite(s.get("y")) for s in doc)):
        raise ValueError("singular points must be a list of objects with finite x and y")
    return [(s["x"], s["y"]) for s in doc]


def cmd_plot(args):
    with open(args.input) as fh:
        header = fh.readline().strip()
        body = fh.read().strip()
    try:
        if header == "x1,y1,x2,y2":
            rows = []
            for ln in body.splitlines():
                x1, y1, x2, y2 = (float(tok) for tok in ln.split(","))
                rows.append((x1, y1, x2, y2))
            # NodalSet refuses a non-finite coordinate
            segments = fields.NodalSet(rows).segments
            singular = _singular_points(args.singular) if args.singular else []
            _plot_nodal(segments, singular, args.svg)
        elif header == "r,value":
            rows = [tuple(float(tok) for tok in ln.split(","))
                    for ln in body.splitlines()]
            if not rows:
                raise ValueError("empty trace")
            rs, vs = [r for r, _ in rows], [v for _, v in rows]
            # the plot takes log10 of r and |value|
            if not np.isfinite(rs + vs).all():
                raise ValueError("non-finite trace entry")
            tr = functionals.FunctionalTrace(rs, vs)
            if tr.radii[0] <= 0:
                raise ValueError("radii must be positive")
            _plot_trace(tr.radii, tr.values, "value", args.svg)
        else:
            raise ValueError(f"unrecognized header {header!r}")
    except ValueError as exc:  # a JSONDecodeError is one
        raise fields.ParseError(str(exc)) from exc
    print(f"wrote {args.svg}")
    return EXIT_OK


# ------------------------------------------------------------------- driver

def _int_at_least(low):
    """argparse type: an int of at least `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _k_range(spec):
    """argparse type: the ks of 'lo:hi' (inclusive) or of a comma list."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k range {spec!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError(f"empty k range {spec!r}")
    return ks


def _config_flags(path):
    """A config file's key=value lines as --key=value flags."""
    flags = []
    with open(path) as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise fields.ParseError(f"line {i}: expected key=value, got {ln!r}")
            key, val = (s.strip() for s in ln.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


class _UsageError(Exception):
    """Bad command line: unknown flag, missing or malformed value."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising it, for ``main`` to print as one line
    and exit with EXIT_IO; subcommand parsers are made of the same class.
    Takes no abbreviations, so a config key ``k`` cannot become ``--k-range``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _build_parsers():
    """The ``--config`` pre-parser, the full parser and every subcommand's
    option strings, built once and never changed: a config file enters as
    flags."""
    config = _Parser(add_help=False)
    config.add_argument("--config", help="key=value config file; flags override")
    parser = _Parser(prog="nodallab", parents=[config])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--q", type=float, default=1.0)
        sp.add_argument("--lambda-plus", type=float, default=1.0)
        sp.add_argument("--lambda-minus", type=float, default=1.0)

    sp = sub.add_parser("construct", help="build a homogeneous profile")
    add_params(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, default=cons.ARC_N)
    sp.add_argument("--out", default="out")

    sp = sub.add_parser("analyze", help="order / nodal analysis of a stored field")
    sp.add_argument("--input", required=True)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--out", default="out")

    sp = sub.add_parser("verify", help="run verification suites")
    add_params(sp)
    sp.add_argument("--suite", default=None, choices=sorted(SUITES))
    sp.add_argument("--profile", default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n", type=int, default=cons.ARC_N)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out", default="out")

    sp = sub.add_parser("sweep", help="construct over a range of k")
    add_params(sp)
    sp.add_argument("--k-range", type=_k_range, required=True,
                    help="lo:hi inclusive, or comma list")
    sp.add_argument("--n", type=int, default=cons.ARC_N)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--jobs", type=_int_at_least(1), default=1)
    sp.add_argument("--out", default="out")

    sp = sub.add_parser("plot", help="render nodal CSV or trace CSV to SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--singular", default=None)
    # a file, not a run directory: plot writes no run.json
    sp.add_argument("--out", dest="svg", default="plot.svg")
    known = {opt for sp in sub.choices.values() for action in sp._actions
             for opt in action.option_strings}
    return config, parser, known


_CONFIG, _PARSER, _COMMAND_FLAGS = _build_parsers()


def _parse(argv):
    """The parsed command line; ``None`` after ``--help``."""
    known, argv = _CONFIG.parse_known_args(argv)
    # right after the command name, so the user's own flags come later and win
    flags = _config_flags(known.config) if known.config else []
    try:
        args, extra = _PARSER.parse_known_args(argv[:1] + flags + argv[1:])
    except SystemExit:  # --help
        return None
    # a config key another command takes is dropped; a key no command takes
    # (a misspelling) and an unknown flag on the command line are errors
    for flag in flags:
        if flag in extra:
            key = flag.partition("=")[0]
            if key not in _COMMAND_FLAGS:
                raise _UsageError(f"unknown config key {key[2:]!r}")
            extra.remove(flag)
    if extra:
        raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args is None:
            return EXIT_OK
        # looked up per call, so a wrapper set on a cmd_* after import is the one run
        command = globals()[f"cmd_{args.command}"]
        out = getattr(args, "out", None)  # plot's --out is a file, args.svg
        if out is not None:
            os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        try:
            code = command(args)
        except (cons.ConstructionError, cons.SolverError) as exc:
            # a failed solve leaves its message and residual trace behind
            _write_json(os.path.join(out, "error.json"),
                        {"error": type(exc).__name__, "message": str(exc),
                         "trace": getattr(exc, "trace", [])})
            raise
        if out is not None and code in (EXIT_OK, EXIT_VERIFY):
            config = {key: val for key, val in vars(args).items() if key != "config"}
            _write_json(os.path.join(out, "run.json"),
                        {"config": config, "versions": _versions(),
                         "timings": {f"{args.command}_s": round(time.perf_counter() - t0, 3)}})
        return code
    except (fields.ParseError, UnicodeDecodeError, _UsageError, OSError) as exc:
        # ParseError and a file that is not UTF-8 text are ValueErrors, so
        # they are caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (cons.ConstructionError, cons.SolverError, ValueError) as exc:
        # parameter validation and construction errors are precondition failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT


if __name__ == "__main__":
    sys.exit(main())
