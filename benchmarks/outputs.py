"""SHA-256 digests of the lab's outputs, to show that a change keeps them.

    python3 benchmarks/outputs.py           # write benchmarks/outputs.json
    python3 benchmarks/outputs.py --check   # name every digest that moved

It digests the package of the tree it lies in (``src/`` next to this
directory), not an installed one:

- ``criteria/...``: each line criteria 01-11 print (pytest run on
  ``tests/test_acceptance.py``);
- ``cli/...``: ``construct`` of each (q, lambda_-, k) of ``CONSTRUCTS``, then
  ``analyze`` of its profile at ``--grid`` 256, of its 513^2 grid file at
  ``--grid`` 256 and 512, and the grid file itself; each command's exit code,
  stdout and stderr and every file it writes but ``run.json`` (timings);
- ``ops/...``: the result of every op of seeds 11-30 on the three
  ``perfbench`` workloads, run in order as one pass runs them; a raised error
  is digested by its type and message;
- ``detections/...``: each row of ``benchmarks/detections.py --json``.

Floats are digested by their exact bits, arrays by dtype, shape and bytes.
With ``--check`` the exit code is 1 when a digest moved, was added or is
missing.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from nodallab import cli, construct, fields  # noqa: E402
from nodallab.params import ProblemParams, k_bar  # noqa: E402

DIGESTS = os.path.join(ROOT, "benchmarks", "outputs.json")
SEEDS = range(11, 31)
GRID_FILE_N = 513
# (q, lambda_-, k - k_bar): k = k_bar + 1 unless the third number says more
CONSTRUCTS = ((1.0, 2.0, 1), (1.0, 3.0, 3), (1.25, 3.0, 1), (1.5, 2.0, 1), (1.5, 3.5, 1),
              (1.75, 2.0, 1), (1.9, 2.0, 1), (1.95, 2.0, 1))


def canonical(obj):
    """A JSON-able form of ``obj`` that keeps every bit: floats as their hex,
    arrays as dtype, shape and the hex of their bytes."""
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return {"dtype": a.dtype.str, "shape": list(a.shape), "bytes": a.tobytes().hex()}
    if isinstance(obj, BaseException):
        return {"error": type(obj).__name__, "message": str(obj)}
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__, **{f.name: canonical(getattr(obj, f.name))
                                               for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, bytes):
        return obj.hex()
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj):
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _env():
    return {**os.environ, "PYTHONPATH": SRC}


def criteria():
    """One digest per printed criterion line, keyed by its label."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           os.path.join("tests", "test_acceptance.py")],
                          cwd=ROOT, env=_env(), capture_output=True, text=True)
    out = {}
    # pytest's progress dots run on into the line each criterion prints
    for line in re.findall(r"\[(?:PASS|FAIL)\] criterion .*", proc.stdout):
        key = "criteria/" + line.split("  (")[0].split("] ", 1)[1]
        while key in out:
            key += "+"
        out[key] = digest(line)
    if not out:
        raise RuntimeError(f"no criterion line in the pytest output:\n{proc.stdout[-2000:]}")
    return out


def _cli(argv, outdir):
    """Exit code, stdout, stderr and the files but run.json of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--out", outdir])
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": _files(outdir)}


def cli_files(tmp):
    out = {}
    for q, lm, dk in CONSTRUCTS:
        k = k_bar(ProblemParams(q=q, lambda_minus=lm)) + dk
        tag = f"cli/q={q:g} lambda_minus={lm:g} k={k}"
        cons = os.path.join(tmp, f"construct-{q}-{lm}-{k}")
        res = _cli(["construct", "--q", repr(q), "--lambda-minus", repr(lm), "--k", str(k)], cons)
        out[f"{tag} construct"] = digest(res)
        profile = os.path.join(cons, "profile.txt")
        out[f"{tag} analyze profile --grid 256"] = digest(
            _cli(["analyze", "--input", profile, "--grid", "256"], cons + "-analyze"))
        u = construct.construct_uk(ProblemParams(q=q, lambda_minus=lm), k).to_field()
        grid = os.path.join(tmp, f"grid-{q}-{lm}-{k}.txt")
        fields.save(fields.GridField.sample(u, GRID_FILE_N), grid)
        out[f"{tag} grid file {GRID_FILE_N}"] = digest(_read(grid))
        for n in (256, 512):
            out[f"{tag} analyze grid {GRID_FILE_N} --grid {n}"] = digest(
                _cli(["analyze", "--input", grid, "--grid", str(n)], f"{grid}-{n}"))
    return out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _files(outdir):
    return {name: _read(os.path.join(outdir, name))
            for name in sorted(os.listdir(outdir)) if name != "run.json"}


def ops(tmp):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    out = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workdir = os.path.join(tmp, f"{name}-{seed}")
            os.makedirs(workdir)
            _, pass_ops = build(seed, workdir)
            for i, op in enumerate(pass_ops):
                try:
                    doc = {"result": op.call()}
                except Exception as exc:  # an op that raises is digested by its error
                    doc = {"result": exc}
                # a CLI op writes into its own directory under workdir, which
                # its check would remove
                for sub in sorted(os.listdir(workdir)):
                    doc[sub] = _files(os.path.join(workdir, sub))
                    shutil.rmtree(os.path.join(workdir, sub))
                out[f"ops/{name}/seed={seed}/{i:02d} {op.name}"] = digest(doc)
    return out


def detections(tmp):
    path = os.path.join(tmp, "detections.json")
    subprocess.run([sys.executable, os.path.join("benchmarks", "detections.py"), "--json", path],
                   cwd=ROOT, env=_env(), check=True, capture_output=True)
    with open(path) as fh:
        doc = json.load(fh)
    return {f"detections/{set_name}/{row['input']}": digest(row)
            for set_name, block in doc.items() for row in block["rows"]}


def collect():
    with tempfile.TemporaryDirectory() as tmp:
        return {**criteria(), **cli_files(tmp), **ops(tmp), **detections(tmp)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the digests file instead of writing it")
    ap.add_argument("--digests", default=DIGESTS, help="the digests file (default: %(default)s)")
    args = ap.parse_args(argv)

    now = collect()
    if not args.check:
        with open(args.digests, "w") as fh:
            json.dump(now, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(now)} digests to {args.digests}")
        return 0
    with open(args.digests) as fh:
        kept = json.load(fh)
    moved = sorted(k for k in kept.keys() & now.keys() if kept[k] != now[k])
    for label, keys in (("moved", moved), ("missing", sorted(kept.keys() - now.keys())),
                        ("new", sorted(now.keys() - kept.keys()))):
        for key in keys:
            print(f"{label}: {key}")
    bad = len(moved) + len(kept.keys() ^ now.keys())
    print(f"{len(now)} digests, {len(moved)} moved, {bad - len(moved)} missing or new")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
