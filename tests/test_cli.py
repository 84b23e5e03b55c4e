import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

from nodallab import cli, construct, fields, nodal
from nodallab.cli import main
from nodallab.params import ProblemParams


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def construct_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("construct")
    code = run("construct", "--q", "1", "--lambda-plus", "1",
               "--lambda-minus", "1", "--k", "5", "--n", "1024",
               "--out", str(out))
    assert code == 0
    return out


def test_run_json_reports_versions(construct_dir):
    versions = json.loads((construct_dir / "run.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__
    assert versions["numpy"] == np.__version__


def test_run_json_reports_the_pyproject_version(construct_dir):
    # pyproject.toml takes its version from one attribute of the package,
    # which run.json reports also when nodallab runs from a source tree
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)
    assert "version" in project["project"]["dynamic"]
    module, _, name = project["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    version = getattr(importlib.import_module(module), name)
    assert re.fullmatch(r"\d+\.\d+\.\d+", version)
    assert json.loads((construct_dir / "run.json").read_text())["versions"]["nodallab"] == version


def test_construct_outputs(construct_dir):
    for name in ("profile.txt", "result.json", "summary.txt", "run.json"):
        assert (construct_dir / name).exists()
    doc = json.loads((construct_dir / "result.json").read_text())
    assert doc["k"] == 5
    assert doc["zero_count"] == 10
    assert doc["energy_drift"] < 1e-5
    summary = (construct_dir / "summary.txt").read_text()
    assert "N_q" in summary


def test_construct_records_matching(construct_dir):
    # result.json says how the matching point was found: mu, the Psi
    # evaluations, the bracket Brent's method used and the time map's root
    doc = json.loads((construct_dir / "result.json").read_text())
    a, b = doc["bracket"]
    assert a < doc["t_bar"] < b and b - a < 1e-4 * doc["T"]
    assert 2 <= doc["psi_calls"] <= 6
    # symmetric coefficients: both roots are T/2
    assert abs(doc["t_bar_exact"] - doc["T"] / 2) < 1e-13
    assert abs(doc["t_bar"] - doc["t_bar_exact"]) < 1e-6
    assert doc["mu"] == 1.0


def test_construct_small_k_exits_2(tmp_path):
    code = run("construct", "--q", "1", "--k", "4", "--out", str(tmp_path))
    assert code == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert "k_bar" in err["message"]


@pytest.mark.parametrize("q, k", [("1.975", "161"), ("1.99", "401")])
def test_construct_amplitude_underflow_exits_2(tmp_path, capsys, q, k):
    # near q = 2 the arc amplitude squared is below the smallest normal
    # double: one error line, no numpy warning, and an error.json
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("construct", "--q", q, "--lambda-minus", "2", "--k", k, "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert err.count("\n") == 1 and "Warning" not in err and "underflows" in err
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "SolverError"


def test_construct_error_json_keeps_residual_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(construct, "_NEWTON_MAXITER", 1)
    assert run("construct", "--q", "1.5", "--k", "9", "--out", str(tmp_path)) == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "SolverError" and len(err["trace"]) > 0


def test_verify_error_json_keeps_residual_trace(tmp_path, monkeypatch, capsys):
    # every command that solves leaves error.json, not only construct
    monkeypatch.setattr(construct, "_NEWTON_MAXITER", 1)
    code = run("verify", "--suite", "construction", "--q", "1.5", "--k", "9",
               "--out", str(tmp_path))
    assert code == 2 and capsys.readouterr().err.count("\n") == 1
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "SolverError" and len(err["trace"]) > 0


def test_newton_step_out_of_the_positive_cone_exits_2(tmp_path, monkeypatch, capsys):
    # a step that takes the arc below zero is refused before phi ** (q - 1)
    # turns NaN: one error line, no RuntimeWarning, the trace in error.json
    monkeypatch.setattr(construct, "_solve_tridiagonal",
                        lambda lower, diag, upper, b: np.full(len(b), -1.0))
    assert run("construct", "--q", "1.5", "--k", "9", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: Newton step left the positive cone\n"
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "SolverError"
    assert len(err["trace"]) == 1 and err["trace"][0] > 0


def test_verify_keeps_checks_before_failed_solve(tmp_path, monkeypatch, capsys):
    # the suites that ran before the failed construction stay in verify.json
    monkeypatch.setattr(construct, "_NEWTON_MAXITER", 1)
    assert run("verify", "--q", "1.5", "--k", "9", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.count("\n") == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert not doc["all_pass"]
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "beta_k increasing" and "W' identity on harmonic" in names
    assert all(c["pass"] for c in doc["checks"])
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "SolverError"
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("n", ["0", "1", "-5"])
def test_arc_grid_below_2_exits_2(tmp_path, capsys, n):
    # exactly one error line (so no traceback), before any output file
    for argv in (("construct", "--q", "1.5", "--k", "9"),
                 ("verify", "--suite", "construction", "--q", "1.5"),
                 ("sweep", "--q", "1", "--k-range", "5:6")):
        assert run(*argv, "--n", n, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: n must be at least 2, got {n}\n"
        assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["10", "63"])
def test_sweep_grid_below_64_exits_2(tmp_path, capsys, grid):
    # refused before any k is built: exactly one error line and no sweep.csv
    assert run("sweep", "--q", "1", "--k-range", "5:6", "--n", "512", "--grid", grid,
               "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: grid must be at least 64 x 64\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_construct_deterministic(tmp_path, construct_dir):
    out2 = tmp_path / "again"
    assert run("construct", "--q", "1", "--lambda-plus", "1",
               "--lambda-minus", "1", "--k", "5", "--n", "1024",
               "--out", str(out2)) == 0
    for name in ("profile.txt", "result.json", "summary.txt"):
        assert (out2 / name).read_bytes() == (construct_dir / name).read_bytes()


def test_analyze(construct_dir, tmp_path):
    out = tmp_path / "an"
    code = run("analyze", "--input", str(construct_dir / "profile.txt"),
               "--grid", "128", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["order"]["snapped"] == 2.0
    assert set(doc["order"]) == {"raw_slope", "snapped", "window", "nondeg_ratio", "h1_slope"}
    assert doc["profile_zeros"]["count"] == 10
    assert doc["singular_clusters"] == 1
    assert (out / "nodal.csv").exists()
    # the point at the origin, with its branch count
    (point,) = json.loads((out / "singular.json").read_text())
    assert set(point) == {"x", "y", "abs_u", "abs_grad", "branches"}
    assert np.hypot(point["x"], point["y"]) < 0.05 and point["branches"] >= 4


def test_analyze_grid_file(tmp_path):
    # a NODALLAB grid file is analysed as the GridField it holds
    xs = np.linspace(-1.0, 1.0, 65)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    fields.save(fields.GridField(X**2 - Y**2), tmp_path / "grid.txt")
    out = tmp_path / "an"
    assert run("analyze", "--input", str(tmp_path / "grid.txt"), "--out", str(out)) == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["order"]["snapped"] == 2.0
    assert doc["singular_clusters"] == 1
    assert "profile_zeros" not in doc


@pytest.mark.parametrize("source", ["profile", "grid"])
def test_analyze_samples_the_disk_once(construct_dir, tmp_path, monkeypatch, source):
    # extraction and detection read one sample of the disk, and write what
    # the public extract_nodal_set and detect_singular give
    path = construct_dir / "profile.txt"
    if source == "grid":
        path = tmp_path / "grid.txt"
        fields.save(fields.GridField.sample(construct.construct_uk(ProblemParams(), 5)
                                            .to_field(), 129), path)
    field = cli._field_from_input(str(path))[0]
    want = tmp_path / "want.csv"
    nodal.extract_nodal_set(field, 128).save_csv(want)
    points = [list(point) for point in nodal.detect_singular(field, 128)]

    calls = []
    sample = nodal._sample_disk

    def counted(field, n):
        calls.append(n)
        return sample(field, n)

    monkeypatch.setattr(nodal, "_sample_disk", counted)
    out = tmp_path / "an"
    assert run("analyze", "--input", str(path), "--grid", "128", "--out", str(out)) == 0
    assert calls == [128]
    assert (out / "nodal.csv").read_bytes() == want.read_bytes()
    got = json.loads((out / "singular.json").read_text())
    assert [[p["x"], p["y"], p["abs_u"], p["abs_grad"], p["branches"]] for p in got] == points


@pytest.mark.parametrize("q, k", [(1.85, 28), (1.95, 81)])
def test_analyze_snaps_near_q_2(tmp_path, q, k):
    # u_k is tiny here (scale 4e-18 and 1e-71), and at q = 1.95 H(2^-8)
    # underflows: the order still snaps to gamma_q on the radii that remain
    code = run("construct", "--q", str(q), "--lambda-minus", "2", "--k", str(k),
               "--out", str(tmp_path / "c"))
    assert code == 0
    assert run("analyze", "--input", str(tmp_path / "c" / "profile.txt"), "--grid", "64",
               "--out", str(tmp_path / "an")) == 0
    order = json.loads((tmp_path / "an" / "analysis.json").read_text())["order"]
    assert order["snapped"] == 2.0 / (2.0 - q) and order["nondeg_ratio"] > 0


def _homogeneous_file(path, gamma):
    """A cos 2theta lift of degree 2 at q = 1, saved with its gamma line set to ``gamma``."""
    th = fields._angles(64)
    prof = fields.AngularProfile(np.cos(2 * th), -2 * np.sin(2 * th), ProblemParams())
    fields.save(fields.HomogeneousField(2.0, prof), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(f"gamma={gamma}" if ln.startswith("gamma=") else ln
                              for ln in lines) + "\n")


def test_analyze_inconclusive_order_is_strict_json(tmp_path, capsys):
    # r^0.5 cos 2theta has no admissible order: the undefined ratio is null,
    # in analysis.json and on stdout alike
    _homogeneous_file(tmp_path / "h.txt", "0.5")
    assert run("analyze", "--input", str(tmp_path / "h.txt"), "--grid", "64",
               "--out", str(tmp_path / "an")) == 0
    text = (tmp_path / "an" / "analysis.json").read_text()
    assert capsys.readouterr().out == text
    order = json.loads(text, parse_constant=_reject)["order"]
    assert order["snapped"] == "inconclusive" and order["nondeg_ratio"] is None


@pytest.mark.parametrize("gamma", ["nan", "inf", "1e400", "-inf"])
def test_analyze_nonfinite_gamma_exits_3(tmp_path, capsys, gamma):
    _homogeneous_file(tmp_path / "h.txt", gamma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("analyze", "--input", str(tmp_path / "h.txt"), "--out", str(tmp_path / "an"))
    err = capsys.readouterr().err
    assert code == 3 and not caught
    assert re.fullmatch(r"error: line \d+: gamma must be positive and finite\n", err)


def test_analyze_missing_input(tmp_path):
    assert run("analyze", "--input", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path)) == 3


@pytest.mark.parametrize("body", [
    "NODALLAB v1 profile\nq=1\nlambda_plus=1\nlambda_minus=1\nmu=1\n"
    "n_theta=4\n0 1 0 -1\n1 0 -1 0\n",
    "NODALLAB v1 grid\nn=2\n0 1\n1 0\n",
])
def test_analyze_rejected_values_exit_3(tmp_path, capsys, body):
    # well-formed files whose values the field constructors reject
    path = tmp_path / "in.txt"
    path.write_text(body)
    assert run("analyze", "--input", str(path), "--out", str(tmp_path / "an")) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_analyze_takes_grid_samples_at_the_limit(tmp_path, capsys):
    # rows of +-1e100, the largest magnitude a grid file may hold, load, and
    # the analysis of their steepest gradients overflows nowhere
    values = np.full((65, 65), 1e100)
    values[::2] *= -1
    fields.save(fields.GridField(values), tmp_path / "g.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("analyze", "--input", str(tmp_path / "g.txt"), "--grid", "64",
                   "--out", str(tmp_path / "an"))
    assert code in (0, 1, 2) and len(capsys.readouterr().err.splitlines()) <= 1


_PARAMS = "q=1\nlambda_plus=1\nlambda_minus=1\nmu=1\n"
_TH16 = fields._angles(16)
_COS2 = fields._fmt_rows(np.stack((np.cos(2 * _TH16), -2 * np.sin(2 * _TH16))), " ")


@pytest.mark.parametrize("body, message", [
    pytest.param("NODALLAB v1 profile\n" + _PARAMS + "n_theta=4\n0 1 x -1\n1 0 -1 0\n",
                 "line 7: malformed number", id="malformed-number"),
    pytest.param("NODALLAB v1 profile\n" + _PARAMS + "n_theta=4\n0 1 0 -1\n1 inf -1 0\n",
                 "line 8: non-finite sample", id="non-finite-sample"),
    pytest.param("NODALLAB v1 profile\nq=1\nlambda_plus=one\nlambda_minus=1\nmu=1\n"
                 "n_theta=4\n0 1 0 -1\n1 0 -1 0\n",
                 "line 6: bad parameter block (could not convert string to float: 'one')",
                 id="bad-parameter-block"),
    pytest.param("NODALLAB v1 profile\n" + _PARAMS + "0 1 0 -1\n1 0 -1 0\n",
                 "line 5: missing n_theta", id="missing-n_theta"),
    pytest.param("NODALLAB v1 profile\n" + _PARAMS + "n_theta=4\n0 1 0 -1\n",
                 "line 7: missing sample lines", id="missing-sample-lines"),
    pytest.param("NODALLAB v1 homogeneous\n" + _PARAMS + "n_theta=16\n" + _COS2,
                 "line 6: missing gamma", id="missing-gamma"),
    pytest.param("NODALLAB v1 grid\n" + _PARAMS + "0 1 0\n1 0 1\n0 1 0\n",
                 "line 5: missing n", id="missing-n"),
    pytest.param("NODALLAB v1 grid\n" + _PARAMS + "n=3\n0 1 0\n1 0 1\n",
                 "line 8: expected 3 sample rows", id="too-few-grid-rows"),
    pytest.param("NODALLAB v1 grid\n" + _PARAMS + "n=3\n0 1 0\n1 0 1\n1 0 1\n0 1 0\n",
                 "line 10: unexpected line after the samples", id="too-many-grid-rows"),
    # a sample whose gradient overflowed np.gradient with a RuntimeWarning
    pytest.param("NODALLAB v1 grid\n" + _PARAMS + "n=3\n0 1 0\n1 1e308 1\n0 1 0\n",
                 "line 8: sample above 1e+100 in magnitude", id="grid-sample-1e308"),
    pytest.param("NODALLAB v1 grid\n" + _PARAMS + "n=3\n0 1 0\n1 0 1\n0 -1.0000000000000002e100 0\n",
                 "line 9: sample above 1e+100 in magnitude", id="grid-sample-above-1e100"),
    pytest.param("NODALLAB v1 profile\n" + _PARAMS + "n_theta=16\n" + _COS2 + "garbage\n",
                 "line 9: unexpected line after the samples",
                 id="line-after-the-profile-samples"),
    pytest.param("NODALLAB v1 blob\n" + _PARAMS, "line 1: unknown kind 'blob'",
                 id="unknown-kind"),
])
def test_analyze_malformed_file_exits_3(tmp_path, capsys, body, message):
    # each malformed NODALLAB file is refused with its line number
    path = tmp_path / "in.txt"
    path.write_text(body)
    assert run("analyze", "--input", str(path), "--out", str(tmp_path / "an")) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    pytest.param(("analyze", "--input", "{bad}"), id="analyze"),
    pytest.param(("verify", "--suite", "recurrences", "--profile", "{bad}"), id="verify"),
    pytest.param(("construct", "--config", "{bad}"), id="config"),
    pytest.param(("plot", "--input", "{bad}"), id="plot"),
])
def test_non_utf8_input_exits_3(tmp_path, capsys, argv):
    # a file that is not UTF-8 text is an input-file error like any other
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfeNODALLAB v1 profile\n")
    argv = [a.replace("{bad}", str(bad)) for a in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_verify_recurrences(tmp_path):
    assert run("verify", "--suite", "recurrences", "--q", "1.5",
               "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"]


def test_verify_construction(tmp_path, capsys):
    assert run("verify", "--suite", "construction", "--q", "1.5", "--k", "9",
               "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == (
        "[PASS] zero count 2k\n[PASS] energy drift\n"
        "[PASS] matching residual\n[PASS] frequency identity\n")
    assert json.loads((tmp_path / "verify.json").read_text())["all_pass"]


def test_verify_unknown_suite(tmp_path):
    assert run("verify", "--suite", "nope", "--out", str(tmp_path)) == 3


def test_verify_profile_refuses_a_grid_file(tmp_path, capsys):
    # a well-formed NODALLAB file of another kind is refused before any check
    xs = np.linspace(-1.0, 1.0, 5)
    fields.save(fields.GridField(np.add.outer(xs, xs)), tmp_path / "grid.txt")
    assert run("verify", "--suite", "recurrences", "--profile", str(tmp_path / "grid.txt"),
               "--out", str(tmp_path / "out")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify --profile expects a profile file\n"
    assert not (tmp_path / "out" / "verify.json").exists()


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "1"),                 # missing --k
    ("construct", "--q", "abc", "--k", "5"),   # malformed value
    ("construct", "--k", "5", "--bogus"),      # unknown flag
    ("construct", "--k", "5", "--lambda-m", "2"),  # abbreviation
    ("--config",),                             # --config without its value
])
def test_usage_errors_exit_3(capsys, argv):
    assert run(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "usage: nodallab" in capsys.readouterr().out


def test_verify_perturbed_profile_fails(construct_dir, tmp_path):
    prof = fields.load(construct_dir / "profile.txt")
    rng = np.random.default_rng(7)
    bad = fields.AngularProfile(
        prof.values + 1e-2 * rng.standard_normal(len(prof.values)),
        prof.derivative, prof.params)
    bad_path = tmp_path / "bad.txt"
    fields.save(bad, bad_path)
    code = run("verify", "--suite", "recurrences", "--profile", str(bad_path),
               "--out", str(tmp_path))
    assert code == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert not doc["all_pass"]
    # a failed check is a finished run: it keeps its provenance record
    assert (tmp_path / "run.json").exists()


def test_sweep(tmp_path):
    code = run("sweep", "--q", "1", "--k-range", "5:6", "--n", "512",
               "--grid", "128", "--out", str(tmp_path))
    assert code == 0
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "k,t_bar,N_q,nodal_length_half,energy_drift,status"
    rows = _csv_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2 and all(len(r) == 6 for r in rows)
    assert [r[0] for r in rows] == ["5", "6"]
    assert all(r[-1] == "ok" for r in rows)
    # nodal length grows with k
    assert float(rows[1][3]) > float(rows[0][3])


def _csv_rows(path):
    """The data rows of a CSV file, header dropped."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_sweep_error_row_keeps_its_commas(tmp_path, monkeypatch):
    message = "Psi has no sign change on the bracket: Psi(a)=1, Psi(b)=2"

    def fail(params, k, n=2048):
        raise construct.ConstructionError(message)

    monkeypatch.setattr(construct, "construct_uk", fail)
    assert run("sweep", "--q", "1", "--k-range", "5", "--out", str(tmp_path)) == 0
    assert _csv_rows(tmp_path / "sweep.csv") == [["5", "", "", "", "", f"error: {message}"]]


def test_sweep_empty_range(tmp_path, capsys):
    # a range that names no k is a usage error, not a header-only sweep.csv
    for spec in ("", "10:5", ","):
        out = tmp_path / "out"
        assert run("sweep", "--q", "1", "--k-range", spec, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: argument --k-range: empty k range {spec!r}\n"
        assert not out.exists()


def test_sweep_malformed_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("sweep", "--q", "1", "--k-range", "5:x", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: argument --k-range: bad k range '5:x'\n"
    assert not out.exists()


def test_sweep_jobs_capped_at_rows(tmp_path, monkeypatch):
    # a pool forks all max_workers processes at its first submit, so --jobs
    # must not exceed the rows; the fake pool runs the jobs inline
    import concurrent.futures

    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert run("sweep", "--q", "1", "--k-range", "5:6", "--n", "512", "--grid", "64",
               "--jobs", "5000", "--out", str(tmp_path)) == 0
    assert workers == [2]
    assert [(row[0], row[-1]) for row in _csv_rows(tmp_path / "sweep.csv")] == [
        ("5", "ok"), ("6", "ok")]


def test_sweep_bad_k(tmp_path, capsys):
    # refused before any row is built, with construct's message and error.json
    assert run("sweep", "--q", "1", "--k-range", "3:5",
               "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: k must exceed k_bar=4, got k=3\n"
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "ConstructionError"
    assert err["message"] == "k must exceed k_bar=4, got k=3"
    assert not (tmp_path / "sweep.csv").exists()


def test_plot_nodal(construct_dir, tmp_path):
    an = tmp_path / "an"
    assert run("analyze", "--input", str(construct_dir / "profile.txt"),
               "--grid", "128", "--out", str(an)) == 0
    svg = tmp_path / "nodal.svg"
    assert run("plot", "--input", str(an / "nodal.csv"),
               "--singular", str(an / "singular.json"),
               "--out", str(svg)) == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "<line" in body and "<circle" in body


def test_plot_trace(tmp_path):
    from nodallab.functionals import trace
    from nodallab.fields import monomial_field
    tr = trace(monomial_field(2), "H", (0.0, 0.0), np.geomspace(0.1, 1.0, 20))
    csv = tmp_path / "trace.csv"
    tr.save_csv(csv)
    svg = tmp_path / "trace.svg"
    assert run("plot", "--input", str(csv), "--out", str(svg)) == 0
    assert "polyline" in svg.read_text()


def test_plot_trace_pads_flat_axes(tmp_path):
    # one point spans neither axis: each is padded by one decade on both sides
    src = tmp_path / "trace.csv"
    src.write_text("r,value\n0.5,2\n")
    svg = tmp_path / "trace.svg"
    assert run("plot", "--input", str(src), "--out", str(svg)) == 0
    body = svg.read_text()
    assert "log10 r  [-1.30, 0.70]" in body and "log10 |value|  [-0.70, 1.30]" in body


def test_plot_empty_trace(tmp_path, capsys):
    src = tmp_path / "trace.csv"
    src.write_text("r,value\n")
    svg = tmp_path / "trace.svg"
    assert run("plot", "--input", str(src), "--out", str(svg)) == 3
    assert capsys.readouterr().err == "error: empty trace\n"
    assert not svg.exists()


def test_plot_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run("plot", "--input", str(bad), "--out", str(tmp_path / "x.svg")) == 3
    assert run("plot", "--input", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "y.svg")) == 3


@pytest.mark.parametrize("text, message", [
    pytest.param("r,value\n0.1,1\n0.1,2\n", "radii must be strictly increasing", id="equal-r"),
    pytest.param("r,value\n0.5,1\n0.2,2\n", "radii must be strictly increasing", id="falling-r"),
    pytest.param("r,value\n0,1\n0.5,2\n", "radii must be positive", id="zero-r"),
    pytest.param("r,value\n-0.5,1\n0.5,2\n", "radii must be positive", id="negative-r"),
    pytest.param("r,value\nnan,1\n0.5,2\n", "non-finite trace entry", id="nan-r"),
    pytest.param("r,value\n0.1,1\ninf,2\n", "non-finite trace entry", id="inf-r"),
    pytest.param("r,value\n0.1,1\n0.5,nan\n", "non-finite trace entry", id="nan-value"),
    pytest.param("r,value\n0.1,-inf\n0.5,2\n", "non-finite trace entry", id="inf-value"),
    pytest.param("x1,y1,x2,y2\n0,0,0.5,nan\n", "segments must be finite", id="nan-segment"),
    pytest.param("x1,y1,x2,y2\n0,0,0.5,0.5\ninf,0,0,0\n", "segments must be finite",
                 id="inf-segment"),
])
def test_plot_rejects_bad_numbers(tmp_path, capsys, text, message):
    # a log-axis trace needs increasing positive radii, and no number may be
    # NaN or infinite: each exits 3 with one line and writes no SVG
    src = tmp_path / "in.csv"
    src.write_text(text)
    svg = tmp_path / "out.svg"
    assert run("plot", "--input", str(src), "--out", str(svg)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not svg.exists()


@pytest.mark.parametrize("singular", [
    pytest.param('{"a": 1}', id="object"),
    pytest.param("[1, 2]", id="numbers"),
    pytest.param('[{"x": 0.1}]', id="missing-y"),
    pytest.param('[{"x": NaN, "y": 0}]', id="nan-x"),
    pytest.param('[{"x": 0, "y": Infinity}]', id="inf-y"),
    pytest.param('[{"x": "0.1", "y": 0}]', id="string-x"),
    pytest.param('[{"x": true, "y": 0}]', id="bool-x"),
    pytest.param('[{"x": 1' + "0" * 400 + ', "y": 0}]', id="huge-x"),
])
def test_plot_rejects_bad_singular(tmp_path, capsys, singular):
    # singular points are a list of objects with finite numbers x and y
    src = tmp_path / "in.csv"
    src.write_text("x1,y1,x2,y2\n0,0,0.5,0.5\n")
    sing = tmp_path / "singular.json"
    sing.write_text(singular)
    svg = tmp_path / "out.svg"
    assert run("plot", "--input", str(src), "--singular", str(sing), "--out", str(svg)) == 3
    assert capsys.readouterr().err == (
        "error: singular points must be a list of objects with finite x and y\n")
    assert not svg.exists()


def test_plot_takes_integer_singular_points(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("x1,y1,x2,y2\n0,0,0.5,0.5\n")
    sing = tmp_path / "singular.json"
    # keys other than x and y, such as analyze's branches, are ignored
    sing.write_text('[{"x": 0, "y": 0.5, "abs_u": 1, "branches": 10}]')
    svg = tmp_path / "out.svg"
    assert run("plot", "--input", str(src), "--singular", str(sing), "--out", str(svg)) == 0
    assert '<circle cx="320.000" cy="180.000" r="4"' in svg.read_text()


@pytest.fixture()
def bare_profile(construct_dir, tmp_path):
    # a valid u_k profile (q = 1, k = 5) saved without its parameter block
    prof = fields.load(construct_dir / "profile.txt")
    path = tmp_path / "bare.txt"
    fields.save(fields.AngularProfile(prof.values, prof.derivative), path)
    return path


@pytest.mark.parametrize("argv", [
    pytest.param(("analyze", "--input", "{profile}"), id="analyze"),
    pytest.param(("verify", "--suite", "recurrences", "--profile", "{profile}"), id="verify"),
])
def test_profile_without_params_exits_3(bare_profile, tmp_path, capsys, argv):
    # the CLI guesses no parameters for a profile file that has none
    out = tmp_path / "out"
    argv = [a.replace("{profile}", str(bare_profile)) for a in argv]
    assert run(*argv, "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: the profile has no parameter block\n"
    assert not (out / "run.json").exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    # grid is analyze's key: construct ignores it, so one file serves both
    cfg.write_text(f"q=1\nlambda-minus=4\nn=512\ngrid=128\nout={out}\n")
    assert run("--config", str(cfg), "construct", "--k", "5") == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["lambda_minus"] == 4.0
    # the matching point moves off T/2 for asymmetric coefficients
    assert doc["t_bar"] / doc["T"] > 0.7


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a u_k at q = 1\n\nk=5\n   \n  # n=64 is not read\nn=512\n")
    out = tmp_path / "out"
    assert run("--config", str(cfg), "construct", "--out", str(out)) == 0
    config = json.loads((out / "run.json").read_text())["config"]
    assert config["k"] == 5 and config["n"] == 512


def test_config_file_supplies_required_flag(tmp_path):
    # keys may be spelled with _ or -, as the flag's dest or its name
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=5\nn=512\nlambda_minus=2\n")
    out = tmp_path / "out"
    assert run("--config", str(cfg), "construct", "--out", str(out)) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["k"] == 5 and doc["lambda_minus"] == 2.0


def test_config_file_after_command_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=5\nn=512\n")
    out = tmp_path / "out"
    assert run("construct", "--config", str(cfg), "--k", "6", "--out", str(out)) == 0
    assert json.loads((out / "result.json").read_text())["k"] == 6


def test_unknown_flag_on_command_line_rejected_with_config(tmp_path, capsys):
    # only config keys are dropped; the same flag typed by the user is an error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=128\n")
    assert run("--config", str(cfg), "construct", "--k", "5", "--grid=128",
               "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == "error: unrecognized arguments: --grid=128\n"


def test_config_key_no_command_takes_rejected(tmp_path, capsys):
    # a misspelt key is named and nothing runs; a key of another command
    # (grid, taken by analyze and sweep) is still dropped
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=128\nlambda_minsu=4\n")
    out = tmp_path / "out"
    assert run("--config", str(cfg), "construct", "--k", "5", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: unknown config key 'lambda-minsu'\n"
    assert not out.exists()


def test_config_key_is_not_an_abbreviation(tmp_path, capsys):
    # k=5 must not be read as --k-range=5
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=5\n")
    assert run("--config", str(cfg), "sweep", "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err == "error: the following arguments are required: --k-range\n"
    assert not (tmp_path / "out").exists()


def test_config_does_not_leak_into_next_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda-minus=4\n")
    base = ("construct", "--k", "5", "--n", "512")
    assert run("--config", str(cfg), *base, "--out", str(tmp_path / "a")) == 0
    assert run(*base, "--out", str(tmp_path / "b")) == 0
    lams = [json.loads((tmp_path / d / "result.json").read_text())["lambda_minus"]
            for d in "ab"]
    assert lams == [4.0, 1.0]


def test_run_record_written_by_main(tmp_path, construct_dir):
    # every command with an output directory gets run.json with the whole
    # command's time; plot writes one file and no run.json
    cmds = {
        "construct": ("--k", "5", "--n", "512"),
        "analyze": ("--input", str(construct_dir / "profile.txt"), "--grid", "64"),
        "verify": ("--suite", "recurrences"),
        "sweep": ("--k-range", "5", "--n", "512", "--grid", "64"),
    }
    for name, flags in cmds.items():
        out = tmp_path / name
        assert run(name, *flags, "--out", str(out)) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["command"] == name and "config" not in doc["config"]
        assert list(doc["timings"]) == [f"{name}_s"]
    assert json.loads((tmp_path / "sweep" / "run.json").read_text())["config"]["k_range"] == [5]
    plot_dir = tmp_path / "plot"
    plot_dir.mkdir()
    assert run("plot", "--input", str(tmp_path / "analyze" / "nodal.csv"),
               "--out", str(plot_dir / "n.svg")) == 0
    assert [p.name for p in plot_dir.iterdir()] == ["n.svg"]
    assert run("sweep", "--k-range", "3:4", "--out", str(tmp_path / "bad")) == 2
    assert not (tmp_path / "bad" / "run.json").exists()


def test_config_file_bad(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not key value\n")
    assert run("--config", str(cfg), "verify", "--suite", "recurrences",
               "--out", str(tmp_path)) == 3


def test_config_file_bad_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=1\nk=abc\n")
    assert run("--config", str(cfg), "verify", "--suite", "recurrences",
               "--out", str(tmp_path)) == 3
    # a config value is checked by its flag's type, as on the command line
    assert capsys.readouterr().err == "error: argument --k: invalid int value: 'abc'\n"
    assert not (tmp_path / "verify.json").exists()
    assert not (tmp_path / "run.json").exists()


def test_config_file_unknown_suite(tmp_path, capsys):
    # a config value takes the same choices as its flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=nope\n")
    assert run("--config", str(cfg), "verify", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: argument --suite: invalid choice: 'nope'")
    assert err.count("\n") == 1
    assert not (tmp_path / "verify.json").exists()


def test_sweep_jobs_must_be_positive(tmp_path, capsys):
    assert run("sweep", "--q", "1", "--k-range", "5", "--jobs", "0",
               "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_verify_negative_seed_exits_3(tmp_path, capsys):
    assert run("verify", "--suite", "hamiltonian", "--seed", "-1",
               "--out", str(tmp_path)) == 3
    assert capsys.readouterr().err == "error: argument --seed: must be at least 0, got -1\n"
    assert not (tmp_path / "verify.json").exists()


def test_verify_hamiltonian(tmp_path):
    assert run("verify", "--suite", "hamiltonian", "--seed", "0",
               "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert [c["name"] for c in doc["checks"]] == [
        "hamiltonian drift q=1.0", "hamiltonian drift q=1.5"]
    assert doc["all_pass"]
    # each check records the drifts of its five trajectories
    for c in doc["checks"]:
        assert len(c["drifts"]) == 5
        assert all(math.isfinite(d) and 0.0 <= d < 1e-6 for d in c["drifts"])


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_verify_hamiltonian_nan_drift_fails(tmp_path, monkeypatch):
    # one NaN drift among finite ones fails its check
    real = construct.hamiltonian_cauchy
    calls = []

    def nan_on_third(*args):
        calls.append(args)
        t, w, v, _ = real(*args[:4], 10)
        return t, w, v, float("nan") if len(calls) == 3 else 0.0

    monkeypatch.setattr(construct, "hamiltonian_cauchy", nan_on_third)
    assert run("verify", "--suite", "hamiltonian", "--seed", "0",
               "--out", str(tmp_path)) == 1
    # verify.json stays strict JSON: the NaN drift is written as null
    doc = json.loads((tmp_path / "verify.json").read_text(), parse_constant=_reject)
    assert [c["pass"] for c in doc["checks"]] == [False, True]
    assert [c["drifts"] for c in doc["checks"]] == [[0.0, 0.0, None, 0.0, 0.0], [0.0] * 5]
    assert len(calls) == 10


def _loaded_after_import(module, names, before="", after=""):
    """The ``names`` in ``sys.modules`` after ``import module`` in a fresh
    process, which runs the statements ``before`` first and ``after`` last."""
    code = (f"{before}\nimport sys, {module}\n{after}\n"
            f"print([m for m in {names!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(fields.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_cli_import_loads_no_scipy_subpackage():
    # the scipy subpackages and multiprocessing stay out of a CLI start;
    # dgtsv comes from the _flapack extension alone, and the writer's table
    # of powers of ten from integer arithmetic, without fractions or decimal
    heavy = ["scipy", "scipy.linalg", "scipy.interpolate", "scipy.optimize",
             "scipy.ndimage", "concurrent.futures.process", "fractions", "decimal"]
    assert _loaded_after_import("nodallab.cli", heavy) == "[]"


# find_spec("scipy") answers None, as if scipy were not on the path
_NO_SCIPY_SPEC = ("import importlib.util\n"
                  "find_spec = importlib.util.find_spec\n"
                  "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' "
                  "else find_spec(name, *a)")


def test_cli_import_without_scipy_spec_takes_the_fallback():
    # with no spec for scipy, dgtsv comes from scipy.linalg.lapack, as when
    # the _flapack file is missing
    names = ["scipy.linalg", "scipy.linalg._flapack"]
    got = _loaded_after_import("nodallab.cli", names, before=_NO_SCIPY_SPEC,
                               after="assert nodallab.construct.dgtsv is "
                                     "sys.modules['scipy.linalg.lapack'].dgtsv")
    assert got == str(names)


@pytest.mark.parametrize("before, loaded", [
    # _flapack and version.py run from their files, scipy's __init__ not at all
    ("", "['scipy.linalg._flapack']"),
    ("import scipy", "['scipy', 'scipy.linalg._flapack']"),
    # no spec: dgtsv from scipy.linalg.lapack, the version from import scipy
    (_NO_SCIPY_SPEC, "['scipy', 'scipy.linalg._flapack']"),
], ids=["fresh", "after-import-scipy", "no-scipy-spec"])
def test_run_json_scipy_version_in_a_fresh_process(before, loaded, tmp_path):
    after = (f"assert nodallab.cli.main(['construct', '--q', '1', '--k', '5', '--n', '256', "
             f"'--out', {str(tmp_path)!r}]) == 0")
    # the last line: construct prints its summary first
    names = ["scipy", "scipy.linalg._flapack"]
    out = _loaded_after_import("nodallab.cli", names, before, after)
    assert out.splitlines()[-1] == loaded
    versions = json.loads((tmp_path / "run.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__


def test_nodal_import_loads_neither_construct_nor_scipy():
    # the zero-set module needs neither the construction nor scipy
    assert _loaded_after_import("nodallab.nodal", ["nodallab.construct", "scipy"]) == "[]"


def test_sweep_jobs_match_serial(tmp_path):
    rows = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run("sweep", "--q", "1", "--k-range", "5:6", "--n", "512", "--grid", "128",
                   "--jobs", jobs, "--out", str(out)) == 0
        rows.append((out / "sweep.csv").read_text())
    assert rows[0] == rows[1]
