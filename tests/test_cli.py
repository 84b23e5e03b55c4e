import json

import numpy as np
import pytest

from nodallab import fields
from nodallab.cli import main


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


def test_construct_outputs(construct_dir):
    for name in ("profile.txt", "result.json", "summary.txt", "run.json"):
        assert (construct_dir / name).exists()
    doc = json.loads((construct_dir / "result.json").read_text())
    assert doc["k"] == 5
    assert doc["zero_count"] == 10
    assert doc["energy_drift"] < 1e-5
    summary = (construct_dir / "summary.txt").read_text()
    assert "N_q" in summary


def test_construct_small_k_exits_2(tmp_path):
    code = run("construct", "--q", "1", "--k", "4", "--out", str(tmp_path))
    assert code == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert "k_bar" in err["message"]


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
    assert doc["profile_zeros"]["count"] == 10
    assert doc["singular_clusters"] == 1
    assert (out / "nodal.csv").exists()


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


def test_verify_recurrences(tmp_path):
    assert run("verify", "--suite", "recurrences", "--q", "1.5",
               "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"]


def test_verify_unknown_suite(tmp_path):
    assert run("verify", "--suite", "nope", "--out", str(tmp_path)) == 3


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


def test_sweep(tmp_path):
    code = run("sweep", "--q", "1", "--k-range", "5:6", "--n", "512",
               "--grid", "128", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k,t_bar,N_q,nodal_length_half,energy_drift,status"
    assert len(lines) == 3
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["5", "6"]
    assert all(r[-1] == "ok" for r in rows)
    # nodal length grows with k
    assert float(rows[1][3]) > float(rows[0][3])


def test_sweep_empty_range(tmp_path):
    assert run("sweep", "--q", "1", "--k-range", "", "--out", str(tmp_path)) == 0
    assert (tmp_path / "sweep.csv").read_text().strip().count("\n") == 0


def test_sweep_bad_k(tmp_path):
    assert run("sweep", "--q", "1", "--k-range", "3:4",
               "--out", str(tmp_path)) == 2


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


def test_plot_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert run("plot", "--input", str(bad), "--out", str(tmp_path / "x.svg")) == 3
    assert run("plot", "--input", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "y.svg")) == 3


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"q=1\nlambda-minus=4\nn=512\nout={out}\n")
    assert run("--config", str(cfg), "construct", "--k", "5") == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["lambda_minus"] == 4.0
    # the matching point moves off T/2 for asymmetric coefficients
    assert doc["t_bar"] / doc["T"] > 0.7


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
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "k='abc'" in err
    assert len(err.splitlines()) == 1


def test_sweep_jobs_must_be_positive(tmp_path, capsys):
    assert run("sweep", "--q", "1", "--k-range", "5", "--jobs", "0",
               "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_verify_negative_seed_exits_3(tmp_path, capsys):
    assert run("verify", "--suite", "hamiltonian", "--seed", "-1",
               "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err.strip()
    assert err == "error: --seed must be non-negative, got -1"
    assert not (tmp_path / "verify.json").exists()


def test_verify_hamiltonian(tmp_path):
    assert run("verify", "--suite", "hamiltonian", "--seed", "0",
               "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert [c["name"] for c in doc["checks"]] == [
        "hamiltonian drift q=1.0", "hamiltonian drift q=1.5"]
    assert doc["all_pass"]
