"""pytest-benchmark cases for single layers of nodallab.

Outside the Tier-1 ``testpaths``, so a plain ``pytest`` does not collect
them.  Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

and add ``--benchmark-json=<file>`` to keep the numbers.  Each case checks
its result, so a fast wrong answer does not count.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nodallab import cli, fields
from nodallab.construct import (
    _solve_positive_arc, construct_uk, count_sign_changes, hamiltonian_cauchy, psi,
    time_map_t_bar,
)
from nodallab.fields import GridField
from nodallab.functionals import (
    _THETA, InconclusiveError, check_derivative_identities, eval_F, eval_Nt, monotonicity_scan,
    trace, transition_exponent,
)
from nodallab.nodal import (
    detect_singular, extract_and_detect, extract_nodal_set, nodal_length,
)
from nodallab.orders import estimate_order
from nodallab.params import ProblemParams


@pytest.fixture(scope="module")
def uk15():
    """u_k at q = 1.5, k = 9: a homogeneous field of degree gamma_q = 4."""
    return construct_uk(ProblemParams(q=1.5), 9).to_field()


@pytest.fixture(scope="module")
def uk15_grid(uk15):
    """The 513^2 grid sample of u_k at q = 1.5, k = 9."""
    return GridField.sample(uk15, 513)


def test_solve_positive_arc_q15_n2048(benchmark):
    q, lam, gamma2, length, n = 1.5, 1.0, 16.0, 0.3, 2048
    phi = benchmark(_solve_positive_arc, q, lam, gamma2, length, n)
    # a positive, symmetric solution of -phi'' - gamma^2 phi = lam phi^(q-1)
    h = length / (n + 1)
    p = np.concatenate(([0.0], phi, [0.0]))
    res = -(p[2:] - 2.0 * p[1:-1] + p[:-2]) / h**2 - gamma2 * phi - lam * phi ** (q - 1.0)
    assert np.all(phi > 0) and np.max(np.abs(phi - phi[::-1])) < 1e-9 * phi.max()
    assert np.max(np.abs(res)) < 1e-8 * lam * phi.max() ** (q - 1.0)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_hamiltonian_cauchy_1e4_steps(benchmark, q):
    p = ProblemParams(q=q)
    _, w, _, drift = benchmark(hamiltonian_cauchy, p, 0.7, -0.3, 1e-3, 10000)
    assert len(w) == 10001 and drift < 1e-6


def test_hamiltonian_cauchy_crossings(benchmark):
    # a fast swing at q = 1.5: many steps cross w = 0 and are split there
    p = ProblemParams(q=1.5, lambda_plus=4.0, lambda_minus=4.0)
    _, w, _, drift = benchmark(hamiltonian_cauchy, p, 0.0, 1.0, 1e-2, 3000)
    assert count_sign_changes(w) >= 20 and drift < 1e-6


def test_hamiltonian_suite_seed0(benchmark):
    # the ten trajectories of `nodallab verify --suite hamiltonian --seed 0`
    def suite():
        checks = []
        cli._suite_hamiltonian(SimpleNamespace(seed=0), checks)
        return checks

    checks = benchmark(suite)
    assert [c[1] for c in checks] == [True, True]


def test_construct_uk_q1_k5(benchmark):
    mr = benchmark(construct_uk, ProblemParams(q=1.0), 5)
    assert mr.zero_count == 10 and mr.psi_residual < 1e-6


def test_time_map_q15_k9(benchmark):
    p, k = ProblemParams(q=1.5), 9
    t = benchmark(time_map_t_bar, p, k)
    # equal phases meet at T/2, and the grid root at n = 2048 is 1e-7 away
    T = 2.0 * np.pi / k
    assert abs(t - T / 2) < 1e-13
    assert abs(psi(p, k, t)) < 1e-4 * abs(psi(p, k, 0.45 * T))


def test_construct_uk_q15_lm2_k9(benchmark):
    mr = benchmark(construct_uk, ProblemParams(q=1.5, lambda_minus=2.0), 9)
    assert mr.zero_count == 18 and mr.psi_residual < 1e-6 and mr.psi_calls <= 6


def test_trace_D_50_radii(benchmark, uk15):
    radii = np.linspace(0.1, 1.0, 50)
    tr = benchmark(trace, uk15, "D", (0.0, 0.0), radii, t=2.0)
    # every term of D_t scales as r^(2 gamma) on a homogeneous solution
    c = tr.values / radii ** (2.0 * uk15.gamma)
    assert np.ptp(c) < 1e-10 * abs(np.mean(c))


def test_trace_D_off_origin(benchmark, uk15):
    # off the origin every ring is evaluated at its Cartesian points
    x0, radii = (0.05, 0.0), np.linspace(0.1, 0.9, 10)
    tr = benchmark(trace, uk15, "D", x0, radii, t=2.0)
    # one panel per radius integrates the same D to quadrature accuracy
    single = np.array([trace(uk15, "D", x0, [r], t=2.0).values[0] for r in radii])
    assert np.all(np.abs(tr.values - single) < 1e-5 * np.abs(single))


def test_trace_D_50_radii_off_origin_nodal(benchmark, uk15):
    # about a nodal point off the origin the field is not separated there,
    # so every ring is Gauss-Legendre panel rings at their Cartesian points
    x0, radii = (0.3, 0.0), np.linspace(0.01, 0.7, 50)
    assert uk15(*x0) == 0.0
    tr = benchmark(trace, uk15, "D", x0, radii, t=2.0)
    # one panel per radius integrates the same D to quadrature accuracy; the
    # glued profile has kinks on the nodal rays that cross these rings, so the
    # two panel splits differ by about 2e-5 at r = 0.25 and 0.43
    picks = [0, 17, 30, 49]
    single = np.array([trace(uk15, "D", x0, [r], t=2.0).values[0] for r in radii[picks]])
    assert np.all(np.abs(tr.values[picks] - single) < 1e-4 * np.abs(single))


def test_trace_D_grid_sample_off_origin(benchmark, uk15, uk15_grid):
    # the pointwise GridField path: about a nodal point off the origin every
    # ring of the bulk ladder is one ``value_and_grad`` call at its Cartesian
    # points, three bilinear blends each
    x0, radii = (0.3, 0.0), np.geomspace(0.05, 0.6, 10)
    tr = benchmark(trace, uk15_grid, "D", x0, radii, t=1.5)
    # the bilinear sample's D is within 1.2 % of the exact field's on this ladder
    exact = trace(uk15, "D", x0, radii, t=1.5).values
    assert np.all(np.abs(tr.values - exact) < 0.02 * exact)


def test_eval_Nt_uk_r1(benchmark, uk15):
    # the frequency of a gamma_q-homogeneous solution is gamma_q = 4
    nq = benchmark(eval_Nt, uk15, (0.0, 0.0), 1.0, 1.5)
    assert abs(nq - 4.0) < 1e-4


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_eval_F_49x1021(benchmark, uk15, q):
    # the values of one bulk-ladder annulus: signs come in runs between the
    # 18 nodal rays, as on every ring the quadrature evaluates
    r = np.linspace(0.02, 1.0, 49)[:, None]
    th = _THETA  # the ladder's 1021 angles
    s = uk15(r * np.cos(th), r * np.sin(th))
    p = ProblemParams(q=q, lambda_minus=2.5, mu=0.5)
    f = benchmark(eval_F, p, s)
    # mu lambda_(+-) |s|^q on each side of 0
    want = 0.5 * np.where(s > 0, 1.0, 2.5) * np.abs(s) ** q
    assert f.shape == s.shape and np.allclose(f, want, rtol=1e-15, atol=0.0)


def test_value_and_grad_annulus_49x1021(benchmark, uk15):
    r = np.linspace(0.02, 1.0, 49)[:, None]
    th = _THETA
    x, y = r * np.cos(th), r * np.sin(th)
    v, (gx, gy) = benchmark(uk15.value_and_grad, x, y)
    # Euler's identity for a field homogeneous of degree gamma
    assert np.max(np.abs(x * gx + y * gy - uk15.gamma * v)) < 1e-12 * np.max(np.abs(v))


# the gamma grid and ladders of the weiss-ladder perfbench workload at order 4
WEISS_GAMMAS = np.arange(3.5, 4.5001, 0.05)
WEISS_LINEAR_LADDER = np.linspace(0.1, 1.0, 4)
WEISS_DERIVATIVE_LADDER = np.array([0.6])
WEISS_GEOMETRIC_LADDER = np.geomspace(0.02, 0.8, 6)
WEISS_DYADIC_LADDER = 0.5 * 2.0 ** -np.arange(8.0)[::-1]


def test_monotonicity_scan_uk15(benchmark, uk15):
    scan = benchmark(monotonicity_scan, uk15, (0.0, 0.0), 4.0, WEISS_LINEAR_LADDER)
    # W(gamma_q, 2) is constant in r, and negative, on a gamma_q-homogeneous solution
    w = np.asarray(scan["values"])
    assert scan["verdict"] == "monotone" and np.ptp(w) < 1e-4 * abs(w.mean()) and w.mean() < 0


def test_check_derivative_identities_uk15(benchmark, uk15):
    rep = benchmark(check_derivative_identities, uk15, (0.0, 0.0), WEISS_DERIVATIVE_LADDER, 4.0, 2.0)
    # criterion 05's bound on u_k: the r -+ step rows are apart, so no sort merges them
    assert max(rep["H_prime_max_residual"], rep["W_prime_max_residual"]) < 1e-3


def test_transition_exponent_uk15(benchmark, uk15):
    est = benchmark(transition_exponent, uk15, (0.0, 0.0), WEISS_GAMMAS, WEISS_GEOMETRIC_LADDER)
    # W(gamma, 2) diverges as r -> 0 exactly for gamma above the order gamma_q = 4
    assert abs(est - 4.0) <= 0.05 + 1e-12


def test_transition_exponent_uk15_cold(benchmark, uk15):
    # a fresh field about the same profile every round, so each pays for its
    # angular sums (phi and phi' on the ladder angles) once
    def fresh():
        return (fields.HomogeneousField(uk15.gamma, uk15.profile, uk15.params),), {}

    est = benchmark.pedantic(
        lambda f: transition_exponent(f, (0.0, 0.0), WEISS_GAMMAS, WEISS_GEOMETRIC_LADDER),
        setup=fresh, rounds=500, warmup_rounds=5)
    assert abs(est - 4.0) <= 0.05 + 1e-12


def test_estimate_order_uk15(benchmark, uk15):
    est = benchmark(estimate_order, uk15, (0.0, 0.0), WEISS_DYADIC_LADDER)
    assert est.snapped == 4.0 and abs(est.raw_slope - 4.0) < 0.05
    assert abs(est.h1_slope - 4.0) < 0.05 and est.nondegeneracy_ratio > 0


def test_estimate_order_grid_sample(benchmark, uk15_grid):
    # a fresh GridField per round, so each pays for its bilinear noise bound
    est = benchmark(lambda: estimate_order(GridField(uk15_grid.values, uk15_grid.params),
                                           (0.0, 0.0), WEISS_DYADIC_LADDER))
    # the bound drops the circles where bilinear error swamps H
    assert est.snapped == 4.0 and abs(est.raw_slope - 4.0) < 0.05 and est.nondegeneracy_ratio > 0


def _transition_bracket(field):
    """The bracket of an inconclusive transition exponent; the estimate otherwise."""
    try:
        return transition_exponent(field, (0.0, 0.0), WEISS_GAMMAS, WEISS_GEOMETRIC_LADDER)
    except InconclusiveError as exc:
        return exc.bracket


def test_transition_exponent_grid_sample(benchmark, uk15_grid):
    # the grid branch of the ladder's error row: the bilinear bound over each
    # circle's RMS.  On this ladder it keeps every W above the floor bounded,
    # so the sample reads "no divergent gamma" above the grid's top gamma
    bracket = benchmark(_transition_bracket, uk15_grid)
    assert bracket[1] is None and abs(bracket[0] - 4.5) < 1e-9


def test_monotonicity_scan_grid_sample(benchmark, uk15_grid):
    scan = benchmark(monotonicity_scan, uk15_grid, (0.0, 0.0), 4.0, WEISS_GEOMETRIC_LADDER)
    w = np.asarray(scan["values"])
    assert scan["verdict"] == "monotone" and np.all(w < 0) and np.all(np.diff(w) > 0)


def test_extract_nodal_set_n512(benchmark, uk15):
    ns = benchmark(extract_nodal_set, uk15, 512)
    # the nodal set of u_k is 2k = 18 rays from the origin
    assert abs(nodal_length(ns, 1.0) - 18.0) < 0.05 * 18.0


def test_extract_nodal_set_n256(benchmark, uk15):
    ns = benchmark(extract_nodal_set, uk15, 256)
    assert abs(nodal_length(ns, 1.0) - 18.0) < 0.05 * 18.0


def test_nodal_length_half_n512(benchmark, uk15):
    # the clip at r = 1/2 cuts every ray of the n = 512 extraction
    ns = extract_nodal_set(uk15, 512)
    length = benchmark(nodal_length, ns, 0.5)
    # 18 rays of length 1/2 inside B_{1/2}
    assert abs(length - 9.0) < 0.05 * 9.0


def test_extract_nodal_set_grid_sample_n512(benchmark, uk15_grid):
    ns = benchmark(extract_nodal_set, uk15_grid, 512)
    # bilinear samples of the 18 rays keep the length within a few per cent
    assert abs(nodal_length(ns, 1.0) - 18.0) < 0.05 * 18.0


def test_extract_nodal_set_grid_sample_n256(benchmark, uk15_grid):
    ns = benchmark(extract_nodal_set, uk15_grid, 256)
    assert abs(nodal_length(ns, 1.0) - 18.0) < 0.05 * 18.0


def test_grid_sample_513(benchmark, uk15):
    grid = benchmark(GridField.sample, uk15, 513)
    # the banded samples are the field's own values
    xs = np.linspace(-1.0, 1.0, 513)
    rows = [0, 97, 256, 400, 512]
    X, Y = np.meshgrid(xs[rows], xs, indexing="ij")
    assert np.array_equal(grid.values[rows], uk15(X, Y))
    # bands keep one call's peak allocation near the grid's own arrays, with
    # no full-square coordinates or temporaries
    tracemalloc.start()
    GridField.sample(uk15, 513)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 12 * 2**20


def test_homogeneous_band_32x513(benchmark, uk15):
    # one band of the 513^2 sampler: 32 grid rows as a column, every column
    # as a row, one broadcast call
    xs = np.linspace(-1.0, 1.0, 513)
    x, y = xs[200:232, None], xs[None, :]
    band = benchmark(uk15, x, y)
    X, Y = np.meshgrid(xs[200:232], xs, indexing="ij")
    assert band.shape == (32, 513) and np.array_equal(band, uk15(X, Y))
    want = np.hypot(X, Y) ** uk15.gamma * uk15.profile(np.arctan2(Y, X))
    assert np.allclose(band, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("source", ["u_k", "grid_sample"])
def test_analyze_nodal_stage_n256(benchmark, uk15, uk15_grid, source):
    # the nodal stage of ``nodallab analyze``: one sample of the disk, then
    # extraction and detection on it
    field = uk15 if source == "u_k" else uk15_grid
    ns, reps = benchmark(extract_and_detect, field, 256)
    # 18 rays of length 1/2 in B_{1/2}, and the origin as the one singular point
    length = nodal_length(ns, 0.5)
    assert abs(length - 9.0) < 0.05 * 9.0
    assert len(reps) == 1 and np.hypot(reps[0][0], reps[0][1]) < 0.05


def test_homogeneous_origin_call(benchmark, uk15):
    # one scalar call at the vertex: what the nodal test of estimate_order
    # and transition_exponent saves there by taking u(x0) = 0 from the
    # separated form; at a centre off the vertex it makes one such call
    u0 = benchmark(uk15, 0.0, 0.0)
    assert u0 == 0.0


def test_detect_singular_n256(benchmark, uk15):
    reps = benchmark(detect_singular, uk15, 256)
    # the singular set of u_k is the origin alone
    assert len(reps) == 1 and np.hypot(reps[0][0], reps[0][1]) < 0.05


def test_detect_singular_grid_sample_n256(benchmark, uk15_grid):
    reps = benchmark(detect_singular, uk15_grid, 256)
    # the bilinear sample's minima along the flat nodal rays change sign
    # twice on their ring and are dropped: the origin alone is left
    assert len(reps) == 1 and np.hypot(reps[0][0], reps[0][1]) < 0.05


def test_detect_singular_n512(benchmark, uk15):
    reps = benchmark(detect_singular, uk15, 512)
    assert len(reps) == 1 and np.hypot(reps[0][0], reps[0][1]) < 0.05


def _two_roots(x, y):
    z = x + 1j * y
    return (z - 0.3) ** 2 * (z + 0.4 - 0.2j) ** 3


def _two_roots_prime(x, y):
    z = x + 1j * y
    return (z - 0.3) * (z + 0.4 - 0.2j) ** 2 * (2 * (z + 0.4 - 0.2j) + 3 * (z - 0.3))


def test_detect_singular_two_roots_n256(benchmark):
    # Re((z - 0.3)^2 (z + 0.4 - 0.2i)^3) (mu = 0): two singular points, of
    # orders 2 and 3, joined by nodal lines whose pixels pass both thresholds
    field = fields.ClosedFormField(
        lambda x, y: np.real(_two_roots(x, y)),
        lambda x, y: (np.real(_two_roots_prime(x, y)), np.real(1j * _two_roots_prime(x, y))))
    reps = benchmark(detect_singular, field, 256)
    assert len(reps) == 2
    for root in (0.3, -0.4 + 0.2j):
        assert min(abs(complex(x, y) - root) for x, y, *_ in reps) < 0.02


def test_detect_singular_large_k_n256(benchmark):
    # u_k at q = 1.9, lambda_- = 1, k = 180: 360 rays, closer than a pixel out
    # to r = 0.45, and one singular point, the vertex
    field = construct_uk(ProblemParams(q=1.9, lambda_minus=1.0), 180).to_field()
    reps = benchmark(detect_singular, field, 256)
    assert len(reps) == 1 and np.hypot(reps[0][0], reps[0][1]) <= 2.0 / 255


def test_detect_singular_close_roots_n128(benchmark):
    # Re((z - 0.1)^2 (z + 0.1)^2): two order-2 points 12.7 pixels apart
    field = fields.ClosedFormField(
        lambda x, y: np.real((x + 1j * y - 0.1) ** 2 * (x + 1j * y + 0.1) ** 2),
        lambda x, y: (0 * x, 0 * y))
    reps = benchmark(detect_singular, field, 128)
    assert len(reps) == 2
    for root in (0.1, -0.1):
        assert min(abs(complex(x, y) - root) for x, y, *_ in reps) <= 2.0 * 2.0 / 127


def test_save_uk_profile(benchmark, uk15, tmp_path):
    # the profile file `nodallab construct` writes: two lines of about 4100
    # %.17g decimals each
    path = tmp_path / "profile.txt"
    benchmark(fields.save, uk15.profile, path)
    # the text round trip is bit exact
    back = fields.load(path)
    assert back.values.tobytes() == uk15.profile.values.tobytes()
    assert back.derivative.tobytes() == uk15.profile.derivative.tobytes()


def test_save_uk_grid_513(benchmark, uk15_grid, tmp_path):
    # the 513^2 grid file of u_k (about 6 MB): 513 lines of 513 decimals
    path = tmp_path / "grid.txt"
    benchmark(fields.save, uk15_grid, path)
    assert fields.load(path).values.tobytes() == uk15_grid.values.tobytes()


def test_save_csv_nodal_set_n512(benchmark, uk15, tmp_path):
    # the nodal.csv `analyze --grid 512` writes: four decimals per segment
    ns = extract_nodal_set(uk15, 512)
    path = tmp_path / "nodal.csv"
    benchmark(ns.save_csv, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.tobytes() == ns.segments.reshape(-1, 4).tobytes()


def test_cold_import_cli(benchmark):
    # a fresh interpreter per round, as every nodallab command starts one
    heavy = ["scipy", "scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.ndimage",
             "concurrent.futures.process"]
    code = ("import sys, nodallab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def start():
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    out = benchmark.pedantic(start, rounds=7, iterations=1, warmup_rounds=1)
    assert out.strip() == "[]"


def test_cli_construct_then_analyze(benchmark, tmp_path):
    profile = tmp_path / "c" / "profile.txt"

    def run():
        assert cli.main(["construct", "--q", "1.5", "--lambda-minus", "2", "--k", "9",
                         "--out", str(tmp_path / "c")]) == 0
        assert cli.main(["analyze", "--input", str(profile), "--out", str(tmp_path / "a")]) == 0
        return json.loads((tmp_path / "a" / "analysis.json").read_text())

    report = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    # frequency gamma_q = 4 at q = 1.5, and 2k = 18 nodal rays of length 1/2
    assert abs(report["frequency_at_1"] - 4.0) < 1e-4
    assert abs(report["nodal_length_half"] - 9.0) < 0.05 * 9.0
    assert report["singular_clusters"] >= 1


def test_cli_verify_recurrences(benchmark, tmp_path):
    # a command with little numerical work: parsing, the output directory and
    # run.json are most of its time
    out = tmp_path / "v"

    def run():
        assert cli.main(["verify", "--suite", "recurrences", "--q", "1.5",
                         "--out", str(out)]) == 0
        return json.loads((out / "verify.json").read_text())

    report = benchmark.pedantic(run, rounds=20, iterations=1, warmup_rounds=1)
    assert report["all_pass"] and len(report["checks"]) == 6
    assert json.loads((out / "run.json").read_text())["config"]["q"] == 1.5
