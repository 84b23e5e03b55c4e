"""Acceptance suite: one test per criterion, one pass/fail line each.

The constructed family is shared through module fixtures; every quantitative
tolerance is stated next to its check.
"""

import numpy as np
import pytest

from nodallab.construct import construct_uk, hamiltonian_cauchy, psi
from nodallab.fields import monomial_field
from nodallab.functionals import (
    check_derivative_identities, eval_Nt, trace, transition_exponent,
)
from nodallab.nodal import (
    detect_singular, extract_nodal_set, nodal_length, profile_zero_structure,
)
from nodallab.orders import estimate_order
from nodallab.params import ProblemParams, beta_k_sequence, beta_q, gamma_q, k_bar, sigma_k_sequence

ORIGIN = (0.0, 0.0)


def report(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def family():
    """Constructed profiles for q in {1, 1.5}, lambda in {(1,1), (1,4)},
    k in {k_bar+1, k_bar+3}."""
    out = {}
    for q in (1.0, 1.5):
        for lm in (1.0, 4.0):
            p = ProblemParams(q=q, lambda_minus=lm)
            kb = k_bar(p)
            for k in (kb + 1, kb + 3):
                out[(q, lm, k)] = construct_uk(p, k)
    return out


@pytest.fixture(scope="module")
def q1_ladder():
    """q=1, lambda=(1,1) constructions for k = 5..10."""
    p = ProblemParams(q=1.0)
    return {k: construct_uk(p, k) for k in range(5, 11)}


def independent_quotient(field, p, n_r=800, n_th=1600):
    """(int_B |grad u|^2 - F(u)) / int_S u^2 at radius 1, by midpoint rules
    (different nodes and weights than the package quadrature)."""
    rs = (np.arange(n_r) + 0.5) / n_r
    th = (np.arange(n_th) + 0.5) * 2 * np.pi / n_th
    R, TH = np.meshgrid(rs, th, indexing="ij")
    X, Y = R * np.cos(TH), R * np.sin(TH)
    u, (gx, gy) = field.value_and_grad(X, Y)
    F = p.mu * (p.lambda_plus * np.clip(u, 0, None) ** p.q
                + p.lambda_minus * np.clip(-u, 0, None) ** p.q)
    w = R / n_r * (2 * np.pi / n_th)
    bulk = float(np.sum((gx * gx + gy * gy - F) * w))
    ub = field(np.cos(th), np.sin(th))
    circ = float(np.sum(ub * ub)) * 2 * np.pi / n_th
    return bulk / circ


def test_criterion_01_frequency_identity(family):
    rel, gap = [], []
    for (q, lm, k), mr in family.items():
        p = mr.params
        field = mr.to_field()
        g = gamma_q(p)
        nq = eval_Nt(field, ORIGIN, 1.0, q)
        rel.append(abs(nq - g) / g)
        gap.append(abs(nq - independent_quotient(field, p)))
    # every residual is held to the bound: a max fold would let a NaN through
    report(1, "frequency identity N_q = 2/(2-q) on the constructed family",
           all(x < 1e-3 for x in rel + gap),
           f"max rel err {max(rel):.1e}, max quadrature gap {max(gap):.1e}")


def test_criterion_02_nodal_count_and_length(q1_ladder):
    ok = True
    lengths = []
    for k, mr in sorted(q1_ladder.items()):
        ok &= mr.zero_count == 2 * k
        L = nodal_length(extract_nodal_set(mr.to_field(), 256), 0.5)
        lengths.append(L)
        ok &= abs(L - k * 1.0) < 0.05 * k
    ok &= all(b > a for a, b in zip(lengths, lengths[1:]))
    report(2, "2k zeros and nodal length k within 5 percent, increasing in k",
           bool(ok), "lengths " + ", ".join(f"{x:.3f}" for x in lengths))


def test_criterion_03_energy_conservation(family):
    # glued profiles: the q=1 two-phase configurations at the default n=2048
    glue = [mr.energy_drift for (q, lm, k), mr in family.items() if q == 1.0]
    rk = []
    rng = np.random.default_rng(0)
    for q in (1.0, 1.5):
        p = ProblemParams(q=q)
        for _ in range(5):
            w0, v0 = rng.uniform(-1.0, 1.0, size=2)
            rk.append(hamiltonian_cauchy(p, w0, v0, 1e-3, 10000)[3])
    # every drift is held to the bound: a max fold would let a NaN through
    report(3, "glued-profile and RK4 Hamiltonian energy drift below 1e-6",
           all(d < 1e-6 for d in glue + rk),
           f"glue {max(glue):.1e}, rk4 {max(rk):.1e}")


def _w_over_ladder(field, radii, gammas):
    """W(gamma, 2; r) for every gamma, from one D and one H trace of the ladder."""
    D = trace(field, "D", ORIGIN, radii, t=2.0).values
    H = trace(field, "H", ORIGIN, radii).values
    out = np.empty((len(gammas), len(radii)))
    for j, r in enumerate(radii):
        for i, g in enumerate(gammas):
            out[i, j] = r ** -(2 * g) * D[j] - g * r ** -(1 + 2 * g) * H[j]
    return out


def test_criterion_04_weiss_monotonicity(family):
    radii = np.linspace(0.1, 1.0, 50)
    ok = True
    details = []
    cases = [(family[(1.0, 1.0, 5)].to_field(), 2.0),
             (family[(1.5, 1.0, 9)].to_field(), 4.0),
             (monomial_field(2), 2.0),
             (monomial_field(3), 2.0)]
    for field, g in cases:
        gammas = [g, g + 0.5, g + 1.0]
        W = _w_over_ladder(field, radii, gammas)
        for i in range(len(gammas)):
            drops = W[i, :-1] - W[i, 1:] - 1e-6 * (1.0 + np.abs(W[i, :-1]))
            ok &= bool(np.all(drops <= 0))
    # radius-constancy of W at the critical exponent on the constructions
    for key in ((1.0, 1.0, 5), (1.5, 1.0, 9)):
        field = family[key].to_field()
        g = gamma_q(field.params)
        W = _w_over_ladder(field, radii, [g])[0]
        const = (W.max() - W.min()) / abs(W.mean())
        details.append(f"const {const:.1e}")
        ok &= const < 1e-4
        ok &= W.mean() < 0  # the constant is strictly negative
    report(4, "W nondecreasing for gamma >= gamma_q; constant at gamma_q",
           bool(ok), ", ".join(details))


def test_criterion_05_derivative_identities(family):
    radii = np.linspace(0.3, 0.9, 5)
    res_c = []
    for key in ((1.0, 1.0, 5), (1.5, 1.0, 9)):
        field = family[key].to_field()
        g = gamma_q(field.params)
        rep = check_derivative_identities(field, ORIGIN, radii, g, 2.0)
        res_c += [rep["H_prime_max_residual"], rep["W_prime_max_residual"]]
    res_m = []
    for d in (2, 3):
        rep = check_derivative_identities(monomial_field(d), ORIGIN, radii,
                                          2.0, 2.0)
        res_m += [rep["H_prime_max_residual"], rep["W_prime_max_residual"]]
    # every residual is held to its bound: a max fold would let a NaN through
    report(5, "H' and W' identities (1e-3 constructed, 1e-6 analytic)",
           all(x < 1e-3 for x in res_c) and all(x < 1e-6 for x in res_m),
           f"constructed {max(res_c):.1e}, analytic {max(res_m):.1e}")


@pytest.mark.parametrize("t_of_q", [lambda q: q, lambda q: (q + 2) / 2], ids=["t=q", "t=(q+2)/2"])
def test_criterion_05_w_prime_identity_away_from_t_2(family, t_of_q):
    # criterion 05's W' identity on its fields and to its bound at t < 2,
    # where the circle term (2 - t)/q int_S F does not vanish as at t = 2;
    # also at gamma_q + 0.5, where W is not constant
    radii = np.linspace(0.3, 0.9, 5)
    for key in ((1.0, 1.0, 5), (1.5, 1.0, 9)):
        field = family[key].to_field()
        g, t = gamma_q(field.params), t_of_q(field.params.q)
        for gamma in (g, g + 0.5):
            rep = check_derivative_identities(field, ORIGIN, radii, gamma, t)
            assert rep["W_prime_max_residual"] < 1e-3, (key, gamma, t)


def _criterion6_fields(family):
    cases = []
    for q in (1.0, 1.5):
        # harmonic monomials carry no source term
        p = ProblemParams(q=q, mu=0.0)
        for d in range(1, beta_q(p) + 1):
            f = monomial_field(d)
            f.params = p
            cases.append((f, float(d)))
    cases.append((family[(1.0, 1.0, 5)].to_field(), 2.0))
    cases.append((family[(1.5, 1.0, 9)].to_field(), 4.0))
    return cases


def test_criterion_06_order_classification(family):
    ladder = 0.5 * 2.0 ** -np.arange(8.0)[::-1]
    ok = True
    for field, want in _criterion6_fields(family):
        est = estimate_order(field, ORIGIN, ladder)
        ok &= est.snapped == want
        ok &= abs(est.raw_slope - want) < 0.05
        # non-degeneracy: the normalized norm must not decay dyad over dyad
        ratios = trace(field, "h1", ORIGIN, ladder).values ** 2 / ladder ** (2 * want)
        ok &= bool(np.all(ratios[:-1] / ratios[1:] > 0.9))
        ok &= bool(np.all(ratios > 0))
    report(6, "orders snap to d or gamma_q with bounded nondegeneracy ratio",
           bool(ok))


def test_criterion_07_transition_exponent(family):
    radii = np.geomspace(0.02, 0.8, 25)
    gaps = []
    for field, want in _criterion6_fields(family):
        gammas = np.arange(want - 0.5, want + 0.5001, 0.05)
        est = transition_exponent(field, ORIGIN, gammas, radii)
        gaps.append(abs(est - want))
    # every gap is held to the bound: a max fold would let a NaN through
    report(7, "transition exponent brackets the order within 0.05",
           all(x <= 0.05 + 1e-12 for x in gaps), f"max gap {max(gaps):.3f}")


def test_criterion_08_matching_symmetry(family):
    ok = True
    gaps = []
    for (q, lm, k), mr in family.items():
        if lm == 1.0:  # symmetric coefficients
            gaps.append(abs(mr.t_bar - mr.T / 2))
        T = mr.T
        ok &= psi(mr.params, k, 0.05 * T, 1024) > 0
        ok &= psi(mr.params, k, 0.95 * T, 1024) < 0
    # every gap is held to the bound: a max fold would let a NaN through
    report(8, "t_bar = T/2 for symmetric coefficients; Psi sign pattern",
           bool(ok) and all(x < 1e-6 for x in gaps), f"max |t_bar - T/2| = {max(gaps):.1e}")


def test_criterion_09_recurrences():
    ok = True
    for q in (1.2, 1.5):
        p = ProblemParams(q=q)
        g = gamma_q(p)
        seq = beta_k_sequence(p, 60)
        # strict increase until double precision saturates at the limit
        ok &= all(b2 > b1 or g - b1 < 1e-12 for b1, b2 in zip(seq, seq[1:]))
        ok &= all(b2 >= b1 for b1, b2 in zip(seq, seq[1:]))
        ok &= all(b != round(b) for b in seq[1:])
        ok &= abs(seq[-1] - g) < 1e-3
    for q in (1.0, 1.2, 1.5):
        p = ProblemParams(q=q)
        seq = sigma_k_sequence(p, 60)
        ok &= all(b > a for a, b in zip(seq, seq[1:]))
        ok &= all(s2 < (2.0 + q * s1) / 2.0 for s1, s2 in zip(seq, seq[1:]))
        ok &= abs(seq[-1] - gamma_q(p)) < 1e-3
    report(9, "beta_k and sigma_k recurrences converge to 2/(2-q)", bool(ok))


def test_criterion_10_singular_set(family):
    ok = True
    details = []
    for key in ((1.0, 1.0, 5), (1.0, 4.0, 5), (1.5, 1.0, 9), (1.5, 4.0, 9)):
        mr = family[key]
        sing = detect_singular(mr.to_field(), 256)
        ok &= len(sing) == 1
        ok &= np.hypot(sing[0][0], sing[0][1]) < 0.05
        # profile zeros are nondegenerate: slope at each zero bounded away from 0
        slopes = profile_zero_structure(mr.profile)["slopes"]
        m = min(abs(s) for s in slopes) / np.max(np.abs(mr.profile.values))
        details.append(f"{m:.2f}")
        ok &= m > 1e-3
    report(10, "singular set is exactly the origin; profile slopes nonzero",
           bool(ok), "min |phi'| / scale: " + ", ".join(details))


def test_criterion_11_convergence_orders(q1_ladder):
    p = ProblemParams(q=1.0, lambda_minus=3.0)
    tb = {n: construct_uk(p, 5, n=n).t_bar for n in (256, 512, 1024)}
    r_t = (tb[256] - tb[512]) / (tb[512] - tb[1024])
    field = q1_ladder[5].to_field()
    L = {n: nodal_length(extract_nodal_set(field, n), 0.5)
         for n in (128, 256, 512)}
    r_l = (L[128] - L[256]) / (L[256] - L[512])
    ok = abs(r_t - 4.0) < 0.3 * 4.0 and abs(r_l - 2.0) < 0.3 * 2.0
    report(11, "t_bar second order, nodal length first order",
           ok, f"Richardson ratios {r_t:.2f} (nominal 4), {r_l:.2f} (nominal 2)")
