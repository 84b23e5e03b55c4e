"""The Weiss family in N = 3, on cylinders over criterion 01's u_k family.

The cylinder U(x, y, z) = u_k(x, y) solves the equation in R^3 and is
gamma_q-homogeneous about the origin, so every ladder row is closed form: the
2-d angular sums of ``_angular_sums`` times S_a = int_0^pi sin^a(theta) and a
power of r.  ``_cylinder`` builds those rows as a ``_Ladder`` with dim = 3,
and the ``n3`` fixture hands it to every ladder reader of ``functionals`` and
``orders``.  No field wrapper is used: a 3-d field would need a 3-d quadrature
in ``src/``, and the readers need only the ladder.  Each check holds at the
tolerance its N = 2 criterion uses; a term of the Weiss family that is
written for N = 2 alone (N - 2 read as 0, N - 1 as 1) fails one of them.
"""

import math

import numpy as np
import pytest

from nodallab import functionals, orders
from nodallab.construct import construct_uk
from nodallab.functionals import (
    _angular_sums, _Ladder, _ladder_radii, check_derivative_identities, eval_Nt,
    monotonicity_scan, trace,
)
from nodallab.orders import estimate_order
from nodallab.params import ProblemParams, gamma_q, k_bar

ORIGIN = (0.0, 0.0)


def _s(a):
    """S_a = int_0^pi sin^a(theta) dtheta."""
    return math.sqrt(math.pi) * math.gamma((a + 1) / 2) / math.gamma(a / 2 + 1)


def _cylinder(field, radii):
    """The ladder at N = 3 about the origin of U(x, y, z) = u(x, y), for a
    field u = r^gamma phi(theta) about the origin.  With P = int phi^2,
    Q = int (gamma^2 phi^2 + phi'^2) and Fs = int F(phi) over the angle:
    H = S_(2g+1) P r^(2g+2), int_B |grad U|^2 = S_(2g-1) Q r^(2g+1) / (2g+1),
    int_B F = S_(gq+1) Fs r^(gq+3) / (gq+3), int_S F = S_(gq+1) Fs r^(gq+2),
    int_S U_nu^2 = g^2 H / r^2 and int_S U U_nu = g H / r."""
    g, p2, half_q, fs = _angular_sums(field)
    r = _ladder_radii(radii)
    gq = g * field.params.q
    H = _s(2 * g + 1) * p2 * r ** (2 * g + 2)
    return _Ladder(field, np.zeros(2), r, H,
                   grad2=_s(2 * g - 1) * 2 * g * half_q * r ** (2 * g + 1) / (2 * g + 1),
                   f_bulk=_s(gq + 1) * fs * r ** (gq + 3) / (gq + 3),
                   unu2=g * g * H / (r * r), uunu=g * H / r,
                   f_circle=_s(gq + 1) * fs * r ** (gq + 2), vertex=True, dim=3)


def _sphere_grad2(field, r):
    """int_S |grad U|^2 on the sphere of radius r: S_(2g-1) Q r^(2g)."""
    g, _, half_q, _ = _angular_sums(field)
    return _s(2 * g - 1) * 2 * g * half_q * r ** (2 * g)


@pytest.fixture
def n3(monkeypatch):
    """Every ladder of ``functionals`` and ``orders`` is the cylinder's at N = 3."""
    def ladder(field, x0, radii, bulk=True):
        assert tuple(x0) == ORIGIN
        return _cylinder(field, radii)

    monkeypatch.setattr(functionals, "_ladder", ladder)
    monkeypatch.setattr(orders, "_ladder", ladder)


@pytest.fixture(scope="module")
def family():
    """Criterion 01's u_k: q in {1, 1.5}, lambda in {(1, 1), (1, 4)}, k in {k_bar + 1, k_bar + 3}."""
    out = []
    for q in (1.0, 1.5):
        for lm in (1.0, 4.0):
            p = ProblemParams(q=q, lambda_minus=lm)
            out += [construct_uk(p, k_bar(p) + dk).to_field() for dk in (1, 3)]
    return out


def test_cylinder_frequency_is_gamma_q(n3, family):
    # criterion 01's bound; at N = 3 only (N - 2 + 2 gamma) makes W constant,
    # but N_q = r D_q / H reads no N, so this checks the rows themselves
    for u in family:
        g = gamma_q(u.params)
        for r in (0.25, 1.0):
            assert abs(eval_Nt(u, ORIGIN, r, u.params.q) - g) < 1e-3 * g


def test_cylinder_weiss_is_constant_at_gamma_q(n3, family):
    # criterion 04: W(gamma_q, 2) radius-constant to 1e-4 and negative
    radii = np.linspace(0.1, 1.0, 50)
    for u in family:
        w = trace(u, "W", ORIGIN, radii, gamma=gamma_q(u.params), t=2.0).values
        assert (w.max() - w.min()) / abs(w.mean()) < 1e-4
        assert w.mean() < 0


def test_cylinder_weiss_is_monotone(n3, family):
    # criterion 04: W(gamma, 2) nondecreasing at gamma_q and gamma_q + 0.5
    radii = np.linspace(0.1, 1.0, 50)
    for u in family:
        for gamma in (gamma_q(u.params), gamma_q(u.params) + 0.5):
            assert monotonicity_scan(u, ORIGIN, gamma, radii)["verdict"] == "monotone"


@pytest.mark.parametrize("t_of_q", [lambda q: q, lambda q: 2.0], ids=["t=q", "t=2"])
def test_cylinder_derivative_identities(n3, family, t_of_q):
    # criterion 05's ladder; W' below 1e-4, H' below criterion 05's 1e-3
    radii = np.linspace(0.3, 0.9, 5)
    for u in family:
        g, t = gamma_q(u.params), t_of_q(u.params.q)
        for gamma in (g, g + 0.5):
            rep = check_derivative_identities(u, ORIGIN, radii, gamma, t)
            assert rep["W_prime_max_residual"] < 1e-4, (u.params, gamma, t)
            assert rep["H_prime_max_residual"] < 1e-3, (u.params, gamma, t)


def test_cylinder_phi_is_the_bulk_side_of_pohozaev(n3, family):
    # Phi >= 0, and (2N - (N - 2) q) / (2q) int_B F, which is r^(p+1) Phi / 2,
    # equals r int_S (F/q + U_nu^2 - |grad U|^2 / 2) + (N - 2)/2 int_S U U_nu
    radii = np.linspace(0.3, 0.9, 5)
    for u in family:
        q, gamma = u.params.q, gamma_q(u.params) + 0.5
        lad = _cylinder(u, radii)
        phi = trace(u, "Phi", ORIGIN, radii, gamma=gamma).values
        assert np.all(phi >= 0)
        r = radii
        terms = (r * lad.f_circle / q, r * lad.unu2, r * _sphere_grad2(u, r) / 2, lad.uunu / 2)
        side = terms[0] + terms[1] - terms[2] + terms[3]
        got = phi * r ** (2 * gamma + 2) / 2
        assert np.all(np.abs(got - side) < 1e-4 * np.max(terms, axis=0))


def test_cylinder_order_and_h1(n3, family):
    # criterion 06: the order snaps to gamma_q with its raw slope within 0.05;
    # the scale-invariant H^1 norm of a gamma-homogeneous U is r^gamma times a constant
    ladder = 0.5 * 2.0 ** -np.arange(8.0)[::-1]
    for u in family:
        g = gamma_q(u.params)
        est = estimate_order(u, ORIGIN, ladder)
        assert est.snapped == g and abs(est.raw_slope - g) < 0.05
        h1 = trace(u, "h1", ORIGIN, ladder).values / ladder ** g
        assert (h1.max() - h1.min()) / h1.max() < 1e-12
