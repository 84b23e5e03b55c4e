import numpy as np
import pytest

from nodallab.construct import construct_uk
from nodallab.fields import ClosedFormField, GridField, monomial_field
from nodallab.functionals import _ladder, _power_fit
from nodallab.orders import ZeroFieldError, admissible_orders, estimate_order
from nodallab.params import ProblemParams, gamma_q

ORIGIN = (0.0, 0.0)
LADDER = 0.5 * 2.0 ** -np.arange(8.0)[::-1]


@pytest.fixture(scope="module")
def uk_q1():
    return construct_uk(ProblemParams(q=1.0), 5).to_field()


def test_admissible_orders():
    assert admissible_orders(ProblemParams(q=1.5)) == [1.0, 2.0, 3.0, 4.0]
    assert admissible_orders(ProblemParams(q=1.0)) == [1.0, 2.0]
    # Laplace's equation: every integer up to 2 beta_q + 8, and no gamma_q
    assert admissible_orders(ProblemParams(q=1.0, mu=0.0)) == [float(d) for d in range(1, 11)]
    assert admissible_orders(ProblemParams(q=1.5, mu=0.0)) == [float(d) for d in range(1, 15)]
    # one coefficient zero is still the two-phase equation's list
    assert admissible_orders(ProblemParams(q=1.5, lambda_minus=0.0)) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("q", [1.0, 1.5])
@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_estimate_order_harmonic_monomials_snap_to_degree(q, phase):
    # with mu = 0 every degree is an order, also above beta_q (1 at q = 1,
    # 3 at q = 1.5), where the two-phase list would read "inconclusive"
    for d in range(1, 7):
        f = monomial_field(d, phase)
        f.params = ProblemParams(q=q, mu=0.0)
        est = estimate_order(f, ORIGIN, LADDER)
        assert est.snapped == float(d) and abs(est.raw_slope - d) < 0.05
        assert est.nondegeneracy_ratio > 0


def test_estimate_order_monomials():
    est = estimate_order(monomial_field(1), ORIGIN, LADDER)
    assert abs(est.raw_slope - 1.0) < 0.05
    assert est.snapped == 1.0
    f = monomial_field(2)
    f.params = ProblemParams(q=1.5)  # beta_q = 3, so degree 2 is admissible
    est = estimate_order(f, ORIGIN, LADDER)
    assert est.snapped == 2.0
    # H-based and H1-based orders agree
    assert abs(est.h1_slope - est.raw_slope) < 0.05


def test_estimate_order_constructed(uk_q1):
    est = estimate_order(uk_q1, ORIGIN, LADDER)
    assert est.snapped == 2.0  # gamma_q for q=1
    assert abs(est.raw_slope - 2.0) < 0.05
    assert est.nondegeneracy_ratio > 0.0


def test_estimate_order_preconditions():
    with pytest.raises(ValueError):
        estimate_order(monomial_field(1), (0.5, 0.0), LADDER)  # not a zero
    with pytest.raises(ValueError):
        estimate_order(monomial_field(1), ORIGIN, LADDER[:4])  # short ladder
    zero = ClosedFormField(lambda x, y: 0.0 * x,
                           lambda x, y: (0.0 * x, 0.0 * y))
    with pytest.raises(ZeroFieldError):
        estimate_order(zero, ORIGIN, LADDER)


@pytest.mark.parametrize("q, lam_minus, k, n", [(1.0, 3.0, 5, 129), (1.25, 2.0, 7, 129),
                                                 (1.25, 2.0, 7, 257)])
def test_estimate_order_on_grid_samples(q, lam_minus, k, n):
    # H on small circles of a coarse grid is off by far more than rounding;
    # the grid's bilinear bound drops those circles, and the rest snap
    p = ProblemParams(q=q, lambda_minus=lam_minus)
    est = estimate_order(GridField.sample(construct_uk(p, k).to_field(), n), ORIGIN, LADDER)
    assert est.snapped == gamma_q(p) and est.nondegeneracy_ratio > 0


def test_estimate_order_widened_window_counts_each_radius_once():
    # Re z^3 + Re z^4 grows like r^3, far from the admissible orders 1 and 2
    # of q = 1 with a source term (mu = 1), so the window widens by the
    # ladder's span; the widened fit counts each radius once, radii[0]
    # included.  On the linear ladder radii[-1] / span misses radii[0] =
    # 0.012 by one ulp, so a lower decade of radii / span would hold a
    # second radius one ulp from radii[0]
    m3, m4 = monomial_field(3), monomial_field(4)
    f = ClosedFormField(lambda x, y: m3(x, y) + m4(x, y),
                        lambda x, y: tuple(a + b for a, b in zip(m3.gradf(x, y), m4.gradf(x, y))),
                        ProblemParams(q=1.0))
    linear = np.linspace(0.012, 0.53, 8)
    assert linear[-1] / (linear[-1] / linear[0]) != linear[0]
    for ladder in (LADDER, linear):
        est = estimate_order(f, ORIGIN, ladder)
        wide = np.concatenate((ladder[:-1] / ladder[-1] * ladder[0], ladder))
        lad = _ladder(f, ORIGIN, wide, bulk=False)
        want = 0.5 * _power_fit(wide, lad.H / wide, lad.h_ok)[0]
        assert est.snapped == "inconclusive"
        assert est.r_window == (wide[0], wide[-1])
        assert abs(est.raw_slope - want) <= 1e-13


def test_nondegeneracy_ratio_is_the_smallest_over_the_ladder():
    # u = Re z^2 + Re z^3 with mu = 0 has order 2, and about the origin its
    # H^1 norm is closed form: int_B |grad u|^2 = pi (2 r^4 + 3 r^6) and
    # int_S u^2 = pi (r^5 + r^7), so ||u||^2_H1(r) / r^4 = pi (3 + 4 r^2)
    # grows with r; the ratio is its value at the smallest radius, not 4 pi
    m2, m3 = monomial_field(2), monomial_field(3)
    f = ClosedFormField(lambda x, y: m2(x, y) + m3(x, y),
                        lambda x, y: tuple(a + b for a, b in zip(m2.gradf(x, y), m3.gradf(x, y))),
                        ProblemParams(q=1.5, mu=0.0))
    est = estimate_order(f, ORIGIN, LADDER)
    assert est.snapped == 2.0
    want = np.pi * (3.0 + 4.0 * LADDER[0] ** 2)
    assert abs(est.nondegeneracy_ratio - want) < 1e-12 * want
