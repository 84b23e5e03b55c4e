import numpy as np
import pytest

from nodallab.construct import construct_uk
from nodallab.fields import ClosedFormField, GridField, monomial_field
from nodallab.functionals import _ladder, _power_fit
from nodallab.orders import (
    ZeroFieldError, admissible_orders, blow_up, estimate_order,
    _fourier_rings, leading_harmonic,
)
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
    # ladder's span; the widened fit counts each radius once, LADDER[0]
    # (= LADDER[-1] / span) included
    m3, m4 = monomial_field(3), monomial_field(4)
    f = ClosedFormField(lambda x, y: m3(x, y) + m4(x, y),
                        lambda x, y: tuple(a + b for a, b in zip(m3.gradf(x, y), m4.gradf(x, y))),
                        ProblemParams(q=1.0))
    est = estimate_order(f, ORIGIN, LADDER)
    wide = np.concatenate((LADDER / LADDER[-1] * LADDER[0], LADDER[1:]))
    lad = _ladder(f, ORIGIN, wide, bulk=False)
    want = 0.5 * _power_fit(wide, lad.H / wide, lad.h_ok)[0]
    assert est.snapped == "inconclusive"
    assert est.r_window == (wide[0], wide[-1])
    assert abs(est.raw_slope - want) <= 1e-13


def test_blow_up_normalization():
    from nodallab.functionals import h1_norm
    f = monomial_field(3)
    v = blow_up(f, ORIGIN, 0.4)
    assert abs(h1_norm(v, ORIGIN, 1.0) - 1.0) < 1e-8


def test_blow_up_linear_oracle():
    f = monomial_field(1)
    for r in (0.5, 0.25):
        v = blow_up(f, ORIGIN, r)
        assert abs(v(0.3, 0.0) - 0.3 / np.sqrt(2 * np.pi)) < 1e-9


def test_blow_up_homogeneous_r_independent(uk_q1):
    va = blow_up(uk_q1, ORIGIN, 0.5)
    vb = blow_up(uk_q1, ORIGIN, 0.25)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.6, 0.6, size=(100, 2))
    gap = max(abs(va(x, y) - vb(x, y)) for x, y in pts)
    assert gap < 1e-9


def test_blow_up_idempotent(uk_q1):
    # on homogeneous fields, iterated rescaling equals one rescaling
    v1 = blow_up(blow_up(uk_q1, ORIGIN, 0.5), ORIGIN, 0.5)
    v2 = blow_up(uk_q1, ORIGIN, 0.25)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.6, 0.6, size=(50, 2))
    gap = max(abs(v1(x, y) - v2(x, y)) for x, y in pts)
    assert gap < 1e-9


def test_blow_up_zero_norm():
    zero = ClosedFormField(lambda x, y: 0.0 * x,
                           lambda x, y: (0.0 * x, 0.0 * y))
    with pytest.raises(ZeroFieldError):
        blow_up(zero, ORIGIN, 0.5)


def test_fourier_on_circle():
    f = monomial_field(2)
    (a,), (b,) = _fourier_rings(f, ORIGIN, [0.5], 3)
    assert abs(a[1] - 0.25) < 1e-12  # cos 2theta coefficient = r^2
    assert abs(b[1]) < 1e-12
    assert abs(a[0]) < 1e-12 and abs(a[2]) < 1e-12
    # every degree below the Nyquist term 512 of the 1024 angles
    (a,), (b,) = _fourier_rings(f, ORIGIN, [0.5], 511)
    assert a.shape == b.shape == (511,) and np.max(np.abs(np.delete(a, 1))) < 1e-12


def test_leading_harmonic_mixed():
    f = ClosedFormField(
        lambda x, y: x + 0.01 * np.real((x + 1j * y) ** 3),
        lambda x, y: (1.0 + 0.03 * np.real((x + 1j * y) ** 2),
                      -0.03 * np.imag((x + 1j * y) ** 2)),
        ProblemParams(q=1.5))
    got = leading_harmonic(f, ORIGIN, LADDER, 3)
    assert got["degree"] == 1
    assert abs(got["cos"] - 1.0) < 1e-6


def test_leading_harmonic_exact():
    got = leading_harmonic(monomial_field(2), ORIGIN, LADDER, 3)
    assert got["degree"] == 2
    assert abs(got["cos"] - 1.0) < 1e-9
    assert abs(got["sin"]) < 1e-9


def test_leading_harmonic_uk_ambiguity(uk_q1):
    # the k=5 profile has no low harmonics, and gamma_q = 2 is an integer,
    # so the scan must flag the ambiguity instead of reporting a degree
    got = leading_harmonic(uk_q1, ORIGIN, LADDER, 2)
    assert got["degree"] is None
    assert got["gamma_q_ambiguous"]


def test_leading_harmonic_none_below_a_non_integer_order():
    # u_k at q = 1.25 is homogeneous of order 8/3 with no degree-1 or -2
    # term; gamma_q is no integer, so nothing is ambiguous and no degree fits
    uk = construct_uk(ProblemParams(q=1.25), 7).to_field()
    assert leading_harmonic(uk, ORIGIN, np.geomspace(0.05, 0.4, 8), 2) is None


@pytest.mark.parametrize("max_degree", [0, 512, 600])
def test_max_degree_out_of_range(max_degree):
    # degree 512 is the Nyquist term of the 1024 angles, which has no sine
    f = monomial_field(2)
    msg = f"max_degree must be in 1..511, got {max_degree}"
    with pytest.raises(ValueError, match=msg):
        leading_harmonic(f, ORIGIN, LADDER, max_degree)
    with pytest.raises(ValueError, match=msg):
        _fourier_rings(f, ORIGIN, [0.5], max_degree)


def _leading_harmonic_per_degree(field, x0, radii, max_degree):
    """The scan as first written: one circle per radius, one np.polyfit per degree."""
    radii = np.sort(np.asarray(radii, dtype=float))
    amp = np.empty((len(radii), max_degree))
    ab = []
    for i, r in enumerate(radii):
        (a,), (b,) = _fourier_rings(field, x0, [r], max_degree)
        amp[i] = np.hypot(a, b)
        ab.append((a, b))
    g = gamma_q(field.params)
    ambiguous = abs(g - round(g)) < 1e-12
    for d in range(1, max_degree + 1):
        m = amp[:, d - 1]
        if np.max(m) < 1e-8 * field.scale():
            continue
        logr, logm = np.log(radii), np.log(m + 1e-300)
        slope, intercept = np.polyfit(logr, logm, 1)
        rel_err = np.max(np.abs(logm - (slope * logr + intercept))) / max(1.0, abs(np.mean(logm)))
        if abs(slope - d) < 0.1 and rel_err < 0.05:
            a_mid, b_mid = ab[len(radii) // 2]
            rm = radii[len(radii) // 2] ** d
            return {"degree": d, "cos": a_mid[d - 1] / rm, "sin": b_mid[d - 1] / rm,
                    "amplitude": np.exp(intercept),
                    "gamma_q_ambiguous": ambiguous and abs(d - g) < 1e-9}
    return {"degree": None, "gamma_q_ambiguous": True} if ambiguous else None


def test_leading_harmonic_matches_per_degree_scan(uk_q1):
    mixed = ClosedFormField(
        lambda x, y: x + 0.01 * np.real((x + 1j * y) ** 3),
        lambda x, y: (1.0 + 0.03 * np.real((x + 1j * y) ** 2),
                      -0.03 * np.imag((x + 1j * y) ** 2)),
        ProblemParams(q=1.5))
    fields = [uk_q1, mixed] + [monomial_field(d) for d in (1, 2, 3)]
    fields.append(monomial_field(2, phase="sin"))
    for f in fields:
        for radii in (LADDER, np.geomspace(0.02, 0.8, 25)):
            for max_degree in (2, 3, 6):
                got = leading_harmonic(f, ORIGIN, radii, max_degree)
                want = _leading_harmonic_per_degree(f, ORIGIN, radii, max_degree)
                if want is None or want["degree"] is None:
                    assert got == want
                    continue
                assert got.keys() == want.keys()
                assert got["degree"] == want["degree"]
                assert got["gamma_q_ambiguous"] == want["gamma_q_ambiguous"]
                for key in ("cos", "sin", "amplitude"):
                    assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])


def test_upper_semicontinuity_smoke(uk_q1):
    base = estimate_order(uk_q1, ORIGIN, LADDER).raw_slope
    for r in (0.5, 0.25):
        member = estimate_order(blow_up(uk_q1, ORIGIN, r), ORIGIN, LADDER)
        assert base >= member.raw_slope - 0.05
