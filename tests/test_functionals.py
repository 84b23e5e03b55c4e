import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nodallab import functionals
from nodallab.construct import construct_uk
from nodallab.fields import (AngularProfile, ClosedFormField, DomainError, GridField,
                             HomogeneousField, PlanarField, _angles, _fmt, _sample_rings,
                             monomial_field)
from nodallab.functionals import (
    _GL_T, _GL_W, EPS_U, N_THETA, DegenerateSphereError, FunctionalTrace, InconclusiveError,
    PreconditionError, _ladder, _merged_rows, _power_fit, _require_nodal, check_derivative_identities,
    eval_F, eval_Nt, monotonicity_scan, trace, transition_exponent,
)
from nodallab.nodal import profile_zero_structure
from nodallab.orders import estimate_order
from nodallab.params import ProblemParams, gamma_q, k_bar

ORIGIN = (0.0, 0.0)


def test_gauss_legendre_panel_exact_to_degree_95():
    # the 48-node rule on [0, 1] integrates every rho^p it is exact for to
    # 1e-14 relative (numpy's leggauss weights alone miss by up to 1.8e-13)
    assert _GL_T.shape == _GL_W.shape == (48,)
    assert np.all(np.diff(_GL_T) > 0.0) and 0.0 < _GL_T[0] and _GL_T[-1] < 1.0
    for p in range(96):
        assert abs((p + 1) * np.dot(_GL_W, _GL_T**p) - 1.0) <= 1e-14, p


def test_grid_rel_is_noise_over_the_circle_rms():
    # rel = noise / sqrt(H / (2 pi r)): the grid's bound over the RMS of u on
    # each circle, here the RMS of 4096 equally spaced samples of the circle
    grid = GridField.sample(monomial_field(2), 65)
    radii = np.geomspace(0.05, 0.8, 6)
    th = _angles(4096)
    rms = np.sqrt([np.mean(grid(r * np.cos(th), r * np.sin(th)) ** 2) for r in radii])
    rel = _ladder(grid, ORIGIN, radii).rel
    assert np.all(np.abs(rel / (grid.noise / rms) - 1) < 1e-5)


def test_eval_F_values():
    p = ProblemParams(q=1.5, lambda_plus=2.0, lambda_minus=3.0)
    assert eval_F(p, 0.0) == 0.0
    assert abs(eval_F(p, 4.0) - 2.0 * 8.0) < 1e-14
    assert abs(eval_F(p, -4.0) - 3.0 * 8.0) < 1e-14
    off = ProblemParams(q=1.5, mu=0.0)
    assert eval_F(off, 5.0) == 0.0


def _eval_F_two_clips(params, s):
    """The potential as written before one power: both signs clipped and powered."""
    s = np.asarray(s, dtype=float)
    sp = np.clip(s, 0.0, None)
    sm = np.clip(-s, 0.0, None)
    return params.mu * (params.lambda_plus * sp**params.q + params.lambda_minus * sm**params.q)


_coef = st.floats(0.0, 1e3) | st.sampled_from([0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(q=st.floats(1.0, 2.0, exclude_max=True) | st.sampled_from([1.0, 1.25, 1.5, 1.9]),
       lam_plus=_coef.filter(lambda v: v > 0), lam_minus=_coef, mu=_coef,
       s=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), min_size=1, max_size=20))
def test_eval_F_one_power_is_two_clips(q, lam_plus, lam_minus, mu, s):
    # one power of |s| times the side's coefficient gives the same bits as
    # the two-clip form, signs of zero included
    p = ProblemParams(q=q, lambda_plus=lam_plus, lambda_minus=lam_minus, mu=mu)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = eval_F(p, s), _eval_F_two_clips(p, s)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_H_oracle():
    # int over S_r of (r cos)^2 * r dtheta = pi r^3
    f = monomial_field(1)
    assert abs(trace(f, "H", ORIGIN, [1.0]).values[0] - np.pi) < 1e-12
    assert abs(trace(f, "H", ORIGIN, [0.25]).values[0] - np.pi / 64.0) < 1e-12


def test_D_N_oracle():
    f = monomial_field(1)
    assert abs(trace(f, "D", ORIGIN, [1.0], t=2.0).values[0] - np.pi) < 1e-9
    assert abs(eval_Nt(f, ORIGIN, 1.0, 2.0) - 1.0) < 1e-9
    g = monomial_field(2)
    assert abs(eval_Nt(g, ORIGIN, 0.7, 2.0) - 2.0) < 1e-9


def _W(field, r, gamma, t):
    return float(_ladder(field, ORIGIN, [r]).W(gamma, t)[0])


def test_W_oracle():
    f = monomial_field(1)
    # gamma matching the homogeneity makes W vanish identically
    for r in (0.3, 1.0):
        assert abs(_W(f, r, 1.0, 2.0)) < 1e-10
    assert abs(_W(f, 1.0, 2.0, 2.0) + np.pi) < 1e-9


def test_W_homogeneous_scaling():
    # for r^d cos(d theta): W(gamma, 2; r) = pi (d - gamma) r^(2(d-gamma))
    f = monomial_field(3)
    for r in (0.4, 0.8):
        want = np.pi * (3.0 - 2.0) * r ** (2 * (3.0 - 2.0))
        assert abs(_W(f, r, 2.0, 2.0) - want) < 1e-8


def test_Phi_oracle():
    # positive constant c: Phi = 4 lambda_+ c^q pi r^2 / (q r^(1+2 gamma))
    p = ProblemParams(q=1.5, lambda_plus=3.0)
    c = 2.0
    f = ClosedFormField(lambda x, y: c + 0.0 * x,
                        lambda x, y: (0.0 * x, 0.0 * y), p)
    r, gamma = 0.5, 1.0
    want = 4.0 * 3.0 * c**1.5 * np.pi * r**2 / (1.5 * r ** (1 + 2 * gamma))
    assert abs(float(_ladder(f, ORIGIN, [r]).Phi(gamma)[0]) - want) < 1e-8 * want


def test_h1_norm_oracle():
    f = monomial_field(1)
    # r^(1-N) int_S u^2 + int_B |grad|^2 = pi r^2 + pi r^2
    for r in (0.5, 1.0):
        assert abs(trace(f, "h1", ORIGIN, [r]).values[0] - np.sqrt(2 * np.pi) * r) < 1e-9


# the one-radius readers: trace's views on a ladder of one radius, "H" on
# the circles-only path, and eval_Nt, which takes its radius as a scalar and
# passes it on as a ladder of one radius
_ONE_RADIUS = {
    "trace H": lambda f, x0, r: trace(f, "H", x0, [r]),
    "trace D": lambda f, x0, r: trace(f, "D", x0, [r], t=2.0),
    "eval_Nt": lambda f, x0, r: eval_Nt(f, x0, r, 2.0),
    "trace h1": lambda f, x0, r: trace(f, "h1", x0, [r]),
}


def test_ball_domain_checks():
    f = monomial_field(1)
    for read in _ONE_RADIUS.values():
        with pytest.raises(DomainError, match="escapes the unit disk$"):
            read(f, (0.8, 0.0), 0.5)
        with pytest.raises(DomainError, match="^radius must be positive, got -0.1$"):
            read(f, ORIGIN, -0.1)
        # a NaN radius passes the disk bound: refused by the ladder rule, in
        # closed form at the origin and on Cartesian rings elsewhere
        for x0 in (ORIGIN, (0.1, 0.0)):
            with pytest.raises(ValueError, match="^radii must be finite$"):
                read(f, x0, np.nan)


def test_degenerate_sphere():
    zero = ClosedFormField(lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y))
    with pytest.raises(DegenerateSphereError):
        eval_Nt(zero, ORIGIN, 0.5, 2.0)


def test_h_floor_scales_with_field():
    # a tiny field is not a degenerate one: the floor moves with its scale
    m = monomial_field(2)
    tiny = ClosedFormField(lambda x, y: 1e-10 * m(x, y),
                           lambda x, y: tuple(1e-10 * g for g in m.value_and_grad(x, y)[1]))
    assert abs(eval_Nt(tiny, ORIGIN, 0.7, 2.0) - 2.0) < 1e-9


def _centred_w_prime(field, r, gamma, t, dr):
    return (_W(field, r + dr, gamma, t) - _W(field, r - dr, gamma, t)) / (2.0 * dr)


def _w_prime(field, r, gamma, t):
    return float(_ladder(field, ORIGIN, [r]).w_prime(gamma, t)[0])


def test_w_prime_matches_centred_difference():
    # r^3 cos(3 theta) has W(5/2, t; r) = pi r / 2, whose centred difference is exact
    m = monomial_field(3)
    for r in (0.3, 0.6):
        got = _w_prime(m, r, 2.5, 2.0)
        assert abs(got - np.pi / 2) < 1e-6
        assert abs(got - _centred_w_prime(m, r, 2.5, 2.0, 1e-4)) < 1e-6
    # gamma != t: the swapped arguments give -1.9e-6 against W' = 3.5e-6
    u = construct_uk(ProblemParams(q=1.5), 9).to_field()
    got = _w_prime(u, 0.5, 4.5, 2.0)
    assert abs(got - _centred_w_prime(u, 0.5, 4.5, 2.0, 1e-3)) < 1e-4 * abs(got)


def test_trace_and_csv(tmp_path):
    f = monomial_field(1)
    radii = np.linspace(0.2, 1.0, 5)
    tr = trace(f, "H", ORIGIN, radii)
    assert isinstance(tr, FunctionalTrace)
    assert np.allclose(tr.values, np.pi * radii**3)
    path = tmp_path / "h.csv"
    tr.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == 6
    # the writer spells every row in one call with the bytes of _fmt per number
    rs = np.geomspace(1e-3, 1.0, 40)
    vs = np.random.default_rng(3).standard_normal(40) * 10.0 ** np.arange(-20, 20)
    vs[:4] = [np.nan, np.inf, -0.0, 1 / 3]
    FunctionalTrace(rs, vs).save_csv(path)
    want = "r,value\n" + "".join(f"{_fmt(r)},{_fmt(v)}\n" for r, v in zip(rs, vs))
    assert path.read_bytes() == want.encode()
    with pytest.raises(ValueError):
        trace(f, "bogus", ORIGIN, radii)
    with pytest.raises(ValueError):
        FunctionalTrace(np.array([0.5, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="^radii and values must have equal length$"):
        FunctionalTrace(np.array([0.2, 0.5]), np.array([1.0]))


@pytest.mark.parametrize("view, missing", [("D", "t"), ("N", "t"), ("W", "gamma"),
                                           ("W", "t"), ("Phi", "gamma")])
def test_trace_names_a_missing_argument(view, missing):
    given_args = {"gamma": 2.0, "t": 2.0}
    del given_args[missing]
    with pytest.raises(ValueError, match=f"needs {missing}$"):
        trace(monomial_field(2), view, ORIGIN, [0.5, 1.0], **given_args)


def test_derivative_identities_on_harmonic():
    f = monomial_field(2)
    rep = check_derivative_identities(f, ORIGIN, np.linspace(0.3, 0.9, 5),
                                      2.0, 2.0)
    assert rep["H_prime_max_residual"] < 1e-6
    assert rep["W_prime_max_residual"] < 1e-6


def test_monotonicity_scan():
    f = monomial_field(2)  # carries q=1, mu=0, so gamma_q = 2
    radii = np.linspace(0.2, 1.0, 15)
    assert monotonicity_scan(f, ORIGIN, 2.0, radii)["verdict"] == "monotone"
    assert monotonicity_scan(f, ORIGIN, 3.0, radii)["verdict"] == "monotone"
    with pytest.raises(PreconditionError):
        monotonicity_scan(f, ORIGIN, 1.0, radii)
    # read backwards, a rising W would look like a violation
    radii = np.linspace(0.1, 1.0, 20)
    assert monotonicity_scan(f, ORIGIN, 2.5, radii)["verdict"] == "monotone"
    with pytest.raises(ValueError, match="^radii must be strictly increasing$"):
        monotonicity_scan(f, ORIGIN, 2.5, radii[::-1])

    # u = r^3 with mu = 0 has W(2, 2) = -pi r^2, which falls as r grows
    def grad(x, y):
        r = np.hypot(x, y)
        return 3 * r * x, 3 * r * y

    f = ClosedFormField(lambda x, y: np.hypot(x, y) ** 3, grad)
    scan = monotonicity_scan(f, ORIGIN, 2.0, [0.1, 0.2, 0.4])
    assert scan["verdict"] == "violation" and scan["radius"] == 0.2
    assert scan["drop"] == pytest.approx(0.03 * np.pi, rel=1e-12)
    assert scan["values"] == pytest.approx([-0.01 * np.pi, -0.04 * np.pi, -0.16 * np.pi],
                                           rel=1e-12)


def test_monotonicity_scan_counts_a_drop_past_both_floors():
    # u = Re z^2 + eps r^3 with mu = 0 has W(2, 2) = -pi eps^2 r^2, which falls
    # as r grows.  On its 129^2 sample a drop of W counts when it exceeds what
    # the two values may be off by together, the floors of both radii; at
    # eps = 0.11 the drop from r = 0.4 to 0.8 clears the floor at 0.4 alone
    # but not the sum
    radii = [0.4, 0.8]
    between = []
    for eps in (0.1, 0.11, 0.12, 0.13):
        f = ClosedFormField(lambda x, y: x * x - y * y + eps * np.hypot(x, y) ** 3,
                            lambda x, y: (0 * x, 0 * y), ProblemParams(q=1.0, mu=0.0))
        grid = GridField.sample(f, 129)
        lad = _ladder(grid, ORIGIN, radii)
        w, floor = lad.W(2.0, 2.0), lad.size(2.0, 2.0) * lad.rel
        drop = w[0] - w[1]
        verdict = monotonicity_scan(grid, ORIGIN, 2.0, radii)["verdict"]
        assert (verdict == "violation") == (drop > floor[0] + floor[1]), eps
        between.append(floor[0] < drop <= floor[0] + floor[1])
    assert any(between)


def test_monotonicity_scan_large_gamma_does_not_overflow():
    # W(200, 2) of Re z^2 is -C r^-396: its factor r^-400 overflows below
    # r = 0.17, so the verdict is decided without it, and only the values
    # read -inf there
    radii = np.geomspace(0.02, 0.8, 25)
    scan = monotonicity_scan(monomial_field(2), ORIGIN, 200.0, radii)
    assert scan["verdict"] == "monotone"
    w = np.asarray(scan["values"])
    assert np.all(np.isneginf(w[radii < 0.15])) and np.all(np.isfinite(w[radii > 0.17]))
    assert np.all(np.diff(w[np.isfinite(w)]) > 0)


@pytest.fixture(scope="module")
def q199_field():
    """A gamma_q-homogeneous field at q = 1.99: r^200 cos(2 theta)."""
    p = ProblemParams(q=1.99)
    th = 2.0 * np.pi * np.arange(256) / 256
    return HomogeneousField(gamma_q(p), AngularProfile(np.cos(2 * th), -2 * np.sin(2 * th)), p)


@pytest.mark.parametrize("reader", ["W", "Phi", "check_derivative_identities"])
def test_ladder_views_do_not_warn_at_large_gamma(q199_field, reader):
    # r^-400 overflows below r = 0.17, and H underflows to 0 at r = 0.02:
    # W and Phi read 0 or NaN there and the residuals NaN, with no warning
    # (Tier-1 turns one into an error); the other radii keep their values
    f, g = q199_field, gamma_q(q199_field.params)
    radii = np.geomspace(0.02, 0.8, 6)
    big = radii > 0.17
    if reader == "check_derivative_identities":
        rep = check_derivative_identities(f, ORIGIN, radii, g, 2.0)
        assert np.isnan(rep["H_prime_max_residual"]) and np.isnan(rep["W_prime_max_residual"])
    else:
        v = trace(f, reader, ORIGIN, radii, gamma=g, t=2.0).values
        assert np.isnan(v[0]) and np.all(np.isfinite(v[big]))
        if reader == "W":  # radius-constant on a gamma-homogeneous field
            assert v[big] == pytest.approx(np.full(np.count_nonzero(big), v[-1]), rel=1e-9)
        else:
            assert np.all(v[big] > 0)


def _zeroed_patch(x, y):
    """(r^2 - 0.04) x y, set to zero on r < 0.2: H = 0 on the small circles."""
    r2 = x * x + y * y
    return np.where(r2 < 0.04, 0.0, (r2 - 0.04) * x * y)


def _zeroed_patch_grad(x, y):
    r2 = x * x + y * y
    return (np.where(r2 < 0.04, 0.0, 2 * x * x * y + (r2 - 0.04) * y),
            np.where(r2 < 0.04, 0.0, 2 * x * y * y + (r2 - 0.04) * x))


@pytest.mark.parametrize("kind, violation_at", [("grid", 9), ("exact", 8)])
@pytest.mark.parametrize("reader", ["transition_exponent", "monotonicity_scan"])
def test_zero_circles_give_no_floor_warning(kind, violation_at, reader):
    # the circles inside the patch have H = 0 and a NaN floor, which no
    # comparison passes; no 0 * inf is formed there
    p = ProblemParams(q=1.5, mu=0.0)
    x = np.linspace(-1.0, 1.0, 257)
    f = (GridField(_zeroed_patch(x[:, None], x[None, :]), p) if kind == "grid"
         else ClosedFormField(_zeroed_patch, _zeroed_patch_grad, p))
    radii = np.geomspace(0.02, 0.8, 12)
    if reader == "transition_exponent":
        with pytest.raises(InconclusiveError, match="^no divergent gamma") as exc:
            transition_exponent(f, ORIGIN, np.arange(1.5, 4, 0.25), radii)
        assert exc.value.bracket == (3.75, None)
    else:
        scan = monotonicity_scan(f, ORIGIN, 4.0, radii)
        assert scan["verdict"] == "violation" and scan["radius"] == radii[violation_at]
        assert scan["values"][:7] == [0.0] * 7


_LADDER_READERS = {
    "_ladder": lambda f, r, x0=ORIGIN: _ladder(f, x0, r),
    "trace": lambda f, r, x0=ORIGIN: trace(f, "W", x0, r, gamma=2.5, t=2.0),
    "monotonicity_scan": lambda f, r, x0=ORIGIN: monotonicity_scan(f, x0, 2.5, r),
    "check_derivative_identities":
        lambda f, r, x0=ORIGIN: check_derivative_identities(f, x0, r, 2.5, 2.0),
    "transition_exponent": lambda f, r, x0=ORIGIN: transition_exponent(f, x0, [1.5, 2.5], r),
    "estimate_order": lambda f, r, x0=ORIGIN: estimate_order(f, x0, r),
    "FunctionalTrace": lambda f, r: FunctionalTrace(r, np.ones_like(r)),
}

# every reader that takes a centre: the ladder readers and the one-radius
# readers at the ladder's largest radius
_CENTRED_READERS = {
    **{name: read for name, read in _LADDER_READERS.items() if name != "FunctionalTrace"},
    **{name: lambda f, r, x0, read=read: read(f, x0, r[-1]) for name, read in _ONE_RADIUS.items()},
}


@pytest.mark.parametrize("reader", list(_LADDER_READERS))
@pytest.mark.parametrize("order", ["descending", "repeat"])
def test_every_ladder_reader_rejects_an_unordered_ladder(reader, order):
    # a ladder is taken strictly increasing, as given: no reader sorts it
    read, f = _LADDER_READERS[reader], monomial_field(2)
    r = np.linspace(0.1, 0.9, 20)
    read(f, r)
    bad = r[::-1] if order == "descending" else np.insert(r, 5, r[5])
    with pytest.raises(ValueError, match="^radii must be strictly increasing$"):
        read(f, bad)


@pytest.mark.parametrize("reader", list(_LADDER_READERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_ladder_reader_rejects_a_non_finite_radius(reader, bad):
    # a NaN passes every order comparison and the disk bound, so it is
    # refused on its own
    read, f = _LADDER_READERS[reader], monomial_field(2)
    r = np.linspace(0.1, 0.9, 20)
    r[7] = bad
    with pytest.raises(ValueError, match="^radii must be finite$"):
        read(f, r)


@pytest.mark.parametrize("reader", list(_LADDER_READERS))
@pytest.mark.parametrize("shape", [(2, 2), (4, 5), (1, 20, 1)])
def test_every_ladder_reader_rejects_a_2d_ladder(reader, shape):
    # a ladder is one row of radii: a stack whose rows increase is refused
    # too, not read as the set of its radii
    read, f = _LADDER_READERS[reader], monomial_field(2)
    r = np.linspace(0.1, 0.9, 20)[:int(np.prod(shape))]
    with pytest.raises(ValueError, match="^radii must be a 1-d ladder$"):
        read(f, r.reshape(shape))


@pytest.mark.parametrize("reader", list(_LADDER_READERS))
def test_every_ladder_reader_rejects_an_empty_ladder(reader):
    # no radius is no ladder: a scan of it would read "monotone", a trace
    # would be empty, and estimate_order's "at least 8 radii" is not reached
    read, f = _LADDER_READERS[reader], monomial_field(2)
    with pytest.raises(ValueError, match="^radii must not be empty$"):
        read(f, np.array([]))


class _CallCounting(PlanarField):
    """A field that records every ``__call__`` and ``value_and_grad``."""

    def __init__(self, base):
        self.base, self.params, self.calls = base, base.params, []

    def __call__(self, x, y):
        self.calls.append("value")
        return self.base(x, y)

    def value_and_grad(self, x, y):
        self.calls.append("value_and_grad")
        return self.base.value_and_grad(x, y)


@pytest.mark.parametrize("reader", list(_CENTRED_READERS))
@pytest.mark.parametrize("x0", [(np.nan, 0.0), (0.0, np.nan),
                                (0.1, 0.2, 0.3), 0.0, (), [[0.0, 0.0]]])
@pytest.mark.parametrize("kind", ["closed-form", "grid"])
def test_every_centred_reader_rejects_a_nan_centre(reader, x0, kind):
    # a NaN centre passes the disk bound and the nodal test, so it is refused
    # on its own, before the field is called; so is a centre that is not two
    # numbers (a third coordinate was ignored, and a scalar, an empty or a
    # 2-d centre raised IndexError)
    base = monomial_field(2) if kind == "closed-form" else GridField.sample(monomial_field(2), 65)
    f = _CallCounting(base)
    want = "finite" if np.shape(x0) == (2,) else "two numbers"
    with pytest.raises(DomainError, match=f"^centre must be {want}"):
        _CENTRED_READERS[reader](f, np.geomspace(0.02, 0.5, 10), x0)
    assert f.calls == []


def test_trace_checks_the_ladder_before_sampling():
    calls = []

    def value(x, y):
        calls.append(np.size(x))
        return x * y

    f = ClosedFormField(value, lambda x, y: (y, x))
    with pytest.raises(ValueError, match="^radii must be strictly increasing$"):
        trace(f, "h1", (0.1, 0.0), [0.5, 0.2])
    assert calls == []


@pytest.mark.parametrize("radii, message", [
    ([0.2, 0.5], None), ([0.5, 0.2], "strictly increasing"), ([0.2, 0.2], "strictly increasing"),
    ([0.2, np.nan], "finite"), ([np.inf, 0.5], "finite"), ([0.5, np.nan, 0.2], "finite"),
])
def test_trace_checks_its_radii_once(radii, message, monkeypatch):
    # one ladder rule per trace, before the field is called, with its message
    checks, calls = [], []
    rule = functionals._ladder_radii

    def counted(radii):
        checks.append(len(radii))
        return rule(radii)

    def value(x, y):
        calls.append(np.size(x))
        return x * y

    monkeypatch.setattr(functionals, "_ladder_radii", counted)
    f = ClosedFormField(value, lambda x, y: (y, x))
    if message is None:
        tr = trace(f, "D", (0.1, 0.0), radii, t=2.0)
        assert tr.radii.tolist() == radii and tr.values.shape == (2,) and calls
    else:
        with pytest.raises(ValueError, match=f"^radii must be {message}$"):
            trace(f, "D", (0.1, 0.0), radii, t=2.0)
        assert calls == []
    assert checks == [len(radii)]


def test_transition_exponent_on_monomials():
    radii = np.geomspace(0.02, 0.8, 25)
    for d in (1, 2, 3):
        f = monomial_field(d)
        gammas = np.arange(d - 0.5, d + 0.5001, 0.05)
        est = transition_exponent(f, ORIGIN, gammas, radii)
        assert abs(est - d) <= 0.05


def test_transition_exponent_does_not_move_with_the_grid_top():
    # each gamma row is held to its own floor, so rows far above the order
    # do not swallow the ones that diverge just above it
    radii = np.geomspace(0.02, 0.8, 25)
    for f, o in ((construct_uk(ProblemParams(q=1.0), 5).to_field(), 2.0),
                 (construct_uk(ProblemParams(q=1.5), 9).to_field(), 4.0), (monomial_field(2), 2.0)):
        for top in (0.5, 2.0, 3.0, 4.0):
            est = transition_exponent(f, ORIGIN, np.arange(o - 0.5, o + top + 1e-9, 0.05), radii)
            assert abs(est - (o + 0.025)) < 1e-9, (o, top)


def test_transition_exponent_inconclusive():
    f = monomial_field(2)
    radii = np.geomspace(0.02, 0.8, 25)
    with pytest.raises(InconclusiveError):
        transition_exponent(f, ORIGIN, np.array([0.5, 1.0, 1.5]), radii)
    for x0 in ((0.5, 0.0), (0.5, 0.1)):
        # centred away from the nodal set: a ladder that escapes the disk is
        # refused first, and one inside it is refused as not nodal
        with pytest.raises(DomainError, match="escapes the unit disk"):
            transition_exponent(f, x0, np.array([1.5, 2.5]), radii)
        with pytest.raises(PreconditionError, match="not a nodal point"):
            transition_exponent(f, x0, np.array([1.5, 2.5]), np.geomspace(0.02, 0.4, 25))

    # Re z^3 with the q = 1 force on: the bulk term of order r^5 outweighs the
    # Dirichlet term of order r^6 near 0, so for gamma below 3 W changes sign
    # inside the smallest decade, and gamma = 2 reads bounded after 1.75
    # read divergent
    def grad(x, y):
        dz = 3 * (x + 1j * y) ** 2
        return np.real(dz), -np.imag(dz)

    f = ClosedFormField(lambda x, y: np.real((x + 1j * y) ** 3), grad, ProblemParams(q=1.0))
    msg = "^non-monotone classification near gamma=2.0$"
    with pytest.raises(InconclusiveError, match=msg) as err:
        transition_exponent(f, ORIGIN, [1.0, 1.75, 2.0, 3.0], np.geomspace(0.05, 0.9, 12))
    assert err.value.bracket == (1.0, 1.75)


def test_transition_exponent_short_ladder_reads_its_first_third():
    # four radii over two decades put two in the smallest decade: the trend
    # is read on the first three instead
    gammas = np.arange(1.5, 2.5001, 0.05)
    est = transition_exponent(monomial_field(2), ORIGIN, gammas, np.geomspace(0.01, 0.9, 4))
    assert est == pytest.approx(2.025, abs=1e-12)


def test_transition_exponent_reads_no_divergence_within_the_floor():
    # on the 257^2 sample of Re z^2 (mu = 0), r^p W(gamma, 2) at r_min = 0.02
    # is negative but within its floor for gamma from 2 to 2.4: W there may
    # be off by more than its own size, so none of those gammas diverges, and
    # the transition lies above them all
    grid = GridField.sample(monomial_field(2), 257)
    radii = np.geomspace(0.02, 0.8, 6)
    gammas = np.arange(1.5, 2.5001, 0.05)
    lad = _ladder(grid, ORIGIN, radii)
    rpW, floor = lad.rp_W(gammas[:, None], 2.0)[:, 0], lad.rp_floor(gammas[:, None], 2.0)[:, 0]
    within = (rpW < 0) & (rpW > -floor)
    est = transition_exponent(grid, ORIGIN, gammas, radii)
    assert np.count_nonzero(within) > 1 and np.all(gammas[within] < est)
    assert est == _transition_exponent_per_gamma(grid, ORIGIN, gammas, radii)


def test_transition_exponent_empty_gammas():
    with pytest.raises(ValueError, match="^gammas is empty"):
        transition_exponent(monomial_field(2), ORIGIN, [], np.geomspace(0.02, 0.8, 25))


def _re_z3_q15():
    f = monomial_field(3)
    f.params = ProblemParams(q=1.5, mu=0.0)
    return _CallCounting(f)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_monotonicity_scan_rejects_a_non_finite_gamma(gamma):
    # a NaN passes the critical-homogeneity test, and an infinite gamma gives
    # W values of +-inf or NaN that no drop test reads as a violation
    f = _re_z3_q15()
    with pytest.raises(ValueError, match="^gamma must be finite"):
        monotonicity_scan(f, ORIGIN, gamma, np.geomspace(0.02, 0.8, 25))
    assert f.calls == []


@pytest.mark.parametrize("gammas", [[-np.inf, 3.5], [2.5, np.nan, 3.5], [2.5, 3.5, np.inf],
                                    [np.nan], [3.5, 4.5, np.nan, 5.5]])
def test_transition_exponent_rejects_a_non_finite_gamma(gammas):
    # a -inf gamma would bracket the transition from below, and a NaN or
    # +inf row reads as a non-monotone classification
    f = _re_z3_q15()
    with pytest.raises(ValueError, match="^gamma must be finite"):
        transition_exponent(f, ORIGIN, gammas, np.geomspace(0.02, 0.8, 25))
    assert f.calls == []


_RADII = np.geomspace(0.05, 0.8, 9)


@pytest.mark.parametrize("name, call", [
    ("gamma", lambda f: trace(f, "W", ORIGIN, _RADII, gamma=np.nan, t=2.0)),
    ("t", lambda f: trace(f, "W", ORIGIN, _RADII, gamma=3.0, t=np.nan)),
    ("t", lambda f: trace(f, "D", ORIGIN, _RADII, t=np.inf)),
    ("gamma", lambda f: check_derivative_identities(f, ORIGIN, _RADII, np.nan, 2.0)),
    ("t", lambda f: check_derivative_identities(f, ORIGIN, _RADII, 3.0, -np.inf)),
    ("t", lambda f: eval_Nt(f, ORIGIN, 0.5, np.nan)),
], ids=["trace W gamma nan", "trace W t nan", "trace D t inf", "identities gamma nan",
        "identities t -inf", "eval_Nt t nan"])
def test_non_finite_gamma_or_t_is_refused(name, call):
    # unchecked, each answers NaN (trace D at t = inf with a RuntimeWarning
    # too), and the identities a NaN W' residual next to a finite H' one
    f = _re_z3_q15()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(f)
    assert f.calls == []


@pytest.mark.parametrize("want, call", [
    ("gamma grid must be 1-d, got shape ()",
     lambda f: transition_exponent(f, ORIGIN, 2.0, _RADII)),
    ("gamma grid must be 1-d, got shape (1, 2)",
     lambda f: transition_exponent(f, ORIGIN, [[2.5, 3.5]], _RADII)),
    ("gamma must be a scalar, got shape (1,)",
     lambda f: monotonicity_scan(f, ORIGIN, [3.0], _RADII)),
    ("gamma must be a scalar, got shape (2,)",
     lambda f: check_derivative_identities(f, ORIGIN, _RADII, [3.0, 3.5], 2.0)),
    ("t must be a scalar, got shape (1,)",
     lambda f: check_derivative_identities(f, ORIGIN, _RADII, 3.0, [2.0])),
    ("gamma must be a scalar, got shape (1,)",
     lambda f: trace(f, "W", ORIGIN, _RADII, gamma=[3.0], t=2.0)),
    ("t must be a scalar, got shape (2,)",
     lambda f: trace(f, "D", ORIGIN, _RADII, t=[2.0, 2.0])),
    ("t must be a scalar, got shape (1,)", lambda f: eval_Nt(f, ORIGIN, 0.5, [2.0])),
], ids=["transition scalar", "transition 2-d", "scan list", "identities gamma list",
        "identities t list", "trace W gamma list", "trace D t list", "eval_Nt t list"])
def test_gamma_or_t_of_another_shape_is_refused(want, call):
    # a scalar grid raised numpy's AxisError and a 2-d one a broadcast error;
    # a list gamma or t raised a TypeError from inside the ladder views
    f = _re_z3_q15()
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(f)
    assert f.calls == []


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 30), r0=st.floats(1e-2, 0.2), span=st.floats(4.0, 100.0),
       rows=st.lists(st.tuples(st.floats(0.5, 4.0), st.booleans(), st.floats(0.1, 10.0)),
                     min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_power_fit_matches_polyfit(m, r0, span, rows, seed):
    # a ladder in random order and rows c r^p with a small misfit, each row
    # under its own random mask with at least two kept points
    rng = np.random.default_rng(seed)
    r = rng.permutation(np.geomspace(r0, r0 * span, m))
    p = np.array([e if up else -e for e, up, _ in rows])[:, None]
    c = np.array([c for _, _, c in rows])[:, None]
    v = c * r**p * np.exp(rng.uniform(-1e-3, 1e-3, (len(rows), m)))
    keep = rng.random((len(rows), m)) < rng.random()
    for row in keep:
        row[rng.choice(m, 2, replace=False)] = True
    slope, intercept = _power_fit(r, v, keep)
    for i, k in enumerate(keep):
        x, y = np.log(r[k]), np.log(v[i, k])
        want_slope, want_intercept = np.polyfit(x, y, 1)
        assert abs(slope[i] - want_slope) <= 1e-12 * abs(want_slope)
        assert abs(intercept[i] - want_intercept) <= 1e-12 * max(abs(want_intercept),
                                                                  np.max(np.abs(y)))


def test_power_fit_rows_with_fewer_than_two_points_are_nan():
    r = np.geomspace(0.1, 1.0, 5)
    v = np.stack([3.0 * r**2, r**3, -r])  # the negative row is never kept
    keep = np.array([[True] * 5, [False, False, True, False, False], [False] * 5])
    with np.errstate(all="raise"):
        slope, intercept = _power_fit(r, v, keep)
    assert abs(slope[0] - 2.0) < 1e-14 and abs(intercept[0] - np.log(3.0)) < 1e-14
    assert np.all(np.isnan(slope[1:])) and np.all(np.isnan(intercept[1:]))


def _transition_exponent_per_gamma(field, x0, gammas, radii):
    """The estimator as first written: one W row and one np.polyfit per gamma."""
    x0 = np.asarray(x0, dtype=float)
    gammas = np.sort(np.asarray(gammas, dtype=float))
    radii = np.sort(np.asarray(radii, dtype=float))
    lad = _ladder(field, x0, radii)
    _require_nodal(lad)
    decade = radii <= radii[0] * 10.0 + 1e-300
    if np.count_nonzero(decade) < 3:
        decade = np.zeros_like(decade)
        decade[: max(3, len(radii) // 3)] = True

    def classify(g):
        # each row against its own floor: W's size times the relative error
        # of u on the circle
        with np.errstate(invalid="ignore", over="ignore"):
            row, floor = lad.W(g, 2.0), lad.size(g, 2.0) * lad.rel
        mask = decade & (np.abs(row) > floor)
        if not row[0] <= -floor[0] or np.count_nonzero(mask) < 2:
            return "bounded"
        slope = np.polyfit(np.log(radii[mask]), np.log(np.abs(row[mask])), 1)[0]
        return "divergent" if slope < -0.02 else "bounded"

    kinds = [classify(g) for g in gammas]
    if "divergent" not in kinds:
        raise InconclusiveError("no divergent gamma on the grid", bracket=(gammas[-1], None))
    first_div = kinds.index("divergent")
    if first_div == 0:
        raise InconclusiveError("every gamma diverges", bracket=(None, gammas[0]))
    if "bounded" in kinds[first_div:]:
        raise InconclusiveError("non-monotone classification",
                                bracket=(float(gammas[first_div - 1]), float(gammas[first_div])))
    return float(0.5 * (gammas[first_div - 1] + gammas[first_div]))


def _outcome(estimator, *args):
    try:
        return "value", estimator(*args)
    except InconclusiveError as exc:
        return "inconclusive", exc.bracket
    except PreconditionError:
        return ("not nodal",)
    except DomainError:
        return ("escapes",)


def test_transition_exponent_matches_per_gamma_classification():
    # the criterion-07 fields, monomials up to degree 5, and centres off the
    # nodal set, whose ladder escapes the disk or stays inside it; grids
    # around, below and above the order and a coarse one
    cases = [(construct_uk(ProblemParams(q=1.0), 5).to_field(), 2.0),
             (construct_uk(ProblemParams(q=1.5), 9).to_field(), 4.0)]
    for q, top in ((1.0, 5), (1.5, 3)):
        for d in range(1, top + 1):
            f = monomial_field(d)
            f.params = ProblemParams(q=q, mu=0.0)
            cases.append((f, float(d)))
    kinds = set()
    for f, order in cases:
        grids = (np.arange(order - 0.5, order + 0.5001, 0.05),
                 np.arange(order - 1.5, order - 0.55, 0.05),
                 np.arange(order + 0.55, order + 1.5, 0.05),
                 np.array([0.5, 1.0, 1.5, 2.5, 3.5, 4.5]))
        ladders = (np.geomspace(0.02, 0.8, 6), np.geomspace(0.02, 0.8, 25))
        runs = [(ORIGIN, g, radii) for g in grids for radii in ladders]
        runs += [((0.5, 0.1), grids[0], radii) for radii in (*ladders, np.geomspace(0.02, 0.4, 6))]
        for x0, gammas, radii in runs:
            got = _outcome(transition_exponent, f, x0, gammas, radii)
            assert got == _outcome(_transition_exponent_per_gamma, f, x0, gammas, radii)
            kinds.add(got[0])
    assert kinds == {"value", "inconclusive", "not nodal", "escapes"}


@pytest.fixture(scope="module")
def uk_q1():
    return construct_uk(ProblemParams(q=1.0), 5).to_field()


@settings(max_examples=20, deadline=None)
@given(radii=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6, unique=True).map(sorted),
       which=st.sampled_from(["uk", "mono2", "mono3"]))
def test_ladder_matches_single_radii(uk_q1, radii, which):
    # about the origin each of these fields is integrated in closed form, and
    # every row is elementwise in r: a ladder is its single radii bit for bit
    f = {"uk": uk_q1, "mono2": monomial_field(2), "mono3": monomial_field(3)}[which]
    for name in ("H", "D", "W"):
        ladder = trace(f, name, ORIGIN, radii, gamma=2.5, t=2.0).values
        single = [trace(f, name, ORIGIN, [r], gamma=2.5, t=2.0).values[0] for r in radii]
        assert np.array_equal(ladder, single), name


def test_derivative_identities_on_interleaved_rows(uk_q1):
    # the r - step, r and r + step rows of 0.3 and 0.30001 interleave, and
    # are merged into one ladder; about the vertex every row is elementwise
    # in r, so the ladder's residuals are the largest of its single radii
    radii = [0.3, 0.30001, 0.5]
    rep = check_derivative_identities(uk_q1, ORIGIN, radii, 2.0, 2.0)
    single = [check_derivative_identities(uk_q1, ORIGIN, [r], 2.0, 2.0) for r in radii]
    for key in ("H_prime_max_residual", "W_prime_max_residual"):
        assert rep[key] == max(one[key] for one in single), key
    assert rep["radii"] == radii


def _next_coinciding(r, target):
    """The radius r' nearest r / 0.9999 whose row r' - step lands on
    ``target`` to the bit, or None."""
    c = target / 0.9999
    for _ in range(64):
        c = np.nextafter(c, 0.0)
    for _ in range(128):
        if c - 1e-4 * c == target and c > r:
            return c
        c = np.nextafter(c, np.inf)
    return None


@st.composite
def _derivative_ladders(draw):
    """Ladders whose r - step, r and r + step rows are apart, interleave or
    coincide (a lower row of one radius equal to a row of the one below)."""
    radii = [draw(st.floats(0.01, 0.5))]
    for _ in range(draw(st.integers(0, 5))):
        r, kind = radii[-1], draw(st.sampled_from(["apart", "interleaved", "on mid", "on hi"]))
        if kind == "apart":
            nxt = r * draw(st.floats(1.00021, 1.5))
        elif kind == "interleaved":
            nxt = r * draw(st.floats(1.000001, 1.00019))
        else:
            nxt = _next_coinciding(r, r if kind == "on mid" else r + 1e-4 * r)
            assume(nxt is not None)
        radii.append(nxt)
    return np.array(radii)


@settings(max_examples=100, deadline=None)
@given(radii=_derivative_ladders())
def test_merged_rows_are_np_unique(radii):
    # apart rows interleave into the ladder without a sort; either way the
    # ladder and the row indices are np.unique's, to the bit
    step = 1e-4 * radii
    rows = radii - step, radii, radii + step
    rs, idx = _merged_rows(*rows)
    want, back = np.unique(np.stack(rows), return_inverse=True)
    assert rs.dtype == want.dtype and np.array_equal(rs, want)
    assert np.array_equal(idx, back.reshape(3, -1))
    for row, i in zip(rows, idx):
        assert np.array_equal(rs[i], row)


def _annulus_loop_ladder(field, x0, radii, bulk):
    """The six ladder rows as the earlier loop made them: every ring sampled
    at its Cartesian points, one annulus at a time."""
    x0 = np.asarray(x0, dtype=float)
    rs, back = np.unique(radii, return_inverse=True)
    th = 2.0 * np.pi * np.arange(N_THETA) / N_THETA
    dth = 2.0 * np.pi / N_THETA
    if not bulk:
        H = rs * dth * np.sum(_sample_rings(field, x0, rs, th) ** 2, axis=1)
        return [H[back].reshape(radii.shape)]
    ct, st = np.cos(th), np.sin(th)
    sums = np.zeros((6, len(rs)))
    lo = 0.0
    for i, r in enumerate(rs):
        rho = np.append(lo + (r - lo) * _GL_T, r)
        v, (gx, gy) = _sample_rings(field, x0, rho, th, grad=True)
        f = np.sum(eval_F(field.params, v), axis=1)
        g2 = np.sum(gx * gx + gy * gy, axis=1)
        w = (r - lo) * _GL_W * rho[:-1] * dth
        u, unu = v[-1], gx[-1] * ct + gy[-1] * st
        sums[:, i] = (r * dth * np.sum(u * u), np.dot(w, g2[:-1]), np.dot(w, f[:-1]),
                      r * dth * np.sum(unu * unu), r * dth * np.sum(u * unu), r * dth * f[-1])
        lo = r
    sums[1:3] = np.cumsum(sums[1:3], axis=1)
    return [row[back].reshape(radii.shape) for row in sums]


@pytest.fixture(scope="module")
def cartesian_cases():
    u = construct_uk(ProblemParams(q=1.5, lambda_minus=2.0), 9).to_field()
    # phi(0) = 0, so (0.3, 0) lies on a nodal ray of u_k
    assert u(0.3, 0.0) == 0.0
    bumpy = ClosedFormField(lambda x, y: np.sin(3.0 * x) + x * y - 0.2,
                            lambda x, y: (3.0 * np.cos(3.0 * x) + y, x),
                            ProblemParams(q=1.25, lambda_minus=3.0))
    grid = GridField.sample(u, 513)
    return [(u, (0.3, 0.0)), (grid, (0.0, 0.0)), (grid, (0.1, -0.2)),
            (monomial_field(3), (0.1, 0.2)), (monomial_field(2, "sin"), (-0.3, 0.0)),
            (bumpy, (0.0, 0.0)), (bumpy, (0.2, 0.1))]


@pytest.mark.parametrize("bulk", [False, True])
def test_cartesian_ladder_bit_identical_to_annulus_loop(cartesian_cases, bulk):
    # fields that declare no separated form, and centres off the origin, give
    # the bits of the annulus loop
    for f, x0 in cartesian_cases:
        top = 1.0 - np.hypot(*x0)
        radii = top * np.array([0.05, 0.3, 0.5, 0.9, 1.0])
        lad = _ladder(f, x0, radii, bulk)
        got = [lad.H, lad.grad2, lad.f_bulk, lad.unu2, lad.uunu, lad.f_circle] if bulk else [lad.H]
        for a, b in zip(got, _annulus_loop_ladder(f, x0, radii, bulk)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("top", [100.0, 200.0])
def test_transition_exponent_large_gamma_diverges_without_overflow(top):
    # r^-(2 gamma) overflows at r = 0.02 (and W with it at gamma = 200), yet
    # every gamma above the order 2 diverges; Tier-1 turns a warning into an error
    radii = np.geomspace(0.02, 0.8, 25)
    assert transition_exponent(monomial_field(2), ORIGIN, [1.5, 2.5, top], radii) == 2.0


def test_transition_exponent_q197_no_overflow():
    # gamma up to 2 gamma_q + 2 = 135 at r = 0.02: r^-(2 gamma) alone
    # overflows, W does not.  H has underflowed on the smallest decade, so
    # no gamma can be seen to diverge there
    p = ProblemParams(q=1.97, lambda_minus=2.0)
    u = construct_uk(p, k_bar(p) + 1).to_field()
    g, radii = gamma_q(p), np.geomspace(0.02, 0.8, 25)
    gammas = np.arange(g - 0.5, 2 * g + 2, 0.5)
    assert np.isfinite(_ladder(u, ORIGIN, radii).W(gammas[:, None], 2.0)).all()
    with pytest.raises(InconclusiveError, match="^no divergent gamma"):
        transition_exponent(u, ORIGIN, gammas, radii)


def _verdict(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _outcomes(field, d):
    """Every analysis's verdict on a degree-d harmonic about the origin."""
    est = estimate_order(field, ORIGIN, 0.5 * 2.0 ** -np.arange(8.0)[::-1])
    scan = lambda g: monotonicity_scan(field, ORIGIN, g, np.linspace(0.1, 1.0, 20))["verdict"]
    return {
        "N": round(eval_Nt(field, ORIGIN, 0.5, 2.0), 9),
        "order": (est.snapped, round(est.raw_slope, 9)),
        "scan": [_verdict(scan, g) for g in (d, d + 0.5)],
        "transition": _verdict(transition_exponent, field, ORIGIN,
                               np.arange(d - 0.5, d + 0.5001, 0.05), np.geomspace(0.02, 0.8, 25)),
    }


def _identity_residuals(field):
    rep = check_derivative_identities(field, ORIGIN, np.linspace(0.3, 0.9, 5), 2.0, 2.0)
    return rep["H_prime_max_residual"], rep["W_prime_max_residual"]


@pytest.mark.parametrize("d", [2, 3])
def test_scaled_harmonic_on_cartesian_rings_keeps_its_verdicts(d):
    # c Re z^d as a plain closed-form field, so every ladder is Cartesian:
    # each floor scales with the field, and no c moves a verdict
    m = monomial_field(d)
    scaled = {c: ClosedFormField(lambda x, y, c=c: c * m(x, y),
                                 lambda x, y, c=c: tuple(c * g for g in m.gradf(x, y)))
              for c in (1.0, 1e-12, 1e6)}
    want = _outcomes(scaled[1.0], d)
    for c in (1e-12, 1e6):
        assert _outcomes(scaled[c], d) == want, c
        assert max(_identity_residuals(scaled[c])) < 1e-6, c


class _RotatedMonomial(PlanarField):
    """c Re((e^(-i alpha) z)^d), or its Im part: a harmonic r^d phi(theta)
    that declares its separated form, so every ladder about the origin is
    in closed form."""

    def __init__(self, d, alpha, phase, c):
        self.d, self.alpha, self.c, self.cos = d, alpha, c, phase == "cos"
        self.params = ProblemParams(q=1.0, mu=0.0)

    def separated(self, theta):
        a = self.d * (theta - self.alpha)
        if self.cos:
            return self.d, self.c * np.cos(a), -self.d * self.c * np.sin(a)
        return self.d, self.c * np.sin(a), self.d * self.c * np.cos(a)

    def __call__(self, x, y):
        w = self.c * (np.exp(-1j * self.alpha) * (np.asarray(x) + 1j * np.asarray(y))) ** self.d
        return w.real if self.cos else w.imag


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 6), alpha=st.floats(0.0, 2.0 * np.pi), phase=st.sampled_from(["cos", "sin"]),
       log_c=st.floats(-12.0, 6.0))
def test_scaled_rotated_monomial_keeps_the_verdicts_of_c_1(d, alpha, phase, log_c):
    c = 10.0**log_c
    f = _RotatedMonomial(d, alpha, phase, c)
    assert _outcomes(f, d) == _outcomes(_RotatedMonomial(d, alpha, phase, 1.0), d)
    assert max(_identity_residuals(f)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 6), alpha=st.floats(0.0, 2.0 * np.pi), phase=st.sampled_from(["cos", "sin"]),
       log_c=st.floats(-12.0, 6.0))
def test_rotated_monomial_order_snaps_to_its_degree(d, alpha, phase, log_c):
    # with mu = 0 every degree is an admissible order: c Re/Im z^d, at any
    # angle and scale, has order d, and c moves no verdict
    ladder = 0.9 * 2.0 ** -np.arange(8.0)[::-1]
    est = estimate_order(_RotatedMonomial(d, alpha, phase, 10.0**log_c), ORIGIN, ladder)
    assert est.snapped == float(d)
    assert estimate_order(_RotatedMonomial(d, alpha, phase, 1.0), ORIGIN, ladder).snapped == est.snapped


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 6), alpha=st.floats(0.0, 2.0 * np.pi), phase=st.sampled_from(["cos", "sin"]))
def test_rotated_monomial_order_on_its_513_sample(d, alpha, phase):
    # on a grid sample the order is only as good as the grid: it snaps to d
    # within criterion 06's tolerance or reads "inconclusive", never another
    # order.  On criterion 06's ladder the 513^2 sample resolves d <= 5,
    # where H clears its floor on the circles r = 1/4 and 1/2; at d = 6 only
    # r = 1/2 is left, also on the widened window, and the slope is NaN
    grid = GridField.sample(_RotatedMonomial(d, alpha, phase, 1.0), 513)
    est = estimate_order(grid, ORIGIN, 0.5 * 2.0 ** -np.arange(8.0)[::-1])
    assert est.snapped == "inconclusive" or (est.snapped == d and abs(est.raw_slope - d) < 0.05)


@settings(max_examples=25, deadline=None)
@given(q=st.floats(1.0, 1.95), lam_plus=st.floats(0.2, 5.0), lam_minus=st.floats(0.2, 5.0),
       dk=st.integers(1, 3))
def test_uk_claims_over_the_range(q, lam_plus, lam_minus, dk):
    # the paper's statements on u_k, for q up to 1.95: 2k zeros, frequency
    # gamma_q at every radius, W(gamma_q, 2) constant, order gamma_q
    p = ProblemParams(q=q, lambda_plus=lam_plus, lambda_minus=lam_minus)
    k = k_bar(p) + dk
    mr = construct_uk(p, k)
    assert mr.zero_count == 2 * k
    assert len(profile_zero_structure(mr.profile)["zeros"]) == 2 * k
    u, g = mr.to_field(), gamma_q(p)
    for r in (1.0, 0.5, 0.05):
        assert abs(eval_Nt(u, ORIGIN, r, q) - g) < 1e-3 * g
    scan = monotonicity_scan(u, ORIGIN, g, np.linspace(0.1, 1.0, 50))
    w = np.asarray(scan["values"])
    assert scan["verdict"] == "monotone" and (w.max() - w.min()) < 1e-4 * abs(w.mean())
    est = estimate_order(u, ORIGIN, 0.5 * 2.0 ** -np.arange(8.0)[::-1])
    assert est.snapped == g and est.nondegeneracy_ratio > 0
    radii = np.geomspace(0.02, 0.8, 25)
    for lo, hi in ((0.5, 0.5), (1.0, 0.5), (0.5, 2.0)):
        gammas = np.arange(g - lo, g + hi + 1e-9, 0.05)
        assert abs(transition_exponent(u, ORIGIN, gammas, radii) - g) <= 0.05


@pytest.mark.parametrize("q", [1.75, 1.9, 1.95])
def test_plain_wrapper_of_uk_gets_the_fields_verdicts(q):
    # behind a wrapper that declares no separated form, u_k is sampled on
    # Cartesian rings, held to the error model of its closed form: ROUNDING
    # times each circle's RMS.  So the wrapper reads u_k's own order and
    # transition exponent near q = 2, where u_k is tiny on the small circles
    p = ProblemParams(q=q, lambda_minus=2.0)
    u = construct_uk(p, k_bar(p) + 1).to_field()
    g = gamma_q(p)
    ladder = 0.5 * 2.0 ** -np.arange(8.0)[::-1]
    gammas, radii = np.arange(g - 0.5, g + 0.5001, 0.05), np.geomspace(0.02, 0.8, 25)
    est = transition_exponent(u, ORIGIN, gammas, radii)
    assert abs(est - g) <= 0.05
    assert transition_exponent(_CallCounting(u), ORIGIN, gammas, radii) == est
    for f in (u, _CallCounting(u)):
        assert estimate_order(f, ORIGIN, ladder).snapped == g


def _monomial_sum(low, high):
    """Re z^low + 10 Re z^high as a plain closed-form field, q = 1.5 and mu = 0."""
    a, b = monomial_field(low), monomial_field(high)
    return ClosedFormField(
        lambda x, y: a(x, y) + 10.0 * b(x, y),
        lambda x, y: tuple(ga + 10.0 * gb for ga, gb in zip(a.gradf(x, y), b.gradf(x, y))),
        ProblemParams(q=1.5, mu=0.0))


@pytest.mark.parametrize("low", [2, 3])
def test_monomial_sum_snaps_to_its_lower_degree(low):
    # the small circles, where the lower degree shows, clear the H floor, so
    # the dyadic fit reads the order, not the 10 Re z^(low + 1) that
    # dominates the large ones
    est = estimate_order(_monomial_sum(low, low + 1), ORIGIN, 0.5 * 2.0 ** -np.arange(8.0)[::-1])
    assert est.snapped == float(low)


def test_transition_exponent_of_a_monomial_sum():
    est = transition_exponent(_monomial_sum(3, 5), ORIGIN, np.arange(2.5, 3.5001, 0.05),
                              np.geomspace(0.02, 0.8, 25))
    assert abs(est - 3.0) <= 0.05


_LADDER_ROWS = ("H", "rel", "grad2", "f_bulk", "unu2", "uunu", "f_circle")


def _assert_same_ladder(a, b):
    """Every row of ladder ``a`` is ``b``'s to the bit."""
    for name in _LADDER_ROWS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class _SeparatedCounting(_RotatedMonomial):
    """A separated field that counts its ``separated`` calls."""

    calls = 0

    def separated(self, theta):
        self.calls += 1
        return super().separated(theta)


def test_angular_sums_follow_params():
    # the sums are kept on the field keyed by its params: after every
    # reassignment, A then B then A again, the ladder is a fresh field's
    radii = np.geomspace(0.02, 0.8, 12)
    A, B = ProblemParams(q=1.5, lambda_minus=2.0), ProblemParams(q=1.25, mu=0.5)
    f = monomial_field(3)
    ladders = {}
    for p in (A, B, A):
        f.params = p
        fresh = monomial_field(3)
        fresh.params = p
        ladders[p] = _ladder(f, ORIGIN, radii)
        _assert_same_ladder(ladders[p], _ladder(fresh, ORIGIN, radii))
    assert not np.array_equal(ladders[A].f_bulk, ladders[B].f_bulk)


def test_separated_is_called_once_per_field_and_params():
    f = _SeparatedCounting(3, 0.4, "cos", 1.0)
    f.params = ProblemParams(q=1.5)
    radii = np.geomspace(0.02, 0.8, 12)
    first = _ladder(f, ORIGIN, radii)
    for _ in range(3):
        _assert_same_ladder(_ladder(f, ORIGIN, radii), first)
        transition_exponent(f, ORIGIN, np.arange(2.5, 3.5001, 0.05), radii)
        estimate_order(f, ORIGIN, radii)
        trace(f, "H", ORIGIN, [0.5])
    assert f.calls == 1
    # a centre off the origin is sampled on Cartesian rings
    _ladder(f, (0.1, 0.0), radii[:6], bulk=False)
    assert f.calls == 1
    f.params = ProblemParams(q=1.25, lambda_minus=3.0)
    for _ in range(3):
        _ladder(f, ORIGIN, radii)
    assert f.calls == 2


@dataclass
class _DataclassMonomial(PlanarField):
    """Re z^d as a dataclass: its generated ``__eq__`` leaves it unhashable."""

    d: int
    params: ProblemParams

    def separated(self, theta):
        return self.d, np.cos(self.d * theta), -self.d * np.sin(self.d * theta)

    def __call__(self, x, y):
        return np.real((np.asarray(x) + 1j * np.asarray(y)) ** self.d)


def test_unhashable_separated_field_gets_its_closed_form_ladder():
    p = ProblemParams(q=1.5, lambda_minus=2.0)
    f = _DataclassMonomial(3, p)
    with pytest.raises(TypeError):
        hash(f)
    mono = monomial_field(3)
    mono.params = p
    # it has no value_and_grad, so only the closed form can give its ladder
    radii = np.geomspace(0.02, 0.8, 12)
    for _ in range(2):
        _assert_same_ladder(_ladder(f, ORIGIN, radii), _ladder(mono, ORIGIN, radii))


def _nodal_by_evaluation(lad):
    """The nodal test made by calling the field at the centre."""
    u0 = abs(float(lad.field(lad.x0[0], lad.x0[1])))
    return not u0 > EPS_U * np.sqrt((lad.H / (2.0 * np.pi * lad.r)).max())


@pytest.mark.parametrize("t", ["q", 2.0])
def test_rp_size_is_the_sum_of_the_sizes_of_w_terms(t):
    # rp_size = int_B |grad u|^2 + |t/q int_B F| + gamma/r H, with the bulk
    # integrals recovered from two D views: D_t = grad2 - t/q f_bulk, so
    # f_bulk = q (D_1 - D_2) and grad2 = D_1 + f_bulk / q.  At t = q the F
    # term is |int_B F| itself, so t = 2 is the case that reads t/q
    p = ProblemParams(q=1.5, lambda_minus=2.0)
    u = construct_uk(p, 9).to_field()
    t = p.q if t == "q" else t
    gamma = gamma_q(p) + 0.5
    radii = np.linspace(0.1, 0.6, 6)
    for field, x0 in ((u, ORIGIN), (u, (0.3, 0.0)), (GridField.sample(u, 129), ORIGIN)):
        D1, D2, H = (trace(field, name, x0, radii, t=s).values
                     for name, s in (("D", 1.0), ("D", 2.0), ("H", None)))
        f_bulk = p.q * (D1 - D2)
        want = D1 + f_bulk / p.q + np.abs(t / p.q * f_bulk) + gamma / radii * H
        got = _ladder(field, x0, radii).rp_size(gamma, t)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), x0


def test_nodal_test_reads_the_largest_circle_rms():
    # Re z^2 about (a, 0): u(x0) = a^2, and the circle RMS grows from about
    # a^2 at small radii to r^2 / sqrt(2) at large ones.  At a = 1e-4,
    # |u(x0)| = 1e-8 lies between EPS_U times the smallest and the largest
    # RMS, so x0 is nodal; at a = 1e-3 it is above both
    f = monomial_field(2)
    radii = np.geomspace(1e-3, 0.5, 8)
    for a, nodal in ((1e-4, True), (1e-3, False)):
        lad = _ladder(f, (a, 0.0), radii)
        rms = np.sqrt(lad.H / (2.0 * np.pi * radii))
        assert not lad.vertex and _nodal_by_evaluation(lad) == nodal
        if nodal:
            assert EPS_U * rms.min() < abs(f(a, 0.0)) <= EPS_U * rms.max()
            _require_nodal(lad)
        else:
            assert EPS_U * rms.max() < abs(f(a, 0.0))
            with pytest.raises(PreconditionError, match="not a nodal point"):
                _require_nodal(lad)


def test_vertex_nodal_test_agrees_with_evaluating_the_field(uk_q1):
    # about the vertex of r^gamma phi the test takes u(x0) = 0 from the
    # separated form, without a field call: on every closed-form ladder of
    # the test fields, the field called at x0 gives the same verdict
    fs = [uk_q1, construct_uk(ProblemParams(q=1.5, lambda_minus=2.0), 9).to_field()]
    fs += [monomial_field(d, phase) for d in range(1, 6) for phase in ("cos", "sin")]
    fs += [_RotatedMonomial(d, alpha, phase, c) for d in (1, 3, 6) for alpha in (0.0, 0.4, 2.5)
           for phase in ("cos", "sin") for c in (1e-12, 1.0, 1e6)]
    ladders = (np.linspace(0.1, 1.0, 4), np.geomspace(0.02, 0.8, 6),
               0.5 * 2.0 ** -np.arange(8.0)[::-1], [0.6])
    for f in fs:
        for radii in ladders:
            lad = _ladder(f, ORIGIN, radii)
            assert lad.vertex and _nodal_by_evaluation(lad)
            _require_nodal(lad)
        # off the vertex the ladder is Cartesian, and the field is called
        assert not _ladder(f, (0.1, 0.0), [0.2, 0.5], bulk=False).vertex
