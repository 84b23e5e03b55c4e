import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodallab.fields import (
    AngularProfile, ClosedFormField, DomainError, GridField, HomogeneousField,
    NodalSet, ParseError, PlanarField, _angles, _sample_rings, load, monomial_field, save,
)
from nodallab.construct import construct_uk
from nodallab.functionals import _GL_T, _GL_W, _ladder
from nodallab.orders import RescaledField
from nodallab.params import ProblemParams


def cos2_profile(n=256):
    th = _angles(n)
    return AngularProfile(np.cos(2 * th), -2.0 * np.sin(2 * th))


def test_angles_are_uniform():
    # 2 pi / 64 is exact, so the two spellings give the same floats
    assert np.array_equal(_angles(64), np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    assert np.array_equal(_angles(7), 2.0 * np.pi * np.arange(7) / 7)


def test_profile_interpolation_accuracy():
    prof = cos2_profile()
    th = np.linspace(0, 2 * np.pi, 1000)
    err = max(abs(prof(t) - np.cos(2 * t)) for t in th)
    derr = max(abs(prof.value_and_prime(t)[1] + 2 * np.sin(2 * t)) for t in th)
    # cubic interpolation on 256 samples, error O(h^4) with h = 2 pi / 256
    assert err < 1e-5
    assert derr < 1e-3


def test_profile_validation():
    with pytest.raises(ValueError):
        AngularProfile(np.zeros(8), np.zeros(8))  # too few samples
    with pytest.raises(ValueError):
        AngularProfile(np.zeros(32), np.zeros(16))


def test_profile_scale():
    prof = cos2_profile()
    assert abs(prof.scale() - 1.0) < 1e-12
    zero = AngularProfile(np.zeros(32), np.zeros(32))
    assert zero.scale() == 1.0  # falls back so ratios stay finite


def test_monomial_field_values():
    f = monomial_field(2)
    assert abs(f(1.0, 0.0) - 1.0) < 1e-15
    assert abs(f(0.0, 1.0) + 1.0) < 1e-15  # r^2 cos(2 theta) at theta=pi/2
    g = monomial_field(2, phase="sin")
    assert abs(g(1.0, 1.0) - 2.0) < 1e-15  # Im (x+iy)^2 = 2xy
    with pytest.raises(ValueError):
        monomial_field(0)
    # a misspelt phase is refused, not read as the sine companion
    with pytest.raises(ValueError, match="phase must be 'cos' or 'sin', got 'cosine'"):
        monomial_field(2, "cosine")


def test_homogeneous_field_matches_closed_form():
    f = HomogeneousField(2.0, cos2_profile(512))
    ref = monomial_field(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    for x, y in pts:
        assert abs(f(x, y) - ref(x, y)) < 1e-6
        gx, gy = f.value_and_grad(x, y)[1]
        rx, ry = ref.value_and_grad(x, y)[1]
        assert abs(gx - rx) < 1e-3 and abs(gy - ry) < 1e-3
    # gradient of r^gamma phi vanishes at the origin for gamma > 1
    gx, gy = f.value_and_grad(0.0, 0.0)[1]
    assert gx == 0.0 and gy == 0.0


def test_homogeneous_field_bad_gamma():
    for gamma in (0.0, -1.0, -np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            HomogeneousField(gamma, cos2_profile())


def test_grid_field_eval_and_grad():
    f = GridField.sample(monomial_field(2), 257)
    ref = monomial_field(2)
    for x, y in [(0.3, 0.1), (-0.5, 0.4), (0.0, 0.0)]:
        assert abs(f(x, y) - ref(x, y)) < 1e-3
        gx, gy = f.value_and_grad(x, y)[1]
        rx, ry = ref.value_and_grad(x, y)[1]
        assert abs(gx - rx) < 1e-2 and abs(gy - ry) < 1e-2
    with pytest.raises(DomainError):
        f(1.5, 0.0)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        GridField(np.zeros((2, 2)))  # too small for the one-sided stencils


def test_grid_field_gradient_exact_on_quadratics():
    # the central and the one-sided edge stencils are both second order, so
    # they are exact up to rounding on a quadratic, edges and corners included
    quad = ClosedFormField(lambda x, y: x * x + 3.0 * x * y - y * y + 2.0 * x,
                           lambda x, y: (2.0 * x + 3.0 * y + 2.0, 3.0 * x - 2.0 * y))
    f = GridField.sample(quad, 33)
    xs = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    gx, gy = quad.value_and_grad(X, Y)[1]
    assert np.max(np.abs(f._gx - gx)) < 1e-12 and np.max(np.abs(f._gy - gy)) < 1e-12


def _grid_ref(f, x, y):
    """Reference value and gradient of a GridField: the 2-d fancy-index blend
    that the flat-index gathers replaced."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fx = np.clip((x + 1.0) / f.h, 0, f.n - 1 - 1e-12)
    fy = np.clip((y + 1.0) / f.h, 0, f.n - 1 - 1e-12)
    i, j = fx.astype(int), fy.astype(int)
    sx, sy = fx - i, fy - j

    def blend(arr):
        v00, v10 = arr[i, j], arr[i + 1, j]
        v01, v11 = arr[i, j + 1], arr[i + 1, j + 1]
        return (v00 * (1 - sx) * (1 - sy) + v10 * sx * (1 - sy)
                + v01 * (1 - sx) * sy + v11 * sx * sy)

    return blend(f.values), (blend(f._gx), blend(f._gy))


def test_grid_field_matches_fancy_index_blend():
    u = HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2))
    xs = np.linspace(-1.0, 1.0, 512)
    # Fortran-ordered samples are stored C-ordered, so the gathers see the same grid
    f = GridField(np.asfortranarray(u(*np.meshgrid(xs, xs, indexing="ij"))))
    assert f.values.flags.c_contiguous
    rng = np.random.default_rng(7)
    corners = np.array([-1.0, 1.0, -1.0 - 1e-13, 1.0 + 1e-13, 0.0])
    points = [np.meshgrid(xs, xs, indexing="ij"),
              rng.uniform(-1.0, 1.0, (2, 3, 1000)),
              np.meshgrid(corners, corners, indexing="ij"),
              (0.3, -1.0), (1.0, 1.0)]
    for x, y in points:
        v, (gx, gy) = _grid_ref(f, x, y)
        got_v, (got_gx, got_gy) = f.value_and_grad(x, y)
        assert _same(f(x, y), v) and _same(got_v, v)
        assert _same(got_gx, gx) and _same(got_gy, gy)


def test_profile_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    prof = AngularProfile(rng.standard_normal(64), rng.standard_normal(64),
                          ProblemParams(q=1.5, lambda_minus=4.0))
    path = tmp_path / "prof.txt"
    save(prof, path)
    back = load(path)
    assert isinstance(back, AngularProfile)
    assert np.array_equal(back.values, prof.values)
    assert np.array_equal(back.derivative, prof.derivative)
    assert back.params == prof.params
    # saving the loaded object reproduces the file byte for byte
    path2 = tmp_path / "prof2.txt"
    save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_homogeneous_roundtrip(tmp_path):
    f = HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2))
    path = tmp_path / "f.txt"
    save(f, path)
    back = load(path)
    assert isinstance(back, HomogeneousField)
    assert back.gamma == 2.5
    assert np.array_equal(back.profile.values, f.profile.values)


def test_grid_roundtrip(tmp_path):
    f = GridField.sample(monomial_field(1), 65)
    path = tmp_path / "g.txt"
    save(f, path)
    back = load(path)
    assert isinstance(back, GridField)
    assert np.array_equal(back.values, f.values)


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("NODALLAB v1 profile\nq=1\nlambda_plus=1\n"
                   "lambda_minus=1\nmu=1\nn_theta=4\n1 2 3\n1 2 3 4\n")
    with pytest.raises(ParseError, match="line"):
        load(bad)
    bad.write_text("WRONG v1 profile\n")
    with pytest.raises(ParseError, match="line 1"):
        load(bad)
    bad.write_text("NODALLAB v9 profile\n")
    with pytest.raises(ParseError, match="version"):
        load(bad)
    bad.write_text("")
    with pytest.raises(ParseError):
        load(bad)
    # well-formed lines whose values the constructors reject
    bad.write_text("NODALLAB v1 profile\nn_theta=4\n1 2 3 4\n1 2 3 4\n")
    with pytest.raises(ParseError, match="line 3: profile needs at least 16"):
        load(bad)
    bad.write_text("NODALLAB v1 grid\nn=2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="line 3: grid needs at least 3"):
        load(bad)


def test_nodal_set_csv(tmp_path):
    ns = NodalSet(segments=[((0.0, 0.0), (0.5, 0.5))])
    path = tmp_path / "ns.csv"
    ns.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,y1,x2,y2"
    assert len(lines) == 2


def test_nodal_set_array_layout():
    pairs = [((0.0, 0.0), (0.5, 0.5)), ((-0.25, 0.1), (0.3, -0.2))]
    ns = NodalSet(pairs)
    assert ns.segments.dtype == np.float64 and ns.segments.shape == (2, 2, 2)
    assert ns.segments.tolist() == [[list(a), list(b)] for a, b in pairs]
    assert NodalSet([]).segments.shape == (0, 2, 2)
    assert ns == NodalSet(np.array(pairs)) and NodalSet() == NodalSet([])
    assert ns != NodalSet(pairs[:1])


def test_closed_form_field_scale():
    f = ClosedFormField(lambda x, y: 3.0 * x, lambda x, y: (3.0, 0.0))
    assert abs(f.scale() - 2.1) < 1e-12  # max |3x| on the r=0.7 circle


def _catmull_rom_ref(values, x):
    """Reference: the per-point stencil that the coefficient table replaced.

    ``x`` is in sample units (sample j sits at x=j); ``values`` may carry
    trailing columns, interpolated together with one gather of the stencil.
    """
    n = len(values)
    x = np.asarray(x, dtype=float)
    j = np.floor(x).astype(int)
    s = (x - j).reshape(j.shape + (1,) * (values.ndim - 1))
    p0 = values[(j - 1) % n]
    p1 = values[j % n]
    p2 = values[(j + 1) % n]
    p3 = values[(j + 2) % n]
    a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3
    b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3
    c = 0.5 * (p2 - p0)
    d = p1
    return ((a * s + b) * s + c) * s + d


def _profile_ref(prof, samples, theta):
    x = np.asarray(theta, dtype=float) * prof.n_theta / (2.0 * np.pi)
    return _catmull_rom_ref(samples, x % prof.n_theta)


def _homogeneous_ref(f, x, y):
    """Reference value and gradient of u = r^gamma phi through the stencil."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r, th = np.hypot(x, y), np.arctan2(y, x)
    prof = f.profile
    both = _profile_ref(prof, np.column_stack((prof.values, prof.derivative)), th)
    phi, dphi = both[..., 0], both[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r_g1 = r ** (f.gamma - 1.0)
        u_r = f.gamma * r_g1 * phi
        u_t_over_r = r_g1 * dphi
    u_r = np.where(r > 0, u_r, 0.0)
    u_t_over_r = np.where(r > 0, u_t_over_r, 0.0)
    ct, st_ = np.cos(th), np.sin(th)
    return r**f.gamma * phi, (u_r * ct - u_t_over_r * st_, u_r * st_ + u_t_over_r * ct)


def _same(a, b):
    """Equal bit for bit: shape, values, NaN positions and signs of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _every_field_class():
    homog = HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2))
    return [monomial_field(3), homog, GridField.sample(monomial_field(2), 33),
            RescaledField(homog, (0.1, 0.0), 0.5, 2.0)]


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 0.95), th=st.floats(-np.pi, np.pi), n=st.integers(1, 5))
def test_value_and_grad_matches_separate_calls(r, th, n):
    x = np.full(n, r * np.cos(th)) * np.linspace(0.5, 1.0, n)
    y = np.full(n, r * np.sin(th)) * np.linspace(0.5, 1.0, n)
    for f in _every_field_class():
        v, (gx, gy) = f.value_and_grad(x, y)
        assert np.array_equal(v, f(x, y))
        if isinstance(f, HomogeneousField):
            assert all(np.array_equal(a, b)
                       for a, b in zip((gx, gy), _homogeneous_ref(f, x, y)[1]))


def _subclasses(cls):
    return {sub for c in cls.__subclasses__() for sub in {c} | _subclasses(c)}


def test_value_and_grad_value_is_call_bit_for_bit():
    # detection samples the grid with __call__ and asks value_and_grad only at
    # its candidates, so the two must agree to the bit for every field class
    fields = _every_field_class() + [
        ClosedFormField(lambda x, y: x * y - 0.1, lambda x, y: (y, x))]
    own = {c for c in _subclasses(PlanarField) if c.__module__.startswith("nodallab.")}
    assert own <= {type(f) for f in fields}
    xs = np.concatenate((np.linspace(-0.95, 0.95, 61), [0.0, -0.0, 1e-300]))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for f in fields:
        for x, y in ((X, Y), (X.ravel()[::7], Y.ravel()[::7]), (0.0, 0.0), (0.3, -0.2)):
            assert _same(f.value_and_grad(x, y)[0], f(x, y))


@pytest.mark.parametrize("m, lo, hi", [(33, -1.0, 1.0), (20, -0.45, 0.45), (7, -1.0, 0.3)])
def test_grid_field_tensor_matches_pointwise(m, lo, hi):
    # the per-axis weights broadcast over a band give the pointwise blend bit
    # for bit; m = 33 puts the points on the field's own nodes, where the
    # last one is clipped to n - 1 - 1e-12
    f = GridField.sample(HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2)), 33)
    x, y = np.linspace(lo, hi, m), np.linspace(-hi, -lo, m + 3)
    X, Y = np.meshgrid(x, y, indexing="ij")
    got = f._tensor(x, y)
    assert got.shape == (m, m + 3)
    assert _same(got, f(X, Y)) and _same(got, _grid_ref(f, X, Y)[0])
    assert _same(got, PlanarField._tensor(f, x, y))


def test_grid_field_tensor_outside_hull():
    f = GridField.sample(monomial_field(2), 33)
    inside = np.linspace(-1.0, 1.0, 5)
    for x, y in ((np.linspace(-1.2, 1.2, 5), inside), (inside, np.linspace(-1.2, 1.2, 5))):
        with pytest.raises(DomainError):
            f._tensor(x, y)


@settings(max_examples=50, deadline=None)
@given(th=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_catmull_rom_periodic(th, seed):
    rng = np.random.default_rng(seed)
    prof = AngularProfile(rng.standard_normal(64), rng.standard_normal(64))
    # equal up to the rounding of theta + 2 pi itself
    assert abs(prof(th + 2 * np.pi) - prof(th)) < 1e-11
    assert abs(prof.value_and_prime(th + 2 * np.pi)[1] - prof.value_and_prime(th)[1]) < 1e-11


# negative angles, +-pi, multiples of 2 pi, +-1e-300 (x mod n rounds to n for
# -1e-300), signed zeros, the last double below 2 pi, and non-finite angles
SPECIAL_THETA = [-1e-300, 1e-300, -0.0, 0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                 6 * np.pi, -4 * np.pi, -1.0, -7.5, -1e3, 1e5,
                 np.nextafter(2 * np.pi, 0), np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("n", [16, 64, 4096])
def test_profile_table_matches_stencil(n):
    rng = np.random.default_rng(n)
    prof = AngularProfile(rng.standard_normal(n), rng.standard_normal(n))
    stacked = np.column_stack((prof.values, prof.derivative))
    th1 = np.concatenate((SPECIAL_THETA, rng.uniform(-20.0, 20.0, 2000)))
    thetas = [*SPECIAL_THETA, *map(np.array, SPECIAL_THETA), th1, th1.reshape(-1, 2)]
    with np.errstate(invalid="ignore", over="ignore"):
        for th in thetas:
            assert _same(prof(th), _profile_ref(prof, prof.values, th))
            assert _same(prof.value_and_prime(th)[1], _profile_ref(prof, prof.derivative, th))
            both = _profile_ref(prof, stacked, th)
            v, dv = prof.value_and_prime(th)
            assert _same(v, both[..., 0]) and _same(dv, both[..., 1])

    f = HomogeneousField(1.7, prof)
    x, y = rng.uniform(-1.0, 1.0, (2, 40, 50))
    # the origin, and the negative x axis on both sides of the branch cut
    x[0, :4], y[0, :4] = [0.0, -0.5, -0.5, -1e-3], [0.0, 0.0, -0.0, -0.0]
    for px, py in [(x, y), (x[0], y[0]), (-0.5, -0.0), (0.3, 0.4), (0.0, 0.0)]:
        want_v, want_g = _homogeneous_ref(f, px, py)
        v, g = f.value_and_grad(px, py)
        assert _same(f(px, py), want_v) and _same(v, want_v)
        assert all(_same(a, b) for a, b in zip(g, want_g))


def test_profile_arrays_read_only():
    vals, der = np.cos(np.arange(32.0)), np.sin(np.arange(32.0))
    prof = AngularProfile(vals, der)
    vals[0] = 5.0  # the profile keeps its own copy
    assert prof.values[0] == 1.0
    with pytest.raises(ValueError):
        prof.values[0] = 5.0
    with pytest.raises(ValueError):
        prof.derivative[:] = 0.0
    assert prof(0.0) == 1.0


_finite = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(16, 40), data=st.data(),
       gamma=st.floats(1e-3, 50.0), q=st.floats(1.0, 1.999),
       lam=st.floats(0.0, 10.0), seed=st.integers(0, 2**16))
def test_save_load_round_trip_property(n, data, gamma, q, lam, seed):
    vals = np.array(data.draw(st.lists(_finite, min_size=n, max_size=n)))
    der = np.array(data.draw(st.lists(_finite, min_size=n, max_size=n)))
    prof = AngularProfile(vals, der, ProblemParams(q=q, lambda_minus=lam))
    field_ = HomogeneousField(gamma, prof)
    rng = np.random.default_rng(seed)
    th = rng.uniform(-10.0, 10.0, 64)
    x, y = rng.uniform(-1.0, 1.0, (2, 64))
    with tempfile.TemporaryDirectory() as tmp:
        for obj in (prof, field_):
            path = os.path.join(tmp, "obj.txt")
            save(obj, path)
            back = load(path)
            assert type(back) is type(obj) and back.params == obj.params
            bp, op = (back, obj) if isinstance(obj, AngularProfile) else (back.profile, obj.profile)
            assert _same(bp.values, op.values) and _same(bp.derivative, op.derivative)
            assert all(_same(a, b) for a, b in zip(bp.value_and_prime(th), op.value_and_prime(th)))
            if isinstance(obj, HomogeneousField):
                assert back.gamma == obj.gamma
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = back.value_and_grad(x, y), obj.value_and_grad(x, y)
                assert _same(got[0], want[0])
                assert all(_same(a, b) for a, b in zip(got[1], want[1]))


# the ladder's angles, then angles off [0, 2 pi) that the profile wraps
_RING_THETA = np.concatenate((2.0 * np.pi * np.arange(1024) / 1024, [-3.0, -1e-300, 7.5, 40.0]))
_RING_RHO = np.array([0.0, 1e-9, 0.02, 0.3, 0.77, 1.0])


@pytest.fixture(scope="module")
def uk_by_q():
    cache = {}

    def get(q):
        if q not in cache:
            p = ProblemParams(q=q, lambda_minus=2.0)
            cache[q] = construct_uk(p, {1.0: 5, 1.25: 7, 1.5: 9, 1.75: 17}[q]).to_field()
        return cache[q]

    return get


def _cartesian_rings(f, x0, rho, theta, grad):
    X = x0[0] + np.outer(rho, np.cos(theta))
    Y = x0[1] + np.outer(rho, np.sin(theta))
    return f.value_and_grad(X, Y) if grad else f(X, Y)


class _Undeclared(PlanarField):
    """The field with no separated form declared, so every ring is Cartesian."""

    def __init__(self, field):
        self.field, self.params = field, field.params

    def __call__(self, x, y):
        return self.field(x, y)

    def value_and_grad(self, x, y):
        return self.field.value_and_grad(x, y)

    def scale(self):
        return self.field.scale()


# radii in drawn order with the first two repeated
_LADDER_RADII = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5).map(
    lambda rs: np.array(rs + rs[:2]))


def _assert_separated_ladder_matches(f, radii, bulk, f_bulk_tol=1e-13):
    # every _Ladder row held to 1e-13 of its largest magnitude, f_bulk to
    # f_bulk_tol
    got = _ladder(f, (0.0, 0.0), radii, bulk)
    want = _ladder(_Undeclared(f), (0.0, 0.0), radii, bulk)
    for name in ("H", "grad2", "f_bulk", "unu2", "uunu", "f_circle") if bulk else ("H",):
        a, b = getattr(got, name), getattr(want, name)
        tol = f_bulk_tol if name == "f_bulk" else 1e-13
        assert a.shape == radii.shape, name
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b)), name


def _gl_error(p):
    """Relative error of the Cartesian ladder's Gauss-Legendre panel on the
    integral of rho^p over [0, 1], the first annulus scaled to unit width."""
    return abs((p + 1) * np.dot(_GL_W, _GL_T**p) - 1.0)


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.75])
@settings(max_examples=8, deadline=None)
@given(radii=_LADDER_RADII)
def test_sample_rings_separable_matches_cartesian(uk_by_q, q, grad, radii):
    # u_k at the origin: the ladder summed in separated form (with ``grad``
    # the bulk ladder, without it the circles alone) agrees with the same
    # field sampled on Cartesian rings
    _assert_separated_ladder_matches(uk_by_q(q), radii, grad)


@pytest.mark.parametrize("bulk", [False, True])
@pytest.mark.parametrize("phase", ["cos", "sin"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@settings(max_examples=4, deadline=None)
@given(radii=_LADDER_RADII)
def test_monomial_separated_ladder_matches_cartesian(d, phase, bulk, radii):
    f = monomial_field(d, phase)
    f.params = ProblemParams(q=1.5, lambda_minus=2.0)  # a nonzero F
    # the separated f_bulk is the exact integral of rho^(d q + 1); at d = 1
    # the Cartesian reference misses it on the first annulus by 9e-13
    _assert_separated_ladder_matches(f, radii, bulk, 1e-13 + _gl_error(d * 1.5 + 1))


@pytest.mark.parametrize("phase", ["cos", "sin"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_monomial_separated_ladder_exact(d, phase):
    # Re/Im z^d at its vertex: the closed-form circle and disk integrals
    r = np.geomspace(0.01, 1.0, 50)
    lad = _ladder(monomial_field(d, phase), (0.0, 0.0), r)
    for name, want in (("H", np.pi * r ** (2 * d + 1)), ("grad2", np.pi * d * r ** (2 * d)),
                       ("unu2", np.pi * d * d * r ** (2 * d - 1)),
                       ("uunu", np.pi * d * r ** (2 * d))):
        assert np.all(np.abs(getattr(lad, name) - want) <= 1e-15 * want), name


@pytest.mark.parametrize("grad", [False, True])
def test_sample_rings_cartesian_fields_bit_identical(uk_by_q, grad):
    # every field and centre is sampled at its Cartesian points, a
    # homogeneous field or a monomial at the origin included
    homog = uk_by_q(1.5)
    rho = _RING_RHO[1:] * 0.6
    cases = [(homog, (0.0, 0.0)), (homog, (0.05, 0.0)), (homog, (0.0, -0.2)),
             (monomial_field(3), (0.0, 0.0)),
             (monomial_field(2, "sin"), (0.1, 0.2)), (GridField.sample(homog, 65), (0.0, 0.0)),
             (GridField.sample(monomial_field(2), 33), (-0.1, 0.3)),
             (RescaledField(homog, (0.0, 0.0), 0.5, 2.0), (0.0, 0.0))]
    for f, x0 in cases:
        got = _sample_rings(f, x0, rho, _RING_THETA, grad=grad)
        want = _cartesian_rings(f, x0, rho, _RING_THETA, grad)
        if grad:
            assert _same(got[0], want[0]) and all(map(_same, got[1], want[1]))
        else:
            assert _same(got, want)
