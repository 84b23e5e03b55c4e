import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodallab.fields import (
    AngularProfile, ClosedFormField, DomainError, GridField, HomogeneousField,
    NodalSet, ParseError, load, monomial_field, save,
)
from nodallab.orders import RescaledField
from nodallab.params import ProblemParams


def cos2_profile(n=256):
    return AngularProfile.from_callable(
        lambda t: np.cos(2 * t), lambda t: -2.0 * np.sin(2 * t), n_theta=n)


def test_profile_interpolation_accuracy():
    prof = cos2_profile()
    th = np.linspace(0, 2 * np.pi, 1000)
    err = max(abs(prof(t) - np.cos(2 * t)) for t in th)
    derr = max(abs(prof.prime(t) + 2 * np.sin(2 * t)) for t in th)
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


def test_homogeneous_field_matches_closed_form():
    f = HomogeneousField(2.0, cos2_profile(512))
    ref = monomial_field(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    for x, y in pts:
        assert abs(f(x, y) - ref(x, y)) < 1e-6
        gx, gy = f.grad(x, y)
        rx, ry = ref.grad(x, y)
        assert abs(gx - rx) < 1e-3 and abs(gy - ry) < 1e-3
    # gradient of r^gamma phi vanishes at the origin for gamma > 1
    gx, gy = f.grad(0.0, 0.0)
    assert gx == 0.0 and gy == 0.0


def test_homogeneous_field_bad_gamma():
    with pytest.raises(ValueError):
        HomogeneousField(0.0, cos2_profile())


def test_grid_field_eval_and_grad():
    f = GridField.sample(monomial_field(2), 257)
    ref = monomial_field(2)
    for x, y in [(0.3, 0.1), (-0.5, 0.4), (0.0, 0.0)]:
        assert abs(f(x, y) - ref(x, y)) < 1e-3
        gx, gy = f.grad(x, y)
        rx, ry = ref.grad(x, y)
        assert abs(gx - rx) < 1e-2 and abs(gy - ry) < 1e-2
    with pytest.raises(DomainError):
        f(1.5, 0.0)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        GridField(np.zeros((2, 2)))  # too small for the one-sided stencils


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
    ns = NodalSet(segments=[((0.0, 0.0), (0.5, 0.5))], singular_points=[])
    path = tmp_path / "ns.csv"
    ns.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,y1,x2,y2"
    assert len(lines) == 2


def test_closed_form_field_scale():
    f = ClosedFormField(lambda x, y: 3.0 * x, lambda x, y: (3.0, 0.0))
    assert abs(f.scale() - 2.1) < 1e-12  # max |3x| on the r=0.7 circle


def _old_homogeneous_grad(f, x, y):
    """Reference: the polar gradient with separate value and slope lookups."""
    r, th = np.hypot(x, y), np.arctan2(y, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_r = f.gamma * r ** (f.gamma - 1.0) * f.profile(th)
        u_t_over_r = r ** (f.gamma - 1.0) * f.profile.prime(th)
    u_r = np.where(r > 0, u_r, 0.0)
    u_t_over_r = np.where(r > 0, u_t_over_r, 0.0)
    ct, st_ = np.cos(th), np.sin(th)
    return u_r * ct - u_t_over_r * st_, u_r * st_ + u_t_over_r * ct


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
        assert all(np.array_equal(a, b) for a, b in zip((gx, gy), f.grad(x, y)))
        if isinstance(f, HomogeneousField):
            assert all(np.array_equal(a, b)
                       for a, b in zip((gx, gy), _old_homogeneous_grad(f, x, y)))


@settings(max_examples=50, deadline=None)
@given(th=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_catmull_rom_periodic(th, seed):
    rng = np.random.default_rng(seed)
    prof = AngularProfile(rng.standard_normal(64), rng.standard_normal(64))
    # equal up to the rounding of theta + 2 pi itself
    assert abs(prof(th + 2 * np.pi) - prof(th)) < 1e-11
    assert abs(prof.prime(th + 2 * np.pi) - prof.prime(th)) < 1e-11
