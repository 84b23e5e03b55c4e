import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodallab.fields import (
    AngularProfile, ClosedFormField, DomainError, GridField, HomogeneousField,
    NodalSet, ParseError, PlanarField, _angles, _fmt, _fmt_rows, _sample_rings, load,
    monomial_field, save,
)
from nodallab.construct import construct_uk
from nodallab.functionals import _GL_T, _GL_W, _ladder
from nodallab.nodal import _disk, _sample_disk
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


def test_monomial_field_values():
    f = monomial_field(2)
    assert abs(f(1.0, 0.0) - 1.0) < 1e-15
    assert abs(f(0.0, 1.0) + 1.0) < 1e-15  # r^2 cos(2 theta) at theta=pi/2
    g = monomial_field(2, phase="sin")
    assert abs(g(1.0, 1.0) - 2.0) < 1e-15  # Im (x+iy)^2 = 2xy
    # a degree that is not an integer >= 1 is refused: at d = 2.5 the
    # separated form cos(d theta), theta in [0, 2 pi), has the field's sign
    # flipped on the lower half-plane, and NaN built an all-NaN field
    for d in (0, -1, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="^degree must be an integer >= 1, got "):
            monomial_field(d)
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
    # NaN lies in no cell: refused like a point outside the hull
    for x, y in ((np.nan, 0.0), (0.0, np.nan)):
        with pytest.raises(DomainError):
            f(x, y)
        with pytest.raises(DomainError):
            f.value_and_grad(x, y)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        GridField(np.zeros((2, 2)))  # too small for the one-sided stencils


@pytest.mark.parametrize("n", [0, 1, 2])
def test_grid_field_sample_too_small_never_calls_the_field(n):
    # the sampler's band size divides by n, and the constructor would refuse
    # n = 1 or 2 only after the whole grid had been sampled
    calls = []

    def value(x, y):
        calls.append(np.broadcast(x, y).size)
        return x * y

    with pytest.raises(ValueError, match="^grid needs at least 3 samples per side$"):
        GridField.sample(ClosedFormField(value, lambda x, y: (y, x)), n)
    assert calls == []
    GridField.sample(ClosedFormField(value, lambda x, y: (y, x)), 3)
    assert calls == [9]


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
    that the flat-index gathers replaced, a lerp along x at columns j and
    j + 1, then along y; the last node is the last cell's end, at offset 1."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fx = np.clip((x + 1.0) / f.h, 0, f.n - 1)
    fy = np.clip((y + 1.0) / f.h, 0, f.n - 1)
    i, j = np.minimum(fx.astype(int), f.n - 2), np.minimum(fy.astype(int), f.n - 2)
    sx, sy = fx - i, fy - j

    def blend(arr):
        v00, v10 = arr[i, j], arr[i + 1, j]
        v01, v11 = arr[i, j + 1], arr[i + 1, j + 1]
        return (1 - sy) * ((1 - sx) * v00 + sx * v10) + sy * ((1 - sx) * v01 + sx * v11)

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


def _reference_rows(rows, sep):
    """The writer's definition: each sample spelled by ``_fmt`` on its own."""
    return "".join(sep.join(map(_fmt, row)) + "\n" for row in np.asarray(rows).tolist())


@settings(max_examples=50, deadline=None)
@given(data=st.data(), nrows=st.integers(1, 4), ncols=st.integers(1, 12),
       sep=st.sampled_from([" ", ","]))
def test_fmt_rows_matches_fmt_on_every_float(data, nrows, ncols, sep):
    # st.floats() draws NaN, +-inf, +-0 and subnormals too
    vals = data.draw(st.lists(st.floats(), min_size=nrows * ncols, max_size=nrows * ncols))
    rows = np.array(vals, dtype=float).reshape(nrows, ncols)
    assert _fmt_rows(rows, sep) == _reference_rows(rows, sep)


# the extremes, exact ties in the 18th digit (2^-n), the switch between
# fixed and exponent notation, and the rounding of 0.1 and 0.5
_FMT_HARD = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.5,
             *(2.0 ** -n for n in range(20, 61)),
             *(np.nextafter(v, to) for v in (1e-5, 1e-4, 1e16, 1e17) for to in (0.0, v, np.inf))]


@pytest.mark.parametrize("sep", [" ", ","])
def test_fmt_rows_hard_cases(sep):
    hard = np.array(_FMT_HARD)
    for rows in (hard[None, :], np.stack((hard, -hard)), hard[:, None]):
        assert _fmt_rows(rows, sep) == _reference_rows(rows, sep)


def _reference_file(kind, params, extra, rows):
    """The NODALLAB v1 text of ``save``, spelled sample by sample with ``_fmt``."""
    head = [f"NODALLAB v1 {kind}", f"q={_fmt(params.q)}",
            f"lambda_plus={_fmt(params.lambda_plus)}",
            f"lambda_minus={_fmt(params.lambda_minus)}", f"mu={_fmt(params.mu)}", *extra]
    return "\n".join(head) + "\n" + _reference_rows(rows, " ")


def test_save_writes_the_reference_text(tmp_path):
    # a u_k profile (phi(0) = 0) and a grid sample with u(0, 0) = 0, each with
    # a few samples the writer leaves to _fmt; the 129^2 grid is spelled in
    # several blocks of whole rows
    prof = construct_uk(ProblemParams(q=1.25), 7).profile
    vals, der = prof.values.copy(), prof.derivative.copy()
    vals[1:4] = [2.0 ** -25, 5e-324, -0.0]
    prof = AngularProfile(vals, der, prof.params)
    samples = GridField.sample(monomial_field(3), 129).values.copy()
    samples[1, :3] = [2.0 ** -40, -1e300, 1e-5]
    grid = GridField(samples, ProblemParams(q=1.5))
    path = tmp_path / "f.txt"
    for obj, want in ((prof, _reference_file("profile", prof.params, [f"n_theta={len(vals)}"],
                                             [vals, der])),
                      (grid, _reference_file("grid", grid.params, ["n=129"], grid.values))):
        save(obj, path)
        assert path.read_text() == want


def test_load_refuses_a_line_after_the_samples(tmp_path):
    # a grid row written twice would shift the rows after it and drop the last
    path = tmp_path / "g.txt"
    save(GridField.sample(monomial_field(2), 5), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:8] + lines[7:]))
    with pytest.raises(ParseError, match="^line 12: unexpected line after the samples$"):
        load(path)
    # a trailing line after a profile's two sample lines
    save(cos2_profile(16), path)
    with open(path, "a") as fh:
        fh.write("garbage\n")
    with pytest.raises(ParseError, match="^line 5: unexpected line after the samples$"):
        load(path)


@pytest.mark.parametrize("tail", ["\n", "   \n\n"], ids=["newline", "blank-lines"])
def test_load_takes_trailing_blank_lines(tmp_path, tail):
    # an editor's final newline after the samples is no line of data, but a
    # line after blank ones is, and so is a blank line between two rows
    path = tmp_path / "g.txt"
    grid = GridField.sample(monomial_field(2), 4)
    save(grid, path)
    text = path.read_text()
    path.write_text(text + tail)
    got = load(path)
    assert np.array_equal(got.values, grid.values) and got.params == grid.params
    path.write_text(text + tail + "0 0 0 0\n")
    with pytest.raises(ParseError, match="^line 11: unexpected line after the samples$"):
        load(path)
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:8] + [tail] + lines[8:]))
    with pytest.raises(ParseError, match="^line 9: expected 4 samples, got 0$"):
        load(path)


def test_save_refuses_other_objects(tmp_path):
    # a closed-form field has no text form; nothing is written
    path = tmp_path / "f.txt"
    with pytest.raises(TypeError, match="^cannot save object of type _HarmonicMonomial$"):
        save(monomial_field(2), path)
    assert not path.exists()


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
    # the writer spells every row in one call with the bytes of _fmt per number
    rng = np.random.default_rng(7)
    segs = rng.standard_normal((300, 2, 2)) * 10.0 ** rng.integers(-20, 20, (300, 2, 2))
    segs[0] = [[0.0, -0.0], [1 / 3, -2.5e-310]]
    for ns in (NodalSet(segs), NodalSet([])):
        ns.save_csv(path)
        rows = ns.segments.reshape(-1, 4).tolist()
        want = "x1,y1,x2,y2\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()


def test_nodal_set_array_layout():
    pairs = [((0.0, 0.0), (0.5, 0.5)), ((-0.25, 0.1), (0.3, -0.2))]
    ns = NodalSet(pairs)
    assert ns.segments.dtype == np.float64 and ns.segments.shape == (2, 2, 2)
    assert ns.segments.tolist() == [[list(a), list(b)] for a, b in pairs]
    assert NodalSet([]).segments.shape == (0, 2, 2)
    assert ns == NodalSet(np.array(pairs)) and NodalSet() == NodalSet([])
    assert ns != NodalSet(pairs[:1])


@pytest.mark.parametrize("rows", [
    [((0.1, 0.1), (np.nan, 0.0))],
    [((np.nan, 0.1), (0.1, 0.0))],
    [((0.1, 0.1), (0.2, 0.2)), ((0.1, 0.1), (np.nan, 0.0)), ((np.inf, 0.0), (0.0, 0.0)),
     ((np.nan, 0.1), (0.1, 0.0)), ((0.0, -np.inf), (0.5, 0.0))],
], ids=["nan end", "nan start", "mixed with inf"])
def test_nodal_set_refuses_non_finite_segments(rows):
    # a NaN end gave a NaN length and a NaN start a silent 0.0; with an inf
    # row the disk clip also warned
    with pytest.raises(ValueError, match="^segments must be finite$"):
        NodalSet(rows)
    with pytest.raises(ValueError, match="^segments must be finite$"):
        NodalSet(np.array(rows))


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


def _radius_power_ref(x, y, p):
    """r^p as a HomogeneousField defines it: (x^2 + y^2)^(p/2), and
    hypot(x, y)^p where x^2 + y^2 is below the smallest normal double."""
    s = x * x + y * y
    with np.errstate(divide="ignore"):
        return np.where(s < np.finfo(float).tiny, np.hypot(x, y) ** p, s ** (p / 2))


def _homogeneous_ref(f, x, y):
    """Reference value and gradient of u = r^gamma phi through the stencil."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r, th = np.hypot(x, y), np.arctan2(y, x)
    prof = f.profile
    both = _profile_ref(prof, np.column_stack((prof.values, prof.derivative)), th)
    phi, dphi = both[..., 0], both[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r_g1 = _radius_power_ref(x, y, f.gamma - 1.0)
        u_r = f.gamma * r_g1 * phi
        u_t_over_r = r_g1 * dphi
    u_r = np.where(r > 0, u_r, 0.0)
    u_t_over_r = np.where(r > 0, u_t_over_r, 0.0)
    ct, st_ = np.cos(th), np.sin(th)
    return (_radius_power_ref(x, y, f.gamma) * phi,
            (u_r * ct - u_t_over_r * st_, u_r * st_ + u_t_over_r * ct))


def _same(a, b):
    """Equal bit for bit: shape, values, NaN positions and signs of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _every_field_class():
    homog = HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2))
    return [monomial_field(3), homog, GridField.sample(monomial_field(2), 33)]


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
    # the quadrature ladder samples its rings with __call__ on a circles-only
    # pass and with value_and_grad on a bulk pass, so the two must agree to
    # the bit for every field class
    fields = _every_field_class() + [
        ClosedFormField(lambda x, y: x * y - 0.1, lambda x, y: (y, x))]
    own = {c for c in _subclasses(PlanarField) if c.__module__.startswith("nodallab.")}
    assert own <= {type(f) for f in fields}
    xs = np.concatenate((np.linspace(-0.95, 0.95, 61), [0.0, -0.0, 1e-300]))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for f in fields:
        for x, y in ((X, Y), (X.ravel()[::7], Y.ravel()[::7]), (0.0, 0.0), (0.3, -0.2)):
            assert _same(f.value_and_grad(x, y)[0], f(x, y))


def test_call_broadcasts_bit_for_bit():
    # the grid sampler calls a field once per band, on the band's row
    # coordinates as a column and its column coordinates as a row: every
    # field class must give its values on the meshgrid, to the bit.  The
    # points include signed zeros, a coordinate whose square underflows and
    # the nodes of the GridField, whose last one is read from the last cell
    # at offset 1
    fields = _every_field_class() + [
        ClosedFormField(lambda x, y: x * y - 0.1, lambda x, y: (y, x))]
    own = {c for c in _subclasses(PlanarField) if c.__module__.startswith("nodallab.")}
    assert own <= {type(f) for f in fields}
    grid = next(f for f in fields if isinstance(f, GridField))
    nodes = np.linspace(-1.0, 1.0, grid.n)
    x = np.concatenate((nodes, [0.0, -0.0, 1e-300, 0.37]))
    y = np.concatenate(([-0.0, 1e-300, 0.0], nodes[::-2], [-0.61]))
    X, Y = np.meshgrid(x, y, indexing="ij")
    for f in fields:
        got = f(x[:, None], y[None, :])
        assert _same(got, f(X, Y)), type(f).__name__


_NODES33 = np.linspace(-1.0, 1.0, 33)
_SPAN = np.linspace(-0.8, 0.7, 11)


@pytest.mark.parametrize("x, y", [
    pytest.param(_NODES33, np.linspace(-1.0, 1.0, 36), id="33--1.0-1.0"),
    pytest.param(np.linspace(-0.45, 0.45, 20), np.linspace(-0.45, 0.45, 23), id="20--0.45-0.45"),
    pytest.param(np.linspace(-1.0, 0.3, 7), np.linspace(-0.3, 1.0, 10), id="7--1.0-0.3"),
    pytest.param([0.13], _SPAN, id="one-row"),
    pytest.param(_SPAN, [-0.29], id="one-column"),
    pytest.param(_NODES33[-3:], _NODES33[-4:], id="last-rows-and-columns"),
    pytest.param([1.0], [1.0], id="last-node"),
    pytest.param(_SPAN, [0.5, -0.3, 0.5, 0.91, -0.3, -1.0, 0.0, 0.0], id="unsorted-repeated-columns"),
    pytest.param([0.2, -0.7, 0.2, 1.0], [0.33, 0.33, 0.33], id="unsorted-rows-one-column"),
])
def test_grid_field_tensor_matches_pointwise(x, y):
    # on a tensor-product band (rows as a column, columns as a row) the band
    # path gives the pointwise blend and the fancy-index reference bit for
    # bit: on the field's own nodes, the last one read from the last cell at
    # offset 1, on bands of one row or one column, and on unsorted or
    # repeated coordinates, which the grid sampler never asks for
    f = GridField.sample(HomogeneousField(2.5, cos2_profile(64), ProblemParams(q=1.2)), 33)
    x, y = np.asarray(x), np.asarray(y)
    X, Y = np.meshgrid(x, y, indexing="ij")
    got = f(x[:, None], y[None, :])
    assert got.shape == (len(x), len(y))
    assert _same(got, f(X, Y)) and _same(got, _grid_ref(f, X, Y)[0])


@pytest.mark.parametrize("n", [3, 33, 513])
def test_grid_field_reads_its_own_nodes(n):
    # a GridField at its own nodes is its samples, the last row and column
    # too: on these n every node (x + 1) / h is an exact integer
    rng = np.random.default_rng(n)
    f = GridField(rng.standard_normal((n, n)))
    xs = np.linspace(-1.0, 1.0, n)
    assert _same(f(xs[:, None], xs[None, :]), f.values)
    assert _same(f(*np.meshgrid(xs, xs, indexing="ij")), f.values)


def test_grid_field_tensor_outside_hull():
    # a tensor-product band that leaves the hull along either axis is refused
    f = GridField.sample(monomial_field(2), 33)
    inside = np.linspace(-1.0, 1.0, 5)
    for x, y in ((np.linspace(-1.2, 1.2, 5), inside), (inside, np.linspace(-1.2, 1.2, 5))):
        with pytest.raises(DomainError):
            f(x[:, None], y[None, :])


@settings(max_examples=25, deadline=None)
@given(gamma=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]), st.floats(0.1, 6.0)),
       n=st.integers(3, 600), rows=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2**16))
def test_homogeneous_field_tensor_matches_meshgrid(gamma, n, rows, data, seed):
    # a band of grid rows and a run of its columns, as the grid sampler asks
    # for them: the squared radius and angle of the broadcast coordinates give
    # the field on the meshgrid bit for bit, and the in-place power (numpy
    # special-cases the exponents gamma / 2 = 0.5, 1 and 2) and product give
    # the floats of (x^2 + y^2)^(gamma / 2) * phi; odd n puts the origin on
    # the grid
    rng = np.random.default_rng(seed)
    f = HomogeneousField(gamma, AngularProfile(rng.standard_normal(64), rng.standard_normal(64)))
    xs = np.linspace(-1.0, 1.0, n)
    r0 = data.draw(st.integers(0, n - 1))
    c0 = data.draw(st.integers(0, n - 1))
    c1 = data.draw(st.integers(c0 + 1, n))
    x, y = xs[r0:r0 + rows], xs[c0:c1]
    X, Y = np.meshgrid(x, y, indexing="ij")
    assert _same(f(x[:, None], y[None, :]), f(X, Y))
    assert _same(f(X, Y), _radius_power_ref(X, Y, f.gamma) * f.profile(np.arctan2(Y, X)))


def _unit_profile():
    """phi = 1: every Catmull-Rom coefficient but d is 0, so u = r^gamma exactly."""
    return AngularProfile(np.ones(16), np.zeros(16))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
@pytest.mark.parametrize("n", [256, 512, 513])
def test_homogeneous_radius_power_accuracy(n):
    # r^gamma sampled on the disk grid against (x^2 + y^2)^(gamma/2) in long
    # double, in units in the last place of the double: the squared radius
    # errs less on average than hypot(x, y)^gamma at every gamma, at most as
    # much for gamma >= 2, and not at all on the dyadic 513^2 nodes at gamma =
    # 2 and 4, where x^2 + y^2 and its square are exact
    for gamma in (0.5, 2.0, 8.0 / 3.0, 4.0, 8.0, 20.0):
        xs, inside, *_ = _disk(n)
        V = _sample_disk(HomogeneousField(gamma, _unit_profile()), n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        x, y = X[inside], Y[inside]
        xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
        ref = (xl * xl + yl * yl) ** (np.longdouble(gamma) / 2)
        ulp = np.spacing(ref.astype(float))
        err = np.abs(V[inside] - ref) / ulp
        err_hypot = np.abs(np.hypot(x, y) ** gamma - ref) / ulp
        assert err.mean() < err_hypot.mean(), gamma
        if gamma >= 2.0:
            assert err.max() <= err_hypot.max(), gamma
        if n == 513 and gamma in (2.0, 4.0):
            assert err.max() == 0.0, gamma


def test_homogeneous_tiny_radius_takes_hypot():
    # below the smallest normal double x^2 + y^2 has lost precision, and at
    # (1e-170, 0) it is 0: those points take hypot(x, y) to the power
    f = HomogeneousField(0.5, _unit_profile())
    x, y = np.array([3e-160, 1e-170]), np.array([4e-160, 0.0])
    want = np.hypot(x, y) ** 0.5
    assert want.min() > 1e-86
    assert _same(f(x, y), want) and _same(f.value_and_grad(x, y)[0], want)
    assert _same(f(x[:, None], y[None, :]), np.hypot(x[:, None], y[None, :]) ** 0.5)
    for k in range(2):
        assert f(x[k], y[k]) == want[k]
    # and the gradient r^(gamma - 1) there, not the origin's 0
    gx, gy = f.value_and_grad(1e-170, 0.0)[1]
    assert gx == pytest.approx(0.5e85, rel=1e-15) and gy == 0.0
    # the origin is no tiny point: there x^2 + y^2 = 0 = hypot(x, y), so a
    # single call skips the mask and hypot, and still gives hypot's value and
    # gradient bit for bit (0^p is 0, 1 or inf), alone and in an odd-n band
    # through it; phi(0) < 0, so the value is -0.0
    assert HomogeneousField._polar(0.0, 0.0)[2] is None
    assert HomogeneousField._polar(1e-170, 0.0)[2] is not None
    rng = np.random.default_rng(7)
    prof = AngularProfile(rng.standard_normal(16) - 3.0, rng.standard_normal(16))
    xs = np.linspace(-1.0, 1.0, 9)
    assert xs[4] == 0.0
    for gamma in (0.5, 1.0, 2.5):
        f = HomogeneousField(gamma, prof)
        for x, y in ((0.0, 0.0), (xs[:, None], xs[None, :]), (xs[2:7, None], xs[None, :])):
            want, (want_x, want_y) = _homogeneous_ref(f, *np.broadcast_arrays(x, y))
            v, (gx, gy) = f.value_and_grad(x, y)
            assert _same(f(x, y), want) and _same(v, want), gamma
            assert _same(gx, want_x) and _same(gy, want_y), gamma
        assert np.signbit(f(0.0, 0.0))


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


# a ladder: distinct radii, sorted
_LADDER_RADII = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5, unique=True).map(
    lambda rs: np.array(sorted(rs)))


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
             (GridField.sample(monomial_field(2), 33), (-0.1, 0.3))]
    for f, x0 in cases:
        got = _sample_rings(f, x0, rho, _RING_THETA, grad=grad)
        want = _cartesian_rings(f, x0, rho, _RING_THETA, grad)
        if grad:
            assert _same(got[0], want[0]) and all(map(_same, got[1], want[1]))
        else:
            assert _same(got, want)
