import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodallab import fields, nodal
from nodallab.construct import construct_uk
from nodallab.fields import (
    AngularProfile, ClosedFormField, GridField, HomogeneousField, NodalSet, PlanarField, _angles,
    _sample_grid, monomial_field,
)
from nodallab.nodal import (
    DataError, _branches, _clip_to_disk, _sample_disk, count_sign_changes,
    detect_singular, extract_nodal_set, nodal_length, profile_zero_structure,
)
from nodallab.params import ProblemParams, k_bar


@pytest.fixture(scope="module")
def uk_q1():
    return construct_uk(ProblemParams(q=1.0), 5).to_field()


@pytest.fixture(scope="module")
def uk15_grid():
    # the 513^2 bilinear sample of u_k at q = 1.5, lambda_- = 2.5, k = 10:
    # flat bands along its nodal rays, one vertex at the origin
    return GridField.sample(
        construct_uk(ProblemParams(q=1.5, lambda_minus=2.5), 10).to_field(), 513)


# ---------------------------------------------------------------------------
# references: the cell-by-cell marching squares, scalar disk clip and
# window-by-window minimum scan of detection that the vectorised code replaced
# ---------------------------------------------------------------------------


def _edge_zero_ref(p1, p2, v1, v2):
    t = v1 / (v1 - v2)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def _clip_ref(a, b, radius):
    ax, ay = a
    if ax * ax + ay * ay <= radius * radius and b[0] * b[0] + b[1] * b[1] <= radius * radius:
        return (a, b)
    dx, dy = b[0] - ax, b[1] - ay
    A = dx * dx + dy * dy
    B = 2.0 * (ax * dx + ay * dy)
    C = ax * ax + ay * ay - radius * radius
    if A == 0.0:
        return (a, b) if C <= 0.0 else None
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        return (a, b) if C <= 0.0 else None
    s = np.sqrt(disc)
    t0 = max(0.0, (-B - s) / (2.0 * A))
    t1 = min(1.0, (-B + s) / (2.0 * A))
    if t0 >= t1:
        return (a, b) if C <= 0.0 else None
    return ((ax + t0 * dx, ay + t0 * dy), (ax + t1 * dx, ay + t1 * dy))


def _extract_ref(field, n):
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = np.asarray(field(X, Y), dtype=float)
    h = xs[1] - xs[0]
    segments = []
    inside = X * X + Y * Y <= 1.0 + 1e-15
    for i in range(n - 1):
        for j in range(n - 1):
            if not (inside[i, j] and inside[i + 1, j]
                    and inside[i, j + 1] and inside[i + 1, j + 1]):
                continue
            v00, v10, v01, v11 = V[i, j], V[i + 1, j], V[i, j + 1], V[i + 1, j + 1]
            s00, s10, s01, s11 = v00 > 0, v10 > 0, v01 > 0, v11 > 0
            if s00 == s10 == s01 == s11:
                continue
            p00, p10 = (xs[i], xs[j]), (xs[i + 1], xs[j])
            p01, p11 = (xs[i], xs[j + 1]), (xs[i + 1], xs[j + 1])
            crossings = []
            if s00 != s10:
                crossings.append(("b", _edge_zero_ref(p00, p10, v00, v10)))
            if s01 != s11:
                crossings.append(("t", _edge_zero_ref(p01, p11, v01, v11)))
            if s00 != s01:
                crossings.append(("l", _edge_zero_ref(p00, p01, v00, v01)))
            if s10 != s11:
                crossings.append(("r", _edge_zero_ref(p10, p11, v10, v11)))
            if len(crossings) == 2:
                segments.append((crossings[0][1], crossings[1][1]))
            elif len(crossings) == 4:
                vc = float(field(xs[i] + 0.5 * h, xs[j] + 0.5 * h))
                pts = dict(crossings)
                if (vc > 0) == s00:
                    segments += [(pts["b"], pts["r"]), (pts["l"], pts["t"])]
                else:
                    segments += [(pts["b"], pts["l"]), (pts["r"], pts["t"])]
    clipped = [_clip_ref(a, b, 1.0) for a, b in segments]
    return [seg for seg in clipped if seg is not None]


def _length_ref(segments, radius):
    total = 0.0
    for a, b in segments:
        seg = _clip_ref(a, b, radius)
        if seg is not None:
            (x1, y1), (x2, y2) = seg
            total += float(np.hypot(x2 - x1, y2 - y1))
    return total


def _branches_ref(V, inside, i0, j0):
    """Sign changes of V on the pixels at rounded distance 4 from (i0, j0),
    sorted by angle; 0 unless all 32 of them are on the grid and in the disk."""
    I, J = np.indices(V.shape)
    ring = np.rint(np.hypot(I - i0, J - j0)) == 4
    if np.count_nonzero(ring) < 32 or not inside[ring].all():
        return 0
    order = np.argsort(np.arctan2(J[ring] - j0, I[ring] - i0))
    return count_sign_changes(V[ring][order])


def _minima_ref(field, n):
    """Every pixel of small |u| and |grad u| whose score |u| + h |grad u| is
    the least over the mask pixels of its 9 x 9 window, in raster order, as
    (point, score, i, j), before the branch and tie rules."""
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = np.asarray(field(X, Y), dtype=float)
    inside = X * X + Y * Y <= 1.0 + 1e-15  # extraction's disk
    # |grad u| by central differences of the sample, at the disk pixels whose
    # four neighbours (off the grid: padded out) are disk pixels; inf elsewhere
    P, W = np.pad(inside, 1), np.pad(V, 1)
    core = inside & P[2:, 1:-1] & P[:-2, 1:-1] & P[1:-1, 2:] & P[1:-1, :-2]
    G = np.where(core, np.hypot(W[2:, 1:-1] - W[:-2, 1:-1], W[1:-1, 2:] - W[1:-1, :-2]) / (2 * h),
                 np.inf)
    # |u| and |grad u| against one scale, the largest |u| on the disk pixels
    gamma = 2.0 / (2.0 - field.params.q)
    M = np.abs(V[inside]).max()
    eps_u = 10.0 * h ** min(gamma, 2.0) * M
    eps_g = 10.0 * h * M
    mask = inside & (np.abs(V) < eps_u) & (G < eps_g)
    score = np.abs(V) + h * G
    minima = []
    for i, j in np.argwhere(mask):
        window = np.s_[max(i - 4, 0):i + 5, max(j - 4, 0):j + 5]
        if score[i, j] <= score[window][mask[window]].min():
            point = (float(X[i, j]), float(Y[i, j]), float(abs(V[i, j])), float(G[i, j]),
                     _branches_ref(V, inside, i, j))
            minima.append((point, score[i, j], i, j))
    return minima


def _detect_singular_ref(field, n):
    """The minima with 4 or more sign changes on their ring, greedily by
    least score (raster order on a tie), each dropped within 16 pixels of one
    kept before it; in raster order."""
    kept = []
    for m in sorted((m for m in _minima_ref(field, n) if m[0][4] >= 4), key=lambda m: m[1]):
        if all(np.hypot(m[2] - k[2], m[3] - k[3]) > 16 for k in kept):
            kept.append(m)
    return [m[0] for m in sorted(kept, key=lambda m: (m[2], m[3]))]


def _assert_matches_ref(got, ref):
    # the kept points and their branch counts exactly
    assert got == ref and all(type(p[4]) is int for p in got)


def _zero_structure_ref(profile):
    """Zeros and slopes by the scalar bisection, one interval at a time."""
    vals = profile.values
    n = len(vals)
    zeros, slopes = [], []
    two_pi = 2.0 * np.pi
    for j in range(n):
        v0, v1 = vals[j], vals[(j + 1) % n]
        th0 = two_pi * j / n
        if v0 == 0.0:
            zeros.append(th0)
            slopes.append(float(profile.value_and_prime(th0)[1]))
            continue
        if v0 * v1 < 0.0:
            a, b = th0, two_pi * (j + 1) / n
            fa = profile(a)
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = profile(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-14:
                    break
            z = 0.5 * (a + b)
            zeros.append(z)
            slopes.append(float(profile.value_and_prime(z)[1]))
    return zeros, slopes


def _bits(segments):
    return np.asarray(segments, dtype=float).tobytes()


def _rotated_monomial(d, alpha, phase="cos", c=1.0):
    """c Re((e^(-i alpha) z)^d), or its Im part, with its gradient: the
    derivatives of Re/Im f(z) are Re/Im f'(z) and Re/Im i f'(z)."""
    rot = np.exp(-1j * alpha)
    part = np.real if phase == "cos" else np.imag

    def grad(x, y):
        w = d * rot * ((x + 1j * y) * rot) ** (d - 1)
        return c * part(w), c * part(1j * w)

    return ClosedFormField(lambda x, y: c * part(((x + 1j * y) * rot) ** d), grad)


def _egg_crate(a, phase):
    # products of sines: every crossing of the two line families is a saddle cell
    return ClosedFormField(
        lambda x, y: np.sin(a * np.pi * x + phase) * np.sin(a * np.pi * y + 2 * phase),
        lambda x, y: (0 * x, 0 * y))


CIRCLE = ClosedFormField(lambda x, y: x * x + y * y - 0.25, lambda x, y: (2 * x, 2 * y))


def test_diameter_length():
    ns = extract_nodal_set(monomial_field(1), 128)
    h = 2.0 / 127
    assert abs(nodal_length(ns, 0.5) - 1.0) < 2 * h


def test_cross_length():
    ns = extract_nodal_set(monomial_field(2), 128)
    h = 2.0 / 127
    assert abs(nodal_length(ns, 0.5) - 2.0) < 4 * h


def test_circle_length():
    f = ClosedFormField(lambda x, y: x * x + y * y - 0.25,
                        lambda x, y: (2 * x, 2 * y))
    n = 128
    ns = extract_nodal_set(f, n)
    h = 2.0 / (n - 1)
    assert abs(nodal_length(ns, 1.0) - np.pi) < 5 * h


def test_extract_validation():
    with pytest.raises(ValueError):
        extract_nodal_set(monomial_field(1), 32)
    # NaN on the right half of the disk; x y has an order-2 point at the
    # origin, which detection must not report from the finite half alone
    bad = [ClosedFormField(lambda x, y: np.where(x > 0, np.nan, x),
                           lambda x, y: (1.0 + 0 * x, 0 * y)),
           ClosedFormField(lambda x, y: np.where(x > 0, np.nan, x * y),
                           lambda x, y: (y, x))]
    for f in bad:
        with pytest.raises(DataError, match="^field is non-finite on the sampling grid$"):
            extract_nodal_set(f, 64)
        with pytest.raises(DataError, match="^field is non-finite on the sampling grid$"):
            detect_singular(f, 64)


def test_empty_nodal_length():
    assert nodal_length(NodalSet([]), 0.5) == 0.0


@pytest.mark.parametrize("radius", [-0.5, -1e-300, np.nan, np.inf, -np.inf])
def test_nodal_length_rejects_a_bad_radius(radius):
    ns = extract_nodal_set(monomial_field(2), 128)
    assert nodal_length(ns, 0.0) == 0.0 and nodal_length(ns, 0.5) > 1.9
    with pytest.raises(ValueError, match="^radius must be nonnegative and finite"):
        nodal_length(ns, radius)


def test_uk_ray_lengths(uk_q1):
    ns = extract_nodal_set(uk_q1, 256)
    # 2k rays of length 1/2 inside B_{1/2}
    assert abs(nodal_length(ns, 0.5) - 5.0) < 0.25
    # homogeneity: length scales linearly in the clip radius
    per_rho = [nodal_length(ns, rho) / rho for rho in (0.25, 0.5, 0.75)]
    assert max(per_rho) / min(per_rho) < 1.05


def test_refinement_improves_length(uk_q1):
    e1 = abs(nodal_length(extract_nodal_set(uk_q1, 128), 0.5) - 5.0)
    e2 = abs(nodal_length(extract_nodal_set(uk_q1, 256), 0.5) - 5.0)
    assert e2 < e1


@pytest.mark.parametrize("n", [1, 3, 63])
def test_detection_takes_the_extraction_grid_rule(n):
    # a coarse grid divides by zero (n = 1) or reports a cluster off the
    # singular point (n = 10), so detection refuses what extraction refuses
    with pytest.raises(ValueError, match="^grid must be at least 64 x 64$"):
        detect_singular(monomial_field(2), n)


def test_detect_singular_examples(uk_q1):
    assert detect_singular(monomial_field(1), 128) == []
    # a field zero on the whole disk has a zero |u| threshold
    zero = ClosedFormField(lambda x, y: 0 * x * y, lambda x, y: (0 * x * y, 0 * x * y))
    assert detect_singular(zero, 64) == []
    got = detect_singular(monomial_field(2), 128)
    assert len(got) == 1
    assert np.hypot(got[0][0], got[0][1]) < 0.05
    got = detect_singular(uk_q1, 256)
    assert len(got) == 1
    assert np.hypot(got[0][0], got[0][1]) < 0.05


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 6), alpha=st.floats(0.0, 2.0 * np.pi),
       phase=st.sampled_from(["cos", "sin"]), log_c=st.floats(-12.0, 6.0))
def test_detect_singular_finds_the_monomials_one_point(d, alpha, phase, log_c):
    # Re/Im z^d, d >= 2, vanishes to order d at the origin alone: exact and as
    # a 513^2 bilinear sample, at any angle and scale, detection keeps exactly
    # one point, within one pixel spacing of the origin (the n = 256 grid has
    # no pixel there); the clusters along the nodal rays are dropped
    f = _rotated_monomial(d, alpha, phase, 10.0**log_c)
    for field in (f, GridField.sample(f, 513)):
        got = detect_singular(field, 256)
        assert len(got) == 1
        assert np.hypot(got[0][0], got[0][1]) < 2.0 / 255 and got[0][4] == 2 * d


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 6), alpha=st.floats(0.0, 2.0 * np.pi),
       phase=st.sampled_from(["cos", "sin"]), log_c=st.floats(-12.0, 6.0))
def test_nodal_length_of_the_monomials(d, alpha, phase, log_c):
    # Re/Im z^d has d lines through the origin, length d in B_{1/2}; the
    # extraction misses length within about 2h of the origin, where the lines
    # meet: over 3,600 draws at n = 256 the worst |L - d| was 0, 0.63, 1.04,
    # 4.36, 4.23 and 8.23 h for d = 1 ... 6, the same on the exact field and
    # on its 513^2 sample
    h = 2.0 / 255
    f = _rotated_monomial(d, alpha, phase, 10.0**log_c)
    for field in (f, GridField.sample(f, 513)):
        assert abs(nodal_length(extract_nodal_set(field, 256), 0.5) - d) <= 2 * d * h


def test_profile_zero_structure_cos():
    th = _angles(256)
    got = profile_zero_structure(AngularProfile(np.cos(2 * th), -2 * np.sin(2 * th)))
    assert len(got["zeros"]) == 4
    assert got["antipodal"]
    assert not got["degenerate"]
    want = [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]
    assert np.allclose(sorted(got["zeros"]), want, atol=1e-6)
    assert all(abs(abs(s) - 2.0) < 1e-3 for s in got["slopes"])


def test_profile_zero_structure_glued():
    mr = construct_uk(ProblemParams(q=1.0), 5, n=512)
    got = profile_zero_structure(mr.profile)
    assert len(got["zeros"]) == 10
    assert all(s != 0 for s in got["slopes"])
    assert got["antipodal"]  # 10 zeros of a T-periodic pattern, T = 2 pi / 5


def _cos_profile(d, n, exact_zeros=False):
    th = _angles(n)
    prof = AngularProfile(np.cos(d * th), -d * np.sin(d * th))
    if not exact_zeros:
        return prof
    vals = prof.values.copy()
    vals[np.abs(vals) < 1e-12] = 0.0
    return AngularProfile(vals, prof.derivative)


@pytest.mark.parametrize("case", ["cos", "cos-exact-zeros", 1.0, 1.5, 1.9])
def test_profile_zero_structure_matches_scalar_bisection(case):
    if case == "cos":
        prof, count = _cos_profile(2, 256), 4
    elif case == "cos-exact-zeros":
        # with 60 samples the six zeros of cos(3t) fall on samples
        prof, count = _cos_profile(3, 60, exact_zeros=True), 6
        assert np.count_nonzero(prof.values == 0.0) == 6
    else:
        # 2k zeros; at q = 1.9 max |phi| is about 3e-30
        k = {1.0: 5, 1.5: 9, 1.9: 41}[case]
        prof, count = construct_uk(ProblemParams(q=case, lambda_minus=2.0), k).profile, 2 * k
    got = profile_zero_structure(prof)
    zeros, slopes = _zero_structure_ref(prof)
    assert len(zeros) == count and not got["degenerate"]
    assert _bits(got["zeros"]) == _bits(zeros)
    assert _bits(got["slopes"]) == _bits(slopes)
    assert all(type(v) is float for v in got["zeros"] + got["slopes"])


def test_profile_zero_structure_degenerate():
    got = profile_zero_structure(AngularProfile(np.zeros(32), np.zeros(32)))
    assert got["zeros"] == []
    assert got["degenerate"]


@pytest.mark.parametrize("case", ["monomial-1", "monomial-2", "circle", "egg-crate",
                                  "uk-q1", "no-zero"])
def test_extract_matches_cell_loop(case, uk_q1):
    field, n = {
        "monomial-1": (monomial_field(1), 128),
        "monomial-2": (monomial_field(2), 129),
        "circle": (CIRCLE, 100),
        "egg-crate": (_egg_crate(6.0, 0.3), 256),
        "uk-q1": (uk_q1, 256),
        "no-zero": (ClosedFormField(lambda x, y: 1.0 + x * x, lambda x, y: (2 * x, 0 * y)), 64),
    }[case]
    got = extract_nodal_set(field, n).segments
    want = _extract_ref(field, n)
    assert got.dtype == np.float64 and got.shape == (len(want), 2, 2)
    assert got.tolist() == [[list(a), list(b)] for a, b in want]
    assert _bits(got) == _bits(want)  # also tells -0.0 from 0.0
    for rho in (0.25, 0.5, 1.0):
        assert nodal_length(NodalSet(got), rho) == pytest.approx(_length_ref(want, rho),
                                                                 rel=1e-12, abs=0.0)


def _row_of_zeros(n, alpha):
    """(x - xs[m]) sin(3 y + alpha) on the n x n grid xs: the samples of row m
    are +0.0 and -0.0, so crossings into it interpolate to t = -0.0 or +0.0."""
    c = np.linspace(-1.0, 1.0, n)[round(alpha / (2 * np.pi) * (n - 1))]
    return ClosedFormField(lambda x, y: (x - c) * np.sin(3 * y + alpha),
                           lambda x, y: (np.sin(3 * y + alpha), 3 * (x - c) * np.cos(3 * y + alpha)))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(64, 160),
       kind=st.sampled_from(["monomial", "egg-crate", "homogeneous", "grid-sample", "grid-zeros"]),
       d=st.integers(1, 5), alpha=st.floats(0.0, 2 * np.pi))
def test_extract_matches_cell_loop_property(n, kind, d, alpha):
    # the flat-index extraction is the cell-by-cell loop bit for bit: rotated
    # monomials, egg crates (saddle cells of both pairings), a homogeneous
    # field and its grid sample, and a row of signed zero samples
    th = _angles(64)
    homog = HomogeneousField(d + alpha / 4, AngularProfile(np.cos(d * th + alpha),
                                                           -d * np.sin(d * th + alpha)))
    field = {"monomial": lambda: _rotated_monomial(d, alpha),
             "egg-crate": lambda: _egg_crate(d + 1.5, alpha),
             "homogeneous": lambda: homog,
             "grid-sample": lambda: GridField.sample(homog, 129),
             "grid-zeros": lambda: _row_of_zeros(n, alpha)}[kind]()
    got = extract_nodal_set(field, n).segments
    want = _extract_ref(field, n)
    assert got.shape == (len(want), 2, 2) and _bits(got) == _bits(want)


def _sample_disk_fields():
    th = _angles(64)
    homog = HomogeneousField(2.5, AngularProfile(np.cos(2 * th), -2 * np.sin(2 * th)),
                             ProblemParams(q=1.2))
    return [monomial_field(3), homog, GridField.sample(homog, 129)]


@pytest.mark.parametrize("n, band_points", [(64, None), (97, None), (300, None), (512, None),
                                            (64, 1000), (97, 1000), (300, 1000), (97, 50)])
@pytest.mark.parametrize("radius", [1.0, 0.45])
def test_sample_disk_matches_full_grid(n, radius, band_points, monkeypatch):
    # at the module's band size n = 512 makes 16 bands and 300 ends on a
    # short band; 1000 points per band makes many bands, short last ones at
    # 97 and 300, and 50 points per band makes one-row bands
    if band_points is not None:
        monkeypatch.setattr(fields, "_BAND_POINTS", band_points)
    xs = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if radius == 1.0:
        # GridField.sample bands the whole square
        for field in _sample_disk_fields():
            assert _bits(GridField.sample(field, n).values) == _bits(np.asarray(field(X, Y)))
        # the disk grid of extraction and detection is the full grid's on the disk
        for field in _sample_disk_fields():
            got_xs, inside, *_ = nodal._disk(n)
            V = _sample_disk(field, n)
            assert _bits(got_xs) == _bits(xs)
            assert np.array_equal(inside, X * X + Y * Y <= 1.0 + 1e-15)
            assert _bits(V[inside]) == _bits(np.asarray(field(X, Y))[inside])
    for r2 in (radius * radius + 1e-15, radius * radius):
        inside = X * X + Y * Y <= r2
        for field in _sample_disk_fields():
            V = _sample_grid(field, xs, inside)
            assert _bits(V[inside]) == _bits(np.asarray(field(X, Y))[inside])


@pytest.mark.parametrize("n", [64, 71, 97, 300])
def test_disk_is_built_once_and_read_only(n):
    nodal._disk.cache_clear()
    xs, inside, cells, core = nodal._disk(n)
    assert _bits(xs) == _bits(np.linspace(-1.0, 1.0, n))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.array_equal(inside, X * X + Y * Y <= 1.0 + 1e-15)
    assert np.array_equal(cells, inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:]
                          & inside[1:, 1:])
    # a core pixel and its four neighbours are disk pixels, none on the grid's edge
    I, J = np.nonzero(inside)
    on = (I > 0) & (I < n - 1) & (J > 0) & (J < n - 1)
    I, J = I[on], J[on]
    want = np.zeros_like(inside)
    want[I, J] = inside[I + 1, J] & inside[I - 1, J] & inside[I, J + 1] & inside[I, J - 1]
    assert np.array_equal(core, want)
    assert all(a is b for a, b in zip(nodal._disk(n), (xs, inside, cells, core)))
    # the sample reads the cached grid: no second build
    _sample_disk(monomial_field(2), n)
    assert nodal._disk.cache_info().misses == 1
    for a in (xs, inside, cells, core):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]


@pytest.mark.parametrize("ns", [(256, 97, 256), (128, 64, 65, 66, 67, 128)],
                         ids=["warm", "evicted"])
def test_extraction_is_the_same_warm_or_cold(ns):
    # each grid size's extraction and detection after other sizes, from the
    # cache or rebuilt after eviction, is a cold call's, bit for bit
    field = _rotated_monomial(3, 0.4)
    cold = {}
    for n in set(ns):
        nodal._disk.cache_clear()
        cold[n] = extract_nodal_set(field, n).segments, detect_singular(field, n)
    nodal._disk.cache_clear()
    for n in ns:
        seg, reps = extract_nodal_set(field, n).segments, detect_singular(field, n)
        assert _bits(seg) == _bits(cold[n][0]) and reps == cold[n][1]


@pytest.mark.parametrize("n", [256.0, np.float64(256.0)], ids=["float", "float64"])
def test_float_grid_size_is_refused_warm_or_cold(n):
    # the cache takes 256.0 for the key 256, so the integer test comes first
    f = monomial_field(2)
    nodal._disk.cache_clear()
    for _ in ("cold", "warm"):
        for call in (extract_nodal_set, detect_singular):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(f, n)
        extract_nodal_set(f, 256)


def test_egg_crate_has_saddle_cells():
    # the egg-crate case above exercises the vector saddle lookup on both pairings
    n = 256
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    S = _egg_crate(6.0, 0.3)(X, Y) > 0
    saddle = (S[:-1, :-1] == S[1:, 1:]) & (S[1:, :-1] == S[:-1, 1:]) & (S[:-1, :-1] != S[1:, :-1])
    assert np.count_nonzero(saddle) >= 100


@pytest.mark.parametrize("a, b, radius", [
    ((2.0, 2.0), (3.0, 1.0), 1.0),      # wholly outside: dropped
    ((-1.0, 0.5), (1.0, 0.5), 0.5),     # tangent line, disc == 0, start outside: dropped
    ((-0.5, 0.5), (0.5, 0.5), 0.5),     # tangent chord ending on the circle: dropped
    ((0.1, 0.2), (0.1, 0.2), 0.5),      # zero length inside: kept whole
    ((0.9, 0.0), (0.9, 0.0), 0.5),      # zero length outside: dropped
    ((0.1, -0.1), (0.2, 0.3), 0.5),     # wholly inside: kept as given, not as
                                        # a + 1.0 (b - a) = (0.2, 0.30000000000000004)
    ((-2.0, 0.1), (2.0, 0.2), 1.0),     # crosses the disk: clipped at both ends
    ((0.0, 0.0), (3.0, 0.0), 1.0),      # leaves the disk: clipped at the end
    ((1.5, 0.0), (2.5, 0.0), 1.0),      # on a secant line, beyond the disk: t0 >= t1
])
def test_clip_to_disk_matches_scalar_clip(a, b, radius):
    want = _clip_ref(a, b, radius)
    got = _clip_to_disk(np.array([[*a, *b]]), radius)
    if want is None:
        assert got.shape == (0, 4)
    else:
        assert got.tolist() == [[*want[0], *want[1]]]
    assert nodal_length(NodalSet([(a, b)]), radius) == _length_ref([(a, b)], radius)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(64, 160), kind=st.sampled_from(["monomial", "egg-crate"]),
       d=st.integers(1, 5), alpha=st.floats(0.0, 2 * np.pi))
def test_segments_stay_in_disk(n, kind, d, alpha):
    field = _rotated_monomial(d, alpha) if kind == "monomial" else _egg_crate(d + 1.5, alpha)
    seg = np.asarray(extract_nodal_set(field, n).segments, dtype=float)
    assert len(seg) > 0
    assert np.all(np.hypot(seg[..., 0], seg[..., 1]) <= 1 + 1e-12)


def test_detect_singular_matches_window_scan(uk_q1, uk15_grid):
    # x y at n = 128: the four grid points (+-h/2, +-h/2) about the origin tie
    # for the minimum, and the first in raster order is kept
    saddle = ClosedFormField(lambda x, y: x * y, lambda x, y: (y, x))
    got = detect_singular(saddle, 128)
    _assert_matches_ref(got, _detect_singular_ref(saddle, 128))
    xs = np.linspace(-1.0, 1.0, 128)
    assert got == [(xs[63], xs[63], xs[63] ** 2, float(np.hypot(xs[63], xs[63])), 4)]
    # the bowl x^2 + y^2 has the same four minima, but it is one-signed: no
    # sign change on the ring, so no point (no solution has such a zero)
    bowl = ClosedFormField(lambda x, y: x * x + y * y, lambda x, y: (2 * x, 2 * y))
    assert len(_minima_ref(bowl, 128)) == 4 and detect_singular(bowl, 128) == []
    _assert_matches_ref(detect_singular(uk_q1, 256), _detect_singular_ref(uk_q1, 256))
    # with |u| held against the sample's own largest value, the bilinear
    # sample has one window minimum of small |u| and |grad u|, at the
    # origin, and it is kept with its 2k = 20 branches
    minima = _minima_ref(uk15_grid, 256)
    assert len(minima) == 1 and minima[0][0][4] == 20
    got = detect_singular(uk15_grid, 256)
    assert len(got) == 1 and np.hypot(got[0][0], got[0][1]) < 0.05
    _assert_matches_ref(got, _detect_singular_ref(uk15_grid, 256))
    # two roots: of 7, 3 and 4 minima at n = 256, 96 and 128, all but the
    # roots change sign twice and go, among them (-0.071, 0.039) at n = 128
    field = _roots_field(*_TWO_ROOTS)
    for n, count in ((256, 7), (96, 3), (128, 4)):
        assert len(_minima_ref(field, n)) == count
        got = detect_singular(field, n)
        assert len(got) == 2
        _assert_matches_ref(got, _detect_singular_ref(field, n))


def test_branches_tell_the_vertex_from_a_nodal_ray(uk15_grid):
    # the branch rule reads the bilinear sample right: u changes sign 2k = 20
    # times about the vertex and twice about a pixel of the nodal ray
    # theta = 0, so a flat band along a ray that passed both thresholds
    # would be dropped
    xs, inside, *_ = nodal._disk(256)
    V = _sample_disk(uk15_grid, 256)
    i = [np.argmin(np.abs(xs - x)) for x in (0.0, 0.25, 0.5, 0.75)]
    j = np.argmin(np.abs(xs))
    got = [_branches(V, a, j) for a in i]
    assert got == [_branches_ref(V, inside, a, j) for a in i] == [20, 2, 2, 2]


@pytest.mark.parametrize("q", [1.9, 1.95])
def test_detect_singular_agrees_on_the_grid_sample_near_q_2(q):
    # with |u| held against the sampled disk's own largest value, the exact
    # field and its 257^2 and 513^2 samples all report the origin alone (held
    # against max |u| on the ring r = 0.7, about 0.7^gamma of it, the samples
    # gave 29, 32, 9 and 9 points)
    p = ProblemParams(q=q, lambda_minus=2.0)
    u = construct_uk(p, k_bar(p) + 1).to_field()
    for field in (u, GridField.sample(u, 257), GridField.sample(u, 513)):
        got = detect_singular(field, 256)
        assert len(got) == 1 and np.hypot(got[0][0], got[0][1]) < 2.0 * 2.0 / 255


def test_detect_singular_agrees_with_its_grid_sample():
    # the nodal-grids draws of numpy seeds 11-14: u_k and its 513^2 sample
    # give one point, the same pixel, as both read |u| and |grad u| from
    # their own grid sample alone
    for seed in range(11, 15):
        rng = np.random.default_rng(seed)
        for q in (1.0, 1.5):
            p = ProblemParams(q=q, lambda_minus=float(rng.uniform(1.0, 4.0)))
            u = construct_uk(p, k_bar(p) + int(rng.integers(1, 4))).to_field()
            got = [detect_singular(f, 256) for f in (u, GridField.sample(u, 513))]
            assert len(got[0]) == 1 and got[0][0][:2] == got[1][0][:2], (seed, q)


def _roots_field(*roots):
    """Re prod (z - a)^m over the (a, m) of ``roots`` (mu = 0): a singular
    point of order m at each a, with its gradient (Re and Re i of the
    derivative, by the product rule)."""
    def value(x, y):
        z = x + 1j * y
        return np.real(np.prod([(z - a) ** m for a, m in roots], axis=0))

    def grad(x, y):
        z = x + 1j * y
        f = [(z - a) ** m for a, m in roots]
        w = sum(m * (z - a) ** (m - 1) * np.prod(f[:c] + f[c + 1:], axis=0)
                for c, (a, m) in enumerate(roots))
        return np.real(w), np.real(1j * w)

    return ClosedFormField(value, grad)


# Re((z - 0.3)^2 (z + 0.4 - 0.2i)^3)
_TWO_ROOTS = ((0.3, 2), (-0.4 + 0.2j, 3))


@pytest.mark.parametrize("roots", [
    _TWO_ROOTS,
    ((0.45, 4), (-0.3 - 0.3j, 3)),
    ((0.3, 2), (-0.4 + 0.2j, 2), (0.1 - 0.5j, 2)),
], ids=["two roots", "orders 4 and 3", "three of order 2"])
def test_detect_singular_finds_every_root(roots):
    # exact and as a 513^2 sample, at every grid size: one point within two
    # pixels of each root and no other point (one point per connected
    # cluster found 1 of 2 and 2 of 3 here; the growth rule added a third
    # point to the two roots at n = 128)
    field = _roots_field(*roots)
    for f in (field, GridField.sample(field, 513)):
        for n in (64, 96, 128, 192, 256, 512):
            got = detect_singular(f, n)
            assert len(got) == len(roots), n
            for root, _ in roots:
                assert min(abs(complex(x, y) - root) for x, y, *_ in got) <= 2.0 * 2.0 / (n - 1), n


def test_detect_singular_finds_only_the_two_roots_at_n_128():
    # the window minimum at (-0.071, 0.039), between the roots, is a regular
    # nodal point near a saddle of u: u changes sign twice about it, and it
    # goes; the roots change sign 4 and 6 times
    got = detect_singular(_roots_field(*_TWO_ROOTS), 128)
    assert len(got) == 2 and sorted(p[4] for p in got) == [4, 6]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_detect_singular_counts_the_branches_of_z_d(d, phase):
    # Re/Im z^d, rotated, has 2d nodal rays at its order-d point: exact and as
    # a 513^2 sample, one point with 2d sign changes on its ring
    f = _rotated_monomial(d, 0.3, phase)
    for field in (f, GridField.sample(f, 513)):
        got = detect_singular(field, 256)
        assert len(got) == 1 and got[0][4] == 2 * d


def test_detect_singular_drops_a_ring_off_the_disk():
    # Re (z - a)^3 with a a grid point of the x axis, m pixels from the edge
    # x = -1 or x = 1 of the n = 129 grid: the root is a window minimum at
    # every m; its ring of radius 4 leaves the grid at m < 4 and the disk at
    # m = 4 (the pixels (+-1, +-h)), and it is dropped; from m = 5 it is kept
    # with its 6 branches and the sampled |grad u| = (h^3 - (-h)^3) / 2h = h^2
    n = 129
    xs = np.linspace(-1.0, 1.0, n)
    for m in range(1, 9):
        for i0 in (m, n - 1 - m):
            field = _roots_field((xs[i0], 3))
            assert (i0, n // 2) in [(r[2], r[3]) for r in _minima_ref(field, n)]
            want = [(xs[i0], 0.0, 0.0, 2.0**-12, 6)] if m >= 5 else []
            assert detect_singular(field, n) == want


class _NoGradField(PlanarField):
    """A field whose ``value_and_grad`` raises."""

    def __init__(self, base):
        self.base, self.params = base, base.params

    def __call__(self, x, y):
        return self.base(x, y)

    def value_and_grad(self, x, y):
        raise AssertionError("value_and_grad called")


def test_detect_singular_grads_only_candidates():
    # the gradient at the candidates is the central difference of the grid
    # sample: detection asks no field for its gradient, and a grid sample
    # never builds its full-grid gradients
    uk = construct_uk(ProblemParams(q=1.5, lambda_minus=2.5), 10).to_field()
    grid = GridField.sample(uk, 513)
    for field in (uk, grid):
        got = detect_singular(_NoGradField(field), 256)
        assert got == detect_singular(field, 256)
        _assert_matches_ref(got, _detect_singular_ref(field, 256))
    assert "_gx" not in vars(grid) and "_gy" not in vars(grid)


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e3])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_detect_singular_reads_no_probe_ring(c, n):
    # c x y (x^2 + y^2 - 0.49)^2 has an order-2 point at the origin, and its
    # gradient vanishes on the circle r = 0.7 (7.5e-17 there at c = 1, all
    # rounding): a gradient threshold scaled by that circle passed no pixel;
    # scaled by the disk's largest |u|, it finds the origin with 4 branches
    def value(x, y):
        return c * x * y * (x * x + y * y - 0.49) ** 2

    def grad(x, y):
        w = x * x + y * y - 0.49
        return c * y * w * (w + 4 * x * x), c * x * w * (w + 4 * y * y)

    got = detect_singular(ClosedFormField(value, grad), n)
    assert len(got) == 1 and got[0][4] == 4
    assert np.hypot(got[0][0], got[0][1]) <= 2.0 * 2.0 / (n - 1)


@pytest.mark.parametrize("n", [71, 101, 256])
def test_extraction_and_detection_read_one_disk(n, monkeypatch):
    # at n = 71 and 101 grid points lie on the unit circle, where a disk
    # test of x^2 + y^2 <= 1 and one of <= 1 + 1e-15 part
    masks = []

    def recording(field, xs, inside):
        masks.append(inside)
        return _sample_grid(field, xs, inside)

    monkeypatch.setattr(nodal, "_sample_grid", recording)
    f = monomial_field(3)
    extract_nodal_set(f, n)
    detect_singular(f, n)
    xs = np.linspace(-1.0, 1.0, n)
    assert len(masks) == 2 and np.array_equal(masks[0], masks[1])
    assert np.array_equal(masks[0], np.add.outer(xs * xs, xs * xs) <= 1.0 + 1e-15)


@pytest.mark.parametrize("n", [64, 71, 128])
def test_extract_and_detect_matches_the_public_calls(n, uk_q1):
    # one sample of the disk serves both stages, and each gives what it gives
    # on its own sample, bit for bit; at n = 71 grid points lie on the circle
    for field in (uk_q1, GridField.sample(uk_q1, 129), _roots_field(*_TWO_ROOTS)):
        ns, points = nodal.extract_and_detect(field, n)
        assert _bits(ns.segments) == _bits(extract_nodal_set(field, n).segments)
        assert points == detect_singular(field, n)
        assert points and all(type(p[4]) is int for p in points)
