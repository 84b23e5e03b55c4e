import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from nodallab import fields
from nodallab.construct import construct_uk
from nodallab.fields import (
    AngularProfile, ClosedFormField, GridField, HomogeneousField, NodalSet, PlanarField, _angles,
    _sample_grid, monomial_field,
)
from nodallab.nodal import (
    DataError, _clip_to_disk, _disk_mask, _grad_norm_at, _label_dilated, detect_singular,
    extract_nodal_set, nodal_length, profile_zero_structure, singular_thresholds,
)
from nodallab.orders import RescaledField
from nodallab.params import ProblemParams


@pytest.fixture(scope="module")
def uk_q1():
    return construct_uk(ProblemParams(q=1.0), 5).to_field()


# ---------------------------------------------------------------------------
# references: the cell-by-cell marching squares, scalar disk clip and
# per-cluster representative scan that the vectorised code replaced
# ---------------------------------------------------------------------------


def _edge_zero_ref(p1, p2, v1, v2):
    t = v1 / (v1 - v2)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def _clip_ref(a, b, radius):
    ax, ay = a
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


def _detect_singular_ref(field, n):
    eps_u, eps_g = singular_thresholds(field, n)
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V, (GX, GY) = field.value_and_grad(X, Y)
    G = np.hypot(GX, GY)
    mask = (X * X + Y * Y <= 1.0) & (np.abs(V) < eps_u) & (G < eps_g)
    struct = np.ones((3, 3), dtype=int)
    labels, count = ndimage.label(ndimage.binary_dilation(mask, struct), struct)
    labels[~mask] = 0
    score = np.abs(V) + (xs[1] - xs[0]) * G
    reps = []
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab)
        i, j = idx[np.argmin(score[idx[:, 0], idx[:, 1]])]
        reps.append((float(X[i, j]), float(Y[i, j]), float(abs(V[i, j])), float(G[i, j])))
    return reps


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


def _rotated_monomial(d, alpha):
    rot = np.exp(-1j * alpha)
    return ClosedFormField(lambda x, y: np.real(((x + 1j * y) * rot) ** d),
                           lambda x, y: (0 * x, 0 * y))


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
    bad = ClosedFormField(lambda x, y: np.where(x > 0, np.nan, x),
                          lambda x, y: (1.0 + 0 * x, 0 * y))
    with pytest.raises(DataError):
        extract_nodal_set(bad, 64)


def test_empty_nodal_length():
    assert nodal_length(NodalSet([]), 0.5) == 0.0


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
    f = monomial_field(2)
    with pytest.raises(ValueError, match="^grid must be at least 64 x 64$"):
        singular_thresholds(f, n)
    with pytest.raises(ValueError, match="^grid must be at least 64 x 64$"):
        detect_singular(f, n)


def test_detect_singular_examples(uk_q1):
    assert detect_singular(monomial_field(1), 128) == []
    got = detect_singular(monomial_field(2), 128)
    assert len(got) == 1
    assert np.hypot(got[0][0], got[0][1]) < 0.05
    got = detect_singular(uk_q1, 256)
    assert len(got) == 1
    assert np.hypot(got[0][0], got[0][1]) < 0.05


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


def _sample_disk_fields():
    th = _angles(64)
    homog = HomogeneousField(2.5, AngularProfile(np.cos(2 * th), -2 * np.sin(2 * th)),
                             ProblemParams(q=1.2))
    return [monomial_field(3), homog, GridField.sample(homog, 129),
            RescaledField(homog, (0.1, 0.0), 0.5, 2.0)]


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
    for r2 in (radius * radius + 1e-15, radius * radius):
        inside = _disk_mask(xs, r2)
        assert np.array_equal(inside, X * X + Y * Y <= r2)
        for field in _sample_disk_fields():
            V = _sample_grid(field, xs, inside)
            assert _bits(V[inside]) == _bits(np.asarray(field(X, Y))[inside])


@pytest.mark.parametrize("n", [64, 97, 300])
@pytest.mark.parametrize("radius", [1.0, 0.45])
def test_candidate_gradients_match_full_grid(n, radius):
    # detection evaluates the gradient only at its candidates, the disk's
    # pixels of small |u|: on those points alone it is the full grid's, bit
    # for bit, and inf everywhere else
    xs = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = _disk_mask(xs, radius * radius)
    for field in _sample_disk_fields():
        U, (UX, UY) = field.value_and_grad(X, Y)
        for cand in (inside & (np.abs(U) < np.quantile(np.abs(U), 0.05)), inside,
                     np.zeros_like(inside)):
            G = _grad_norm_at(field, xs, cand)
            assert _bits(G[cand]) == _bits(np.hypot(UX, UY)[cand])
            assert np.all(G[~cand] == np.inf)


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
    ((0.1, -0.1), (0.2, 0.3), 0.5),     # wholly inside: both roots outside [0, 1]
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


def test_detect_singular_matches_cluster_scan(uk_q1):
    bowl = ClosedFormField(lambda x, y: x * x + y * y, lambda x, y: (2 * x, 2 * y))
    # four grid points tie for the minimum around the origin: the first in
    # row-major order is the representative
    got = detect_singular(bowl, 128)
    assert got == _detect_singular_ref(bowl, 128)
    xs = np.linspace(-1.0, 1.0, 128)
    assert got[0][:2] == (xs[63], xs[63])
    assert detect_singular(uk_q1, 256) == _detect_singular_ref(uk_q1, 256)
    grid = GridField.sample(construct_uk(ProblemParams(q=1.5, lambda_minus=2.5), 10).to_field(),
                            513)
    got = detect_singular(grid, 256)
    assert 8 <= len(got) <= 17  # spurious clusters along the flat nodal rays
    assert got == _detect_singular_ref(grid, 256)


class _CountingField(PlanarField):
    """A field that records the number of points of every ``value_and_grad`` call."""

    def __init__(self, base):
        self.base, self.params, self.grad_points = base, base.params, []

    def __call__(self, x, y):
        return self.base(x, y)

    def value_and_grad(self, x, y):
        self.grad_points.append(np.size(x))
        return self.base.value_and_grad(x, y)

    def scale(self):
        return self.base.scale()


def test_detect_singular_grads_only_candidates():
    # the grid is sampled for the value alone; the gradient is asked for the
    # candidates of small |u|, a few per cent of the disk, in one call after
    # the 64-point threshold ring
    uk = construct_uk(ProblemParams(q=1.5, lambda_minus=2.5), 10).to_field()
    field = _CountingField(uk)
    got = detect_singular(field, 256)
    assert got == _detect_singular_ref(uk, 256)
    disk = np.count_nonzero(_disk_mask(np.linspace(-1.0, 1.0, 256), 1.0))
    assert field.grad_points[0] == 64 and len(field.grad_points) == 2
    assert 0 < field.grad_points[1] <= 0.05 * disk


def _label_dilated_ref(mask):
    struct = np.ones((3, 3), dtype=int)
    return ndimage.label(ndimage.binary_dilation(mask, struct), struct)[0]


@pytest.mark.parametrize("seed", range(4))
def test_label_dilated_matches_ndimage(seed):
    rng = np.random.default_rng(seed)
    for trial in range(100):
        shape = tuple(rng.integers(1, 40, size=2))
        mask = rng.uniform(size=shape) < rng.uniform(0.0, 0.4)
        if trial % 5 == 0:
            # sparse pixels on all four edges of the grid
            mask[:] = False
            mask[rng.integers(shape[0]), 0] = mask[rng.integers(shape[0]), -1] = True
            mask[0, rng.integers(shape[1])] = mask[-1, rng.integers(shape[1])] = True
        elif trial % 5 == 1:
            mask[:] = trial % 2 == 0  # empty or full
        assert _label_dilated(mask).tolist() == _label_dilated_ref(mask).tolist()


def test_label_dilated_serpentine():
    # one component whose raster-first pixel is reached only through a long
    # winding path: union-find must still merge it into a single label
    mask = np.zeros((41, 41), dtype=bool)
    mask[::4, 1:-1] = True
    mask[1::8, -2] = mask[2::8, -2] = mask[3::8, -2] = True
    mask[5::8, 1] = mask[6::8, 1] = mask[7::8, 1] = True
    labels = _label_dilated(mask)
    assert labels.max() == 1
    assert labels.tolist() == _label_dilated_ref(mask).tolist()
