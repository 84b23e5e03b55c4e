"""Zero-set extraction on a grid, nodal length, and singular-point detection.

Marching squares with linear edge interpolation is enough here: away from the
singular set the zero level lines of these fields are C^1 curves, so each grid
cell meets the zero set in at most two straight chords (the ambiguous saddle
configuration is resolved by the sign at the cell center).

Extraction samples the field once on the grid, then works where the zero set
is: it lists the active cells (four corners in the disk, mixed signs) by
flat index, gathers their corner signs, and interpolates only on the crossed
edges.  A cell's crossings are consecutive, in b, t, l, r order, so a plain
cell joins its two and a saddle cell pairs its four by the centre sign.  The
segments come out in the order of a cell-by-cell loop over the grid, with
the same floats.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .fields import NodalSet, PlanarField, _angles, _sample_grid


class DataError(ValueError):
    """Field produced non-finite samples on the grid of extraction or detection."""


# the corners (from, to) of a cell's edges b, t, l, r, corner (di, dj) as
# number di + 2 dj: (0,0)-(1,0), (0,1)-(1,1), (0,0)-(0,1), (1,0)-(1,1)
_EDGE_FROM = np.array([0, 2, 0, 1])
_EDGE_TO = np.array([1, 3, 2, 3])


def _ring_offsets(radius):
    """The offsets (a, b) of the Euclidean pixel ring of the given integer
    radius, round(hypot(a, b)) == radius, in the order of arctan2(b, a)."""
    a, b = np.mgrid[-radius:radius + 1, -radius:radius + 1].reshape(2, -1)
    keep = np.flatnonzero(np.rint(np.hypot(a, b)) == radius)
    keep = keep[np.argsort(np.arctan2(b[keep], a[keep]))]
    return a[keep], b[keep]


# detection counts the sign changes of u on the 32-pixel ring of radius 4
_RING = 4
_RING_A, _RING_B = _ring_offsets(_RING)
# a candidate is the least score of the 17 x 17 pixel window about it, the first
# in raster order on a tie: the offsets (a, b) of the window pixels before it
_WINDOW = 8
_BEFORE_A, _BEFORE_B = np.indices((2 * _WINDOW + 1,) * 2).reshape(2, -1) - _WINDOW
_BEFORE_A, _BEFORE_B = _BEFORE_A[:len(_BEFORE_A) // 2], _BEFORE_B[:len(_BEFORE_B) // 2]


def _clip_to_disk(seg, radius):
    """Portions inside the disk of the given radius of the rows (x1, y1, x2, y2).

    A row with both ends in the closed disk is kept as it is, and ``seg``
    itself is returned when no row leaves the disk.  A row with an end
    outside keeps its chord, from solving |a + t d|^2 = radius^2 for t in
    [0, 1], and is dropped when it has no proper chord through the disk (zero
    length, a tangent or missing line, or roots outside [0, 1]): then it lies
    outside the open disk.  Row order is kept.
    """
    sq = seg * seg
    r2 = radius * radius
    # a row with a NaN end fails the test and takes the chord path
    far = np.flatnonzero(~((sq[:, 0] + sq[:, 1] <= r2) & (sq[:, 2] + sq[:, 3] <= r2)))
    if len(far) == 0:
        return seg
    ax, ay, bx, by = seg.take(far, axis=0).T
    dx, dy = bx - ax, by - ay
    A = dx * dx + dy * dy
    B = 2.0 * (ax * dx + ay * dy)
    C = ax * ax + ay * ay - r2
    disc = B * B - 4.0 * A * C
    cut = np.flatnonzero((A != 0.0) & (disc > 0.0))
    s = np.sqrt(disc[cut])
    t0 = (-B[cut] - s) / (2.0 * A[cut])
    t1 = (-B[cut] + s) / (2.0 * A[cut])
    t0 = np.where(t0 > 0.0, t0, 0.0)
    t1 = np.where(t1 < 1.0, t1, 1.0)
    chord = t0 < t1
    cut, t0, t1 = cut[chord], t0[chord], t1[chord]
    out = seg.copy()
    out[far[cut]] = np.column_stack((ax[cut] + t0 * dx[cut], ay[cut] + t0 * dy[cut],
                                     ax[cut] + t1 * dx[cut], ay[cut] + t1 * dy[cut]))
    keep = np.ones(len(seg), dtype=bool)
    keep[far] = False
    keep[far[cut]] = True
    # np.compress, not out[keep]: a boolean row index took 95 against 14 us
    # on 5781 rows (numpy 2.4.6)
    return np.compress(keep, out, axis=0)


def check_grid(n: int) -> None:
    """An extraction grid needs at least 64 x 64 points."""
    if n < 64:
        raise ValueError("grid must be at least 64 x 64")


@functools.lru_cache(maxsize=4)
def _disk(n):
    """The disk of the n x n grid over [-1, 1]^2, built once per n: the
    coordinates xs, the pixel mask xs[i]^2 + xs[j]^2 <= 1 + 1e-15, the mask
    of the cells whose four corners lie in it, and the mask of its pixels
    whose four neighbours lie in it too.  Every caller shares these arrays,
    so they are read-only."""
    xs = np.linspace(-1.0, 1.0, n)
    xx = xs * xs
    inside = xx[:, None] + xx[None, :] <= 1.0 + 1e-15
    cells = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    core = np.zeros_like(inside)
    core[1:-1, 1:-1] = (inside[1:-1, 1:-1] & inside[:-2, 1:-1] & inside[2:, 1:-1]
                        & inside[1:-1, :-2] & inside[1:-1, 2:])
    for a in (xs, inside, cells, core):
        a.flags.writeable = False
    return xs, inside, cells, core


def _sample_disk(field, n):
    """The one sample of extraction and detection: the field on the n x n
    grid over [-1, 1]^2 near the unit disk, n checked by :func:`check_grid`
    before the field is called.  The grid is :func:`_disk`'s, and every
    reader of the sample V takes its coordinates and masks, read-only, from
    ``_disk(len(V))``; n must be an integer, as for ``np.linspace``.  A
    non-finite sample is refused with a DataError: a NaN passes every sign
    and threshold test."""
    check_grid(n)
    # operator.index refuses a float n, which the cache would take for an int
    xs, inside, *_ = _disk(operator.index(n))
    V = _sample_grid(field, xs, inside)
    if not np.isfinite(V).all():
        raise DataError("field is non-finite on the sampling grid")
    return V


def extract_nodal_set(field: PlanarField, n: int) -> NodalSet:
    """Marching-squares zero set of the field inside the unit disk."""
    return _extract(field, _sample_disk(field, n))


def extract_and_detect(field: PlanarField, n: int) -> tuple[NodalSet, list]:
    """:func:`extract_nodal_set` and :func:`detect_singular` on one sample of
    the disk: the nodal stage of ``nodallab analyze``."""
    V = _sample_disk(field, n)
    return _extract(field, V), _detect(V)


def _extract(field, V):
    """:func:`extract_nodal_set` on the sample ``V`` of :func:`_sample_disk`."""
    # the cell pass returns before the clip, so their temporaries never coexist
    return NodalSet(_clip_to_disk(_cell_segments(field, V), 1.0))


def _cell_segments(field, V):
    """Marching-squares segments, rows (x1, y1, x2, y2), of the grid cells
    whose four corners lie in the disk of :func:`_disk` and whose samples
    ``V`` change sign, in row-major cell order.

    The pass works on flat indices of the active cells alone, and on the
    crossed edges alone: a crossing's point is interpolated linearly between
    the samples at the ends of its edge.  A saddle cell's crossings are paired
    by the sign of ``field`` at the cell centre.
    """
    n = len(V)
    xs, _, cells, _ = _disk(n)
    S = V > 0
    s00, s10, s01, s11 = S[:-1, :-1], S[1:, :-1], S[:-1, 1:], S[1:, 1:]
    # active cell c = i (n - 1) + j, in row-major order; its (0, 0) corner is
    # the flat sample c + i = i n + j
    c = np.flatnonzero(cells & ~((s00 == s10) & (s10 == s01) & (s01 == s11)))
    i, j = np.divmod(c, n - 1)
    # each cell's corner signs, corner (di, dj) in column di + 2 dj
    sign = S.ravel().take((c + i)[:, None] + (0, n, 1, n + 1))
    cross = sign[:, _EDGE_FROM] != sign[:, _EDGE_TO]

    # the zero crossings, cell by cell and within a cell in b, t, l, r order
    cell, e = np.nonzero(cross)
    ic, jc = i[cell], j[cell]
    a, b = _EDGE_FROM[e], _EDGE_TO[e]
    i1, j1, i2, j2 = ic + (a & 1), jc + (a >> 1), ic + (b & 1), jc + (b >> 1)
    flat = V.ravel()
    v1 = flat.take(i1 * n + j1)
    t = v1 / (v1 - flat.take(i2 * n + j2))
    x1, y1 = xs.take(i1), xs.take(j1)
    x = x1 + t * (xs.take(i2) - x1)
    y = y1 + t * (xs.take(j2) - y1)

    # segments as (start, end) crossing numbers: a cell with two crossings
    # s, s + 1 joins them; a saddle cell has four, s ... s + 3 (b, t, l, r),
    # paired by the sign at the cell centre, and its second segment follows
    # its first
    count = np.count_nonzero(cross, axis=1)
    start = np.cumsum(count) - count
    end = start + 1
    saddle = np.flatnonzero(count == 4)
    if len(saddle):
        s = start[saddle]
        h = xs[1] - xs[0]
        vc = np.asarray(field(xs[i[saddle]] + 0.5 * h, xs[j[saddle]] + 0.5 * h), dtype=float)
        agree = (vc > 0) == sign[saddle, 0]
        # center agrees with the (0,0) corner: connect b-r and l-t, else b-l and r-t
        end[saddle] = s + np.where(agree, 3, 2)
        start = np.insert(start, saddle + 1, s + np.where(agree, 2, 3))
        end = np.insert(end, saddle + 1, s + 1)
    return np.column_stack((x.take(start), y.take(start), x.take(end), y.take(end)))


def nodal_length(nodal: NodalSet, radius: float) -> float:
    """Total length of the segments clipped to the disk of the given radius."""
    if not 0.0 <= radius < np.inf:  # written so that NaN fails the test
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    seg = _clip_to_disk(nodal.segments.reshape(-1, 4), radius)
    return float(np.sum(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1])))


def _branches(V, i, j):
    """Sign changes of the sampled V around the pixel ring of radius 4 about
    the pixel (i, j), in angle order, exact zeros skipped; 0 if a ring pixel
    lies off the disk of :func:`_disk` (or off the grid)."""
    n = len(V)
    if not (_RING <= i < n - _RING and _RING <= j < n - _RING):
        return 0
    a, b = i + _RING_A, j + _RING_B
    return count_sign_changes(V[a, b]) if _disk(n)[1][a, b].all() else 0


def detect_singular(field: PlanarField, n: int):
    """Singular points of the unit disk, the least |u| + h*|grad u| of their
    17 x 17 pixel window among small |u| and |grad u|, about which u changes
    sign at least 4 times.

    The n x n grid over [-1, 1]^2, of spacing h, and its disk come from
    ``_disk(n)``, as extraction's do, and detection reads the field only
    through its one sample on them (``_sample_disk``).  A mask pixel has
    |u| < eps_u = 10 h^2 M and |grad u| < eps_g = 10 h M, with one scale M,
    max |u| over the disk pixels sampled (for a harmonic u,
    |grad u(x)| <= (2 / rho) sup |u| over B_rho(x) ties grad u to that
    scale): a field and its grid sample are held to one rule, both
    thresholds shrink with h, so flat nodal crossings are not misreported, and
    M = 0 passes no pixel.  |grad u| is the central difference of the sample,
    hypot(V[i+1, j] - V[i-1, j], V[i, j+1] - V[i, j-1]) / (2h), at the disk
    pixels whose four neighbours are disk pixels and whose |u| < eps_u (a few
    per cent of the disk on u_k), and nowhere else.  A candidate is a
    mask pixel whose score |u| + h*|grad u| is the least over the mask pixels
    of its 17 x 17 window, the first in raster order of equal scores there: on
    a symmetric field the pixels about the point tie.  A non-finite sample
    raises DataError: a NaN passes no threshold test and would drop a point.

    Near a regular nodal point (vanishing order 1) a bilinear or flat band
    along a nodal line can still pass both thresholds.  So a candidate is kept
    only if the sampled V changes sign 4 or more times on the Euclidean pixel
    ring of radius 4 about it (the 32 offsets (a, b) with round(hypot(a, b)) =
    4, in angle order, exact zeros skipped, counted by ``count_sign_changes``).
    In the plane a blow-up at a singular point has 2d >= 4 nodal rays (a
    harmonic polynomial of degree d >= 2) or 2k >= 10 (a threshold u_k); a
    regular nodal point has 2, and a one-signed zero such as x^2 + y^2, which
    by the strong maximum principle no solution has, has none.
    A candidate whose ring has a pixel off the disk or off the grid is dropped:
    the points of the analysis are interior.

    Returns a list of (x, y, abs_u, abs_grad, branches) tuples, one per kept
    point, in raster order: the sampled |u| and the central-difference
    |grad u| the thresholds read, and ``branches``, the integer sign count on
    the point's ring, 2d or 2k where the 32 pixels resolve the rays.
    """
    return _detect(_sample_disk(field, n))


def _detect(V):
    """:func:`detect_singular` on the sample ``V`` of :func:`_sample_disk`."""
    xs, inside, _, core = _disk(len(V))
    h = xs[1] - xs[0]
    absV = np.abs(V)
    M = np.max(absV, where=inside, initial=0.0)
    # the neighbours of a core pixel are disk pixels, which the sample holds
    i, j = np.nonzero(core & (absV < 10.0 * h ** 2.0 * M))
    g = np.hypot(V[i + 1, j] - V[i - 1, j], V[i, j + 1] - V[i, j - 1]) / (2.0 * h)
    keep = g < 10.0 * h * M
    i, j, g = i[keep], j[keep], g[keep]
    if len(i) == 0:
        return []
    # the score on the mask's bounding box with a margin of _WINDOW, inf off
    # the mask, and its least over each pixel's window by doubling, rows then
    # columns (runs of 1, 2, 4, 8, 16, then 17 pixels)
    i0, j0 = i.min() - _WINDOW, j.min() - _WINDOW
    s = np.full((i.max() - i0 + _WINDOW + 1, j.max() - j0 + _WINDOW + 1), np.inf)
    a, b = i - i0, j - j0
    s[a, b] = score = absV[i, j] + h * g
    low = s
    for _ in range(2):
        width = 1
        while width < 2 * _WINDOW + 1:
            step = min(width, 2 * _WINDOW + 1 - width)
            low = np.minimum(low[:-step], low[step:])
            width += step
        low = low.T
    c = np.flatnonzero(score == low[a - _WINDOW, b - _WINDOW])
    c = c[(s[a[c, None] + _BEFORE_A, b[c, None] + _BEFORE_B] > score[c, None]).all(axis=1)]
    i, j = i[c], j[c]
    branches = [_branches(V, ic, jc) for ic, jc in zip(i, j)]
    return [p for p in zip(xs[i].tolist(), xs[j].tolist(), absV[i, j].tolist(),
                           g[c].tolist(), branches) if p[4] >= 4]


def count_sign_changes(values) -> int:
    """Sign transitions around the periodic sample array, skipping exact zeros."""
    signs = np.sign(np.asarray(values, dtype=float))
    signs = signs[signs != 0]
    # each sign against the next, the last against the first
    return int(np.count_nonzero(signs * np.concatenate((signs[1:], signs[:1])) < 0))


def profile_zero_structure(profile):
    """Zeros of the angular profile with slopes and the antipodal symmetry flag.

    Zeros are located by sign change on the sample grid and refined with the
    local cubic interpolant; slopes come from the stored derivative samples.
    Only a profile with every sample zero is degenerate: near q = 2 a u_k
    profile is tiny (max |phi| about 3e-30 at q = 1.9, k = 41) but has all
    its zeros.
    """
    vals = profile.values
    n = len(vals)
    if not np.any(vals):
        return {"zeros": [], "slopes": [], "antipodal": False, "degenerate": True}

    two_pi = 2.0 * np.pi
    th = _angles(n)
    # bisect the interpolant inside every sample interval with a sign change at
    # once, one array call per step; an interval freezes once it is shorter
    # than 1e-14
    bracket = vals * np.roll(vals, -1) < 0.0
    idx = np.flatnonzero(bracket)
    a, b = th[idx], two_pi * (idx + 1) / n
    fa = profile(a)
    live = np.arange(len(idx))
    for _ in range(60):
        if len(live) == 0:
            break
        m = 0.5 * (a[live] + b[live])
        fm = profile(m)
        left = fa[live] * fm <= 0.0
        b[live[left]] = m[left]
        right = live[~left]
        a[right], fa[right] = m[~left], fm[~left]
        live = live[~(b[live] - a[live] < 1e-14)]
    th[idx] = 0.5 * (a + b)
    zs = th[(vals == 0.0) | bracket]
    zeros = zs.tolist()
    slopes = profile.value_and_prime(zs)[1].tolist()

    # antipodal: every zero has a zero within 1e-6 of its opposite angle
    shifted = (zs + np.pi) % two_pi
    d = np.min(np.abs((zs - shifted[:, None] + np.pi) % two_pi - np.pi), axis=1,
               initial=np.inf)
    antipodal = not np.any(d > 1e-6)
    return {"zeros": zeros, "slopes": slopes, "antipodal": antipodal,
            "degenerate": False}
