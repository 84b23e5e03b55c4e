"""Zero-set extraction on a grid, nodal length, and singular-point detection.

Marching squares with linear edge interpolation is enough here: away from the
singular set the zero level lines of these fields are C^1 curves, so each grid
cell meets the zero set in at most two straight chords (the ambiguous saddle
configuration is resolved by the sign at the cell center).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .fields import NodalSet, PlanarField
from .params import gamma_q


class DataError(ValueError):
    """Field produced non-finite samples on the extraction grid."""


# corner offsets (di, dj) of the cell edges b, t, l, r, in the order their
# crossings are listed: bottom (0,0)-(1,0), top (0,1)-(1,1), left (0,0)-(0,1),
# right (1,0)-(1,1)
_EDGES = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 1)))
_B, _T, _L, _R = range(4)


def _clip_to_disk(seg, radius):
    """Portions inside the disk of the given radius of the rows (x1, y1, x2, y2).

    Solves |a + t d|^2 = radius^2 for t in [0, 1] per segment. A segment with no
    proper chord through the disk (zero length, a tangent or missing line, or
    roots outside [0, 1]) is kept whole when its start lies inside and dropped
    otherwise. Row order is kept.
    """
    ax, ay = seg[:, 0], seg[:, 1]
    dx, dy = seg[:, 2] - ax, seg[:, 3] - ay
    A = dx * dx + dy * dy
    B = 2.0 * (ax * dx + ay * dy)
    C = ax * ax + ay * ay - radius * radius
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
    out[cut] = np.column_stack((ax[cut] + t0 * dx[cut], ay[cut] + t0 * dy[cut],
                                ax[cut] + t1 * dx[cut], ay[cut] + t1 * dy[cut]))
    keep = C <= 0.0
    keep[cut] = True
    return out[keep]


def extract_nodal_set(field: PlanarField, n: int, radius: float = 1.0) -> NodalSet:
    """Marching-squares zero set of the field inside the disk of given radius."""
    if n < 64:
        raise ValueError("grid must be at least 64 x 64")
    xs = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = np.asarray(field(X, Y), dtype=float)
    if not np.all(np.isfinite(V)):
        raise DataError("field is non-finite on the extraction grid")

    h = xs[1] - xs[0]
    # cells whose four corners lie inside the disk and whose signs are mixed
    R2 = radius * radius
    inside = X * X + Y * Y <= R2 + 1e-15
    S = V > 0
    s00, s10, s01, s11 = S[:-1, :-1], S[1:, :-1], S[:-1, 1:], S[1:, 1:]
    active = (inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
              & ~((s00 == s10) & (s10 == s01) & (s01 == s11)))
    i, j = np.nonzero(active)  # row-major cell order

    # crossing flags and linearly interpolated zero crossings on edges b, t, l, r
    cross = np.empty((len(i), 4), dtype=bool)
    pts = np.full((len(i), 4, 2), np.nan)
    for e, ((di1, dj1), (di2, dj2)) in enumerate(_EDGES):
        cross[:, e] = S[i + di1, j + dj1] != S[i + di2, j + dj2]
        c = np.flatnonzero(cross[:, e])
        i1, j1, i2, j2 = i[c] + di1, j[c] + dj1, i[c] + di2, j[c] + dj2
        v1 = V[i1, j1]
        t = v1 / (v1 - V[i2, j2])
        pts[c, e, 0] = xs[i1] + t * (xs[i2] - xs[i1])
        pts[c, e, 1] = xs[j1] + t * (xs[j2] - xs[j1])

    # up to two segments per cell, as (start edge, end edge) pairs, -1 where
    # absent; a cell with two crossings joins them in b, t, l, r order
    pairs = np.full((len(i), 2, 2), -1)
    pairs[:, 0, 0] = np.argmax(cross, axis=1)
    pairs[:, 0, 1] = 3 - np.argmax(cross[:, ::-1], axis=1)
    saddle = np.flatnonzero(cross.all(axis=1))
    if len(saddle):
        # saddle cell: pair the crossings using the sign at the center
        cx = xs[i[saddle]] + 0.5 * h
        cy = xs[j[saddle]] + 0.5 * h
        vc = np.asarray(field(cx, cy), dtype=float)
        agree = (vc > 0) == s00[i[saddle], j[saddle]]
        # center agrees with the (0,0) corner: connect b-r and l-t, else b-l and r-t
        pairs[saddle] = np.where(agree[:, None, None], ((_B, _R), (_L, _T)), ((_B, _L), (_R, _T)))
    cell, slot = np.nonzero(pairs[:, :, 0] >= 0)
    e = pairs[cell, slot]
    seg = np.concatenate((pts[cell, e[:, 0]], pts[cell, e[:, 1]]), axis=1)

    x1, y1, x2, y2 = _clip_to_disk(seg, radius).T.tolist()
    return NodalSet(segments=list(zip(zip(x1, y1), zip(x2, y2))), singular_points=[])


def nodal_length(nodal: NodalSet, radius: float) -> float:
    """Total length of the segments clipped to the disk of the given radius."""
    seg = _clip_to_disk(np.asarray(nodal.segments, dtype=float).reshape(-1, 4), radius)
    return float(np.sum(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1])))


def singular_thresholds(field: PlanarField, n: int, radius: float = 1.0):
    """Resolution-tracking thresholds (eps_u, eps_g) for singular detection.

    Both shrink with the grid spacing h so flat nodal crossings are not
    misreported: eps_u tracks the local growth rate min(gamma_q, 2), eps_g is
    linear in h against the gradient scale.
    """
    h = 2.0 * radius / (n - 1)
    g = gamma_q(field.params)
    scale = field.scale()
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    gx, gy = field.grad(0.7 * radius * np.cos(th), 0.7 * radius * np.sin(th))
    gscale = float(np.max(np.hypot(gx, gy))) or 1.0
    eps_u = 10.0 * h ** min(g, 2.0) * scale
    eps_g = 10.0 * h * gscale
    return eps_u, eps_g


def detect_singular(field: PlanarField, n: int = 256, radius: float = 1.0,
                    eps_u=None, eps_g=None):
    """Points with |u| < eps_u and |grad u| < eps_g, one per connected cluster.

    Returns a list of (x, y, abs_u, abs_grad) tuples, the representative being
    the grid point of smallest |u| + h*|grad u| in its cluster.
    """
    auto_u, auto_g = singular_thresholds(field, n, radius)
    eps_u = auto_u if eps_u is None else eps_u
    eps_g = auto_g if eps_g is None else eps_g
    if eps_u <= 0 or eps_g <= 0:
        raise ValueError("thresholds must be positive")
    xs = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V, (GX, GY) = field.value_and_grad(X, Y)
    G = np.hypot(np.asarray(GX, dtype=float), np.asarray(GY, dtype=float))
    inside = X * X + Y * Y <= radius * radius
    mask = inside & (np.abs(V) < eps_u) & (G < eps_g)
    # label on a one-pixel dilation with 8-connectivity: sub-cell-wide bands
    # along flat nodal rays must not shed one-pixel satellite clusters
    struct = np.ones((3, 3), dtype=int)
    labels, count = ndimage.label(ndimage.binary_dilation(mask, struct), struct)
    labels[~mask] = 0
    h = xs[1] - xs[0]
    score = np.abs(V) + h * G
    # sort the labelled pixels by (label, score); the stable sort keeps row-major
    # order among equal scores, so the first pixel of each label is its first minimum
    i, j = np.nonzero(labels)
    lab = labels[i, j]
    order = np.lexsort((score[i, j], lab))
    lab = lab[order]
    best = order[np.flatnonzero(np.diff(lab, prepend=0))]
    i, j = i[best], j[best]
    return list(zip(X[i, j].tolist(), Y[i, j].tolist(),
                    np.abs(V[i, j]).tolist(), G[i, j].tolist()))


def profile_zero_structure(profile):
    """Zeros of the angular profile with slopes and the antipodal symmetry flag.

    Zeros are located by sign change on the sample grid and refined with the
    local cubic interpolant; slopes come from the stored derivative samples.
    """
    vals = profile.values
    n = len(vals)
    scale = profile.scale()
    if np.max(np.abs(vals)) < 1e-14:
        return {"zeros": [], "slopes": [], "antipodal": False, "degenerate": True}

    zeros = []
    slopes = []
    two_pi = 2.0 * np.pi
    for j in range(n):
        v0 = vals[j]
        v1 = vals[(j + 1) % n]
        th0 = two_pi * j / n
        if v0 == 0.0:
            zeros.append(th0)
            slopes.append(float(profile.prime(th0)))
            continue
        if v0 * v1 < 0.0:
            # bisect the interpolant inside the sample interval
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
            slopes.append(float(profile.prime(z)))

    tol = max(1e-8, 1e-6 * two_pi / n)
    zs = np.array(zeros)
    antipodal = True
    for z in zs:
        shifted = (z + np.pi) % two_pi
        d = np.min(np.abs((zs - shifted + np.pi) % two_pi - np.pi)) if len(zs) else np.inf
        if d > max(tol, 1e-6):
            antipodal = False
            break
    return {"zeros": zeros, "slopes": slopes, "antipodal": antipodal,
            "degenerate": False}
