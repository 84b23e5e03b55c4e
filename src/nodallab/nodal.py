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


def _edge_zero(p1, p2, v1, v2):
    # linear interpolation of the zero crossing between two corner samples
    t = v1 / (v1 - v2)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def _clip_segment_to_disk(a, b, radius):
    """Portion of segment ab inside the disk of the given radius, or None."""
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    # solve |a + t d|^2 = radius^2 for t in [0, 1]
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
    segments = []
    # walk cells whose four corners lie inside the disk
    R2 = radius * radius
    inside = X * X + Y * Y <= R2 + 1e-15
    for i in range(n - 1):
        for j in range(n - 1):
            if not (inside[i, j] and inside[i + 1, j]
                    and inside[i, j + 1] and inside[i + 1, j + 1]):
                continue
            v00 = V[i, j]
            v10 = V[i + 1, j]
            v01 = V[i, j + 1]
            v11 = V[i + 1, j + 1]
            s00, s10, s01, s11 = v00 > 0, v10 > 0, v01 > 0, v11 > 0
            if s00 == s10 == s01 == s11:
                continue
            p00 = (xs[i], xs[j])
            p10 = (xs[i + 1], xs[j])
            p01 = (xs[i], xs[j + 1])
            p11 = (xs[i + 1], xs[j + 1])
            crossings = []
            if s00 != s10:
                crossings.append(("b", _edge_zero(p00, p10, v00, v10)))
            if s01 != s11:
                crossings.append(("t", _edge_zero(p01, p11, v01, v11)))
            if s00 != s01:
                crossings.append(("l", _edge_zero(p00, p01, v00, v01)))
            if s10 != s11:
                crossings.append(("r", _edge_zero(p10, p11, v10, v11)))
            if len(crossings) == 2:
                segments.append((crossings[0][1], crossings[1][1]))
            elif len(crossings) == 4:
                # saddle cell: pair the crossings using the sign at the center
                cx, cy = xs[i] + 0.5 * h, xs[j] + 0.5 * h
                vc = float(field(cx, cy))
                pts = dict(crossings)
                if (vc > 0) == s00:
                    # center agrees with the (0,0) corner: connect b-r and l-t
                    segments.append((pts["b"], pts["r"]))
                    segments.append((pts["l"], pts["t"]))
                else:
                    segments.append((pts["b"], pts["l"]))
                    segments.append((pts["r"], pts["t"]))

    clipped = []
    for a, b in segments:
        seg = _clip_segment_to_disk(a, b, radius)
        if seg is not None:
            clipped.append(seg)
    return NodalSet(segments=clipped, singular_points=[])


def nodal_length(nodal: NodalSet, radius: float) -> float:
    """Total length of the segments clipped to the disk of the given radius."""
    total = 0.0
    for a, b in nodal.segments:
        seg = _clip_segment_to_disk(a, b, radius)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        total += float(np.hypot(x2 - x1, y2 - y1))
    return total


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
    reps = []
    score = np.abs(V) + h * G
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab)
        best = idx[np.argmin(score[idx[:, 0], idx[:, 1]])]
        i, j = int(best[0]), int(best[1])
        reps.append((float(X[i, j]), float(Y[i, j]),
                     float(abs(V[i, j])), float(G[i, j])))
    return reps


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
