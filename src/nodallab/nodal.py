"""Zero-set extraction on a grid, nodal length, and singular-point detection.

Marching squares with linear edge interpolation is enough here: away from the
singular set the zero level lines of these fields are C^1 curves, so each grid
cell meets the zero set in at most two straight chords (the ambiguous saddle
configuration is resolved by the sign at the cell center).
"""

from __future__ import annotations

import numpy as np

from .fields import NodalSet, PlanarField, _angles, _probe_ring, _sample_grid
from .params import gamma_q


class DataError(ValueError):
    """Field produced non-finite samples on the extraction grid."""


# corner offsets (di, dj) of the cell edges b, t, l, r, in the order their
# crossings are listed: bottom (0,0)-(1,0), top (0,1)-(1,1), left (0,0)-(0,1),
# right (1,0)-(1,1)
_EDGES = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 1)))
_B, _T, _L, _R = range(4)


def _disk_mask(xs, radius2):
    """Grid points (xs[i], xs[j]) with xs[i]^2 + xs[j]^2 <= radius2."""
    xx = xs * xs
    return xx[:, None] + xx[None, :] <= radius2


def _label_dilated(mask):
    """8-connected components of the one-pixel 8-neighbour dilation of ``mask``.

    The labels equal those of ``ndimage.label`` of
    ``ndimage.binary_dilation(mask, s)`` with structure s the 3 x 3 block:
    components numbered from 1 in raster order of their first pixel, 0 off
    the dilation.  The work is confined to the mask's bounding box: the
    dilation is an OR of shifted copies, the components come from union-find
    (hook each root onto the smaller root, then pointer jumping).
    """
    labels = np.zeros(mask.shape, dtype=np.int32)
    rows = np.flatnonzero(mask.any(axis=1))
    if len(rows) == 0:
        return labels
    cols = np.flatnonzero(mask.any(axis=0))
    # the bounding box grown by the dilation's pixel, clipped to the grid
    box = np.s_[max(rows[0] - 1, 0):rows[-1] + 2, max(cols[0] - 1, 0):cols[-1] + 2]
    h, w = mask[box].shape
    padded = np.pad(mask[box], 1)
    dil = np.zeros((h, w), dtype=bool)
    for di in range(3):
        for dj in range(3):
            dil |= padded[di:di + h, dj:dj + w]

    # dilated pixels numbered in raster order; edges join each pixel to its
    # right, lower-left, lower and lower-right neighbours
    ids = np.full((h, w), -1)
    count = np.count_nonzero(dil)
    ids[dil] = np.arange(count)
    ends = []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1]),
                 (np.s_[:-1, :], np.s_[1:, :]), (np.s_[:-1, :-1], np.s_[1:, 1:])):
        both = dil[a] & dil[b]
        ends.append((ids[a][both], ids[b][both]))
    u = np.concatenate([e[0] for e in ends])
    v = np.concatenate([e[1] for e in ends])

    # every pixel points at its root, the smallest id of its tree, which
    # becomes the component's first pixel once all edges are inside trees
    parent = np.arange(count)
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv
        if not split.any():
            break
        ru, rv = ru[split], rv[split]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    labels[box][dil] = np.cumsum(parent == np.arange(count))[parent]
    return labels


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


def check_grid(n: int) -> None:
    """An extraction grid needs at least 64 x 64 points."""
    if n < 64:
        raise ValueError("grid must be at least 64 x 64")


def extract_nodal_set(field: PlanarField, n: int) -> NodalSet:
    """Marching-squares zero set of the field inside the unit disk."""
    check_grid(n)
    xs = np.linspace(-1.0, 1.0, n)
    inside = _disk_mask(xs, 1.0 + 1e-15)
    V = _sample_grid(field, xs, inside)
    if not np.all(np.isfinite(V)):
        raise DataError("field is non-finite on the extraction grid")

    h = xs[1] - xs[0]
    # cells whose four corners lie inside the disk and whose signs are mixed
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

    return NodalSet(_clip_to_disk(seg, 1.0))


def nodal_length(nodal: NodalSet, radius: float) -> float:
    """Total length of the segments clipped to the disk of the given radius."""
    seg = _clip_to_disk(nodal.segments.reshape(-1, 4), radius)
    return float(np.sum(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1])))


def singular_thresholds(field: PlanarField, n: int):
    """Resolution-tracking thresholds (eps_u, eps_g) for singular detection
    on the n x n grid over [-1, 1]^2.

    Both shrink with the grid spacing h so flat nodal crossings are not
    misreported: eps_u tracks the local growth rate min(gamma_q, 2), eps_g is
    linear in h against the gradient scale on the probe ring.  The grid
    follows extraction's rule (:func:`check_grid`).
    """
    check_grid(n)
    h = 2.0 / (n - 1)
    g = gamma_q(field.params)
    scale = field.scale()
    _, (gx, gy) = _probe_ring(field, grad=True)
    gscale = float(np.max(np.hypot(gx, gy))) or 1.0
    eps_u = 10.0 * h ** min(g, 2.0) * scale
    eps_g = 10.0 * h * gscale
    return eps_u, eps_g


def _grad_norm_at(field, xs, mask):
    """|grad u| at the grid points (xs[i], xs[j]) where ``mask`` holds, from
    one ``value_and_grad`` call on those points alone; inf elsewhere."""
    i, j = np.nonzero(mask)
    _, (gx, gy) = field.value_and_grad(xs[i], xs[j])
    G = np.full(mask.shape, np.inf)
    G[i, j] = np.hypot(gx, gy)
    return G


def detect_singular(field: PlanarField, n: int = 256):
    """Points of the unit disk with |u| < eps_u and |grad u| < eps_g, one per cluster.

    The thresholds are those of :func:`singular_thresholds`.  Returns a list
    of (x, y, abs_u, abs_grad) tuples, the representative being the grid
    point of smallest |u| + h*|grad u| in its cluster.  The grid is sampled
    for the value alone; the gradient is evaluated only at the candidates,
    the disk's pixels with |u| < eps_u (a few per cent of them on u_k), and
    |grad u| is left infinite elsewhere.  A field's ``value_and_grad`` returns
    the same values as its ``__call__``, so the candidates are those a full
    value-and-gradient grid would give.
    """
    eps_u, eps_g = singular_thresholds(field, n)
    xs = np.linspace(-1.0, 1.0, n)
    inside = _disk_mask(xs, 1.0)
    V = _sample_grid(field, xs, inside)
    cand = inside & (np.abs(V) < eps_u)
    G = _grad_norm_at(field, xs, cand)
    mask = cand & (G < eps_g)
    # label on a one-pixel dilation with 8-connectivity: sub-cell-wide bands
    # along flat nodal rays must not shed one-pixel satellite clusters
    labels = _label_dilated(mask)
    labels[~mask] = 0
    h = xs[1] - xs[0]
    # sort the labelled pixels by (label, score); the stable sort keeps row-major
    # order among equal scores, so the first pixel of each label is its first minimum
    i, j = np.nonzero(labels)
    lab = labels[i, j]
    score = np.abs(V[i, j]) + h * G[i, j]
    order = np.lexsort((score, lab))
    lab = lab[order]
    best = order[np.flatnonzero(np.diff(lab, prepend=0))]
    i, j = i[best], j[best]
    return list(zip(xs[i].tolist(), xs[j].tolist(),
                    np.abs(V[i, j]).tolist(), G[i, j].tolist()))


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
