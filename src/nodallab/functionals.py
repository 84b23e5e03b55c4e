"""Quadrature evaluation of the boundary/bulk functionals and their checkers.

All integrals are over circles and disks centered at a point x0 of the unit
disk, computed in one pass (``_ladder``) over a radius ladder
r_1 < ... < r_m.  A field that is r^gamma phi(theta) about x0 = (0, 0) (a
``HomogeneousField`` or a harmonic monomial, which declare it through
``separated``) is integrated in closed form: every circle and disk integral
is an angular sum of phi and phi' (trapezoid rule) times a power of r.  The
sums are evaluated once per field and params and kept on the field, so every
further ladder about its vertex is powers of r alone.  On 50 geometric radii
in [0.01, 1], every ladder row agreed with the Cartesian rings to 6.7e-16 of
its largest magnitude on u_k at q = 1 to 1.75 and on the monomials of degree
1 to 5;
the H, grad2, unu2 and uunu rows of Re/Im z^d are pi r^(2d+1), pi d r^(2d),
pi d^2 r^(2d-1) and pi d r^(2d) to 1e-15 at every radius.  The Cartesian
panel is exact only on polynomials: it misses the integral of rho^2.5 over
[0, r] by 9e-13 relative.

Every other field or centre is sampled on Cartesian rings: trapezoid rule in
the angle (spectrally accurate for smooth periodic integrands, order 2
across nodal-line kinks) and one GL_NODES-point Gauss-Legendre panel in the
radius on each annulus [r_(i-1), r_i] (r_0 = 0).  Cumulative sums of the
panels give the disk integrals, and one ring at each r_i gives the circle
integrals.  Every functional below is arithmetic over one such pass.

One error model holds on both paths, the ladder row ``rel`` bounding the
relative error of u on each circle: ROUNDING for a field exact to rounding
(``noise`` None), a ``GridField``'s bilinear bound over the circle's RMS
sqrt(H / (2 pi r)) otherwise.  Every floor on H and W is read from it.

The two-parameter rescaled energy

    W(gamma, t; r) = r^(-(N-2+2 gamma)) * D_t(r) - gamma r^(-(N-1+2 gamma)) * H(r)

is radius-constant exactly on gamma-homogeneous fields, nondecreasing for
t = 2 and gamma >= 2/(2-q), and its small-radius divergence locates the
vanishing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DomainError, PlanarField, _angles, _fmt_rows, _sample_rings
from .params import ProblemParams, gamma_q

N_DIM = 2
# the angles of every ladder ring, a prime count: no zero of a k-fold profile but theta = 0
# is a node (at 1024, u_8's 16 kinks near q = 1 all were, and N_q missed gamma_q by 4.7e-3)
N_THETA = 1021
_THETA = _angles(N_THETA)
_DTH = 2.0 * np.pi / N_THETA
GL_NODES = 48


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1].

    numpy's ``leggauss`` weights are off by up to 1.3e-12 relative at n = 48.
    One Newton step on P_n, by the three-term recurrence, moves each of its
    nodes by at most one ulp (further steps alternate between neighbouring
    doubles), and the weights are 2 / ((1 - x^2) P_n'(x)^2).  Mapped to
    [0, 1], the rule integrates rho^p for every p <= 2n - 1 = 95 to 3.8e-15
    relative, against 1.8e-13 with the ``leggauss`` weights.
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    p, dp = _legendre(n, x)
    x = x - p / dp
    dp = _legendre(n, x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# Gauss-Legendre nodes mapped to [0, 1], and weights summing to 1
_GL_T, _GL_W = _gauss_legendre(GL_NODES)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W
# |u(x0)| below EPS_U * the ladder's largest circle RMS makes x0 nodal: a
# tolerance on x0, not a noise floor
EPS_U = 1e-6
ROUNDING = 1e-12  # relative error on a circle of a field with no noise: rounding, with room
SLOPE_TOL = 0.02  # log-log slope of |W| below -SLOPE_TOL counts as divergent


class DegenerateSphereError(ValueError):
    """H on the circle fell below the noise floor: x0 is a high-order zero."""


class PreconditionError(ValueError):
    """Arguments outside the range where the statement applies."""


class InconclusiveError(ValueError):
    """Trend classification ambiguous at the given grid; carries the bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def _ladder_radii(radii):
    """The radii of a ladder as a float array.  Every reader of a ladder takes
    it 1-d, non-empty, finite and strictly increasing, as given: none sorts it."""
    radii = np.array(radii, dtype=float, ndmin=1)
    if radii.ndim > 1:
        raise ValueError("radii must be a 1-d ladder")
    if not radii.size:
        raise ValueError("radii must not be empty")
    if not np.isfinite(radii).all():
        raise ValueError("radii must be finite")
    if not (radii[1:] > radii[:-1]).all():
        raise ValueError("radii must be strictly increasing")
    return radii


@dataclass
class FunctionalTrace:
    """A functional sampled on a strictly increasing radius ladder."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._fill(_ladder_radii(self.radii), self.values)

    def _fill(self, radii, values):
        """Set the radii, which have passed ``_ladder_radii``, and the values
        as floats of the same shape."""
        self.radii, self.values = radii, np.asarray(values, dtype=float)
        if radii.shape != self.values.shape:
            raise ValueError("radii and values must have equal length")

    def save_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,value\n")
            fh.write(_fmt_rows(np.column_stack((self.radii, self.values)), ","))


def eval_F(params: ProblemParams, s):
    """mu * (lambda_+ (s^+)^q + lambda_- (s^-)^q); nonnegative, F(0)=0."""
    s = np.asarray(s, dtype=float)
    # one power: |s|^q takes lambda_+ where s > 0 and lambda_- elsewhere
    lam = np.where(s > 0, params.lambda_plus, params.lambda_minus)
    return np.abs(s) ** params.q * lam * params.mu


def _centre(x0):
    """The centre of a ladder, two finite numbers, as a float array.  A NaN
    passes the disk bound and the nodal test, so a non-finite centre is
    refused on its own, before any field call, as is one of another shape."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise DomainError(f"centre must be two numbers, got {x0.tolist()}")
    if not np.isfinite(x0).all():
        raise DomainError(f"centre must be finite, got {x0.tolist()}")
    return x0


def _gammas(gammas, name="gamma", ndim=0):
    """A gamma or a t (``ndim`` 0), or a 1-d grid of gammas (``ndim`` 1), as a
    float array.  Another shape is refused, and so is a non-finite value: a
    NaN passes the critical-homogeneity test and an infinite gamma or t makes
    W an inf or a NaN that reads as a verdict.  Both checks come before any
    field call; ``name`` names the argument in the message."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != ndim:
        shape = "grid must be 1-d" if ndim else "must be a scalar"
        raise ValueError(f"{name} {shape}, got shape {gammas.shape}")
    if not np.isfinite(gammas).all():
        raise ValueError(f"{name} must be finite, got {gammas.tolist()}")
    return gammas


def _require_nodal(lad):
    """Refuse the centre x0 of ``lad`` unless |u(x0)| is at most EPS_U times
    the largest circle RMS sqrt(H / (2 pi r)) of the ladder.  About the
    vertex of a field r^gamma phi(theta) with gamma > 0 (``lad.vertex``),
    u(x0) = 0 and the test passes without a field call."""
    if lad.vertex:
        return
    u0 = float(np.abs(lad.field(lad.x0[0], lad.x0[1])))
    if u0 > EPS_U * np.sqrt((lad.H / (2.0 * np.pi * lad.r)).max()):
        raise PreconditionError(f"|u(x0)| = {u0} too large; x0 is not a nodal point")


def _scaled(r, p, *xs):
    """Each x r^-p as (x r^(-p/2)) r^(-p/2), one array per x of ``xs``, with
    r^(-p/2) computed once; for every power of r in the ladder's views: r^-p
    alone overflows where the product is a normal double (u_k at q = 1.97,
    gamma = 135, r = 0.02).  Where the product overflows too (gamma = 200 at
    small r) it reads +-inf, or NaN where x = 0, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = r ** (-p / 2)
        return [x * a * a for x in xs]


def _power_fit(r, v, keep):
    """Least-squares slope and intercept of log v against log r for each row
    of v, over the points where ``keep`` (shaped like v) holds; the others are
    dropped, and a row with fewer than two kept points gets a NaN slope."""
    x, y = np.where(keep, np.log(r), 0.0), np.log(np.where(keep, v, 1.0))  # 0 where dropped
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 on short rows
        n = np.count_nonzero(keep, axis=-1)
        xm, ym = x.sum(axis=-1) / n, y.sum(axis=-1) / n
        dx = np.where(keep, x - xm[..., None], 0.0)
        slope = (dx * (y - ym[..., None])).sum(axis=-1) / (dx * dx).sum(axis=-1)
    return slope, ym - slope * xm


@dataclass
class _Ladder:
    """Circle and disk integrals on a radius ladder about x0, one per radius.

    H, unu2, uunu and f_circle integrate u^2, u_nu^2, u u_nu and F(u) over
    the circle S_r; grad2 and f_bulk integrate |grad u|^2 and F(u) over the
    disk B_r.  A circles-only pass fills H and rel alone.  rel bounds the
    relative error of u on each circle, and is NaN where H = 0, which every
    comparison reads as false; every floor on H and W is read from it.
    ``vertex`` holds on a closed-form ladder about the vertex of a field
    r^gamma phi(theta) with gamma > 0, where u(x0) = 0.
    """

    field: PlanarField
    x0: np.ndarray
    r: np.ndarray
    H: np.ndarray
    rel: np.ndarray
    grad2: np.ndarray | None = None
    f_bulk: np.ndarray | None = None
    unu2: np.ndarray | None = None
    uunu: np.ndarray | None = None
    f_circle: np.ndarray | None = None
    vertex: bool = False

    def D(self, t):
        return self.grad2 - t / self.field.params.q * self.f_bulk

    @property
    def h_ok(self):
        """Where H clears its floor, the mass of the error alone: rel < 1."""
        return self.rel < 1

    def N(self, t):
        low = ~self.h_ok
        if low.any():
            r, H = self.r[low][0], self.H[low][0]
            raise DegenerateSphereError(f"H({r}) = {H} below floor; x0 is a high-order zero")
        return self.r * self.D(t) / self.H

    def p(self, gamma):
        """The Weiss exponent N - 2 + 2 gamma: W is r^-p times ``rp_W``."""
        return N_DIM - 2 + 2 * gamma

    def rp_W(self, gamma, t):
        """r^p W(gamma, t): W without its factor r^-p."""
        return self.D(t) - gamma / self.r * self.H

    def rp_size(self, gamma, t):
        """r^p size(gamma, t): the magnitude of the terms of r^p W."""
        q = self.field.params.q
        return self.grad2 + np.abs(t / q * self.f_bulk) + gamma / self.r * self.H

    def rp_floor(self, gamma, t):
        """r^p times W(gamma, t)'s floor, its terms' size times the error rel."""
        return self.rp_size(gamma, t) * self.rel

    def W(self, gamma, t):
        return _scaled(self.r, self.p(gamma), self.rp_W(gamma, t))[0]

    def size(self, gamma, t):
        """The magnitude of W's own terms, r^-p (int |grad u|^2 + |t/q int F|)
        + gamma r^-(p+1) H."""
        return _scaled(self.r, self.p(gamma), self.rp_size(gamma, t))[0]

    def Phi(self, gamma):
        """Nonnegative bulk term (2N-(N-2)q)/(q r^(p+1)) * int_{B_r} F."""
        q = self.field.params.q
        return (2 * N_DIM - (N_DIM - 2) * q) / q * _scaled(self.r, self.p(gamma) + 1, self.f_bulk)[0]

    def h1(self):
        """Scale-invariant H^1 norm: sqrt(r^(2-N) int |grad u|^2 + r^(1-N) int_S u^2)."""
        return np.sqrt(self.r ** -(N_DIM - 2) * self.grad2 + self.r ** -(N_DIM - 1) * self.H)

    def w_prime(self, gamma, t):
        """Closed-form derivative of W(gamma, t) with respect to r."""
        r, q, p = self.r, self.field.params.q, self.p(gamma)
        # circle integral of (u_nu - gamma u / r)^2
        sq_term = self.unu2 - 2.0 * gamma / r * self.uunu + (gamma / r) ** 2 * self.H
        sq, f_circle = _scaled(r, p, sq_term, self.f_circle)
        return (
            2.0 * sq
            + (2.0 - t) / q * f_circle
            + ((N_DIM - 2) * t - 2 * N_DIM + 2 * gamma * (t - q)) / q * _scaled(r, p + 1, self.f_bulk)[0]
        )


def _angular_sums(field):
    """The four numbers of a separated field's closed-form ladder, or None
    for a field that declares no separated form: gamma, dtheta sum phi^2,
    dtheta sum (gamma^2 phi^2 + phi'^2) / (2 gamma) and dtheta sum F(phi)
    on the ladder's angles.  F reads ``field.params``, which callers
    reassign, so the numbers are kept on the field keyed by its params:
    phi and phi' are evaluated once per field and params."""
    memo = field._angular_sums
    if memo is not None and memo[0] == field.params:
        return memo[1]
    sep = field.separated(_THETA)
    if sep is not None:
        g, phi, dphi = sep
        sep = (g, _DTH * np.sum(phi * phi), _DTH * np.sum(g * g * phi * phi + dphi * dphi) / (2 * g),
               _DTH * np.sum(eval_F(field.params, phi)))
    field._angular_sums = (field.params, sep)
    return sep


def _ladder(field: PlanarField, x0, radii, bulk=True) -> _Ladder:
    """One quadrature pass over a ladder of ``_ladder_radii``: 1-d, finite
    and strictly increasing, refused otherwise.

    A field that is r^gamma phi(theta) about x0 = (0, 0) (``field.separated``)
    is integrated in closed form: each row is dtheta times an angular sum
    times a power of r, the sums read by ``_angular_sums`` once per field
    and params,

        H:        sum phi^2                                * r^(2 gamma + 1)
        grad2:    sum (gamma^2 phi^2 + phi'^2) / (2 gamma) * r^(2 gamma)
        f_bulk:   sum F(phi) / (gamma q + 2)               * r^(gamma q + 2)
        unu2:     gamma^2 sum phi^2                        * r^(2 gamma - 1)
        uunu:     gamma sum phi^2                          * r^(2 gamma)
        f_circle: sum F(phi)                               * r^(gamma q + 1)

    (F(r^gamma phi) = r^(gamma q) F(phi) holds exactly for r > 0).  Every
    other field or centre is sampled on Cartesian rings by
    ``fields._sample_rings``: each radius r_i costs one ring, all in one
    call without ``bulk``; with it, one call per annulus samples its
    GL_NODES panel rings and then the circle r_i.
    """
    rs = _ladder_radii(radii)
    x0 = _centre(x0)
    if rs[0] <= 0:
        raise DomainError(f"radius must be positive, got {rs[0]}")
    if np.hypot(x0[0], x0[1]) + rs[-1] > 1.0 + 1e-12:
        raise DomainError(f"ball B_{rs[-1]}({x0}) escapes the unit disk")
    sep = _angular_sums(field) if x0[0] == 0.0 and x0[1] == 0.0 else None
    if sep is not None:
        g, p2, grad, f = sep
        sums = (p2 * rs ** (2 * g + 1),)
        if bulk:
            gq = g * field.params.q
            sums += (grad * rs ** (2 * g), f / (gq + 2) * rs ** (gq + 2),
                     g * g * p2 * rs ** (2 * g - 1), g * p2 * rs ** (2 * g), f * rs ** (gq + 1))
    elif not bulk:
        sums = (rs * _DTH * np.sum(_sample_rings(field, x0, rs, _THETA) ** 2, axis=1),)
    else:
        # each row of rho: the panel rings of one annulus, then its circle
        inner = np.concatenate(([0.0], rs))[:-1]
        rho = np.column_stack((inner[:, None] + (rs - inner)[:, None] * _GL_T, rs))
        w = (rs - inner)[:, None] * _GL_W * rho[:, :-1] * _DTH
        ct, st = np.cos(_THETA), np.sin(_THETA)
        u2, g2, fb, unu2, uunu, fc = np.empty((6, len(rs)))
        for i, row in enumerate(rho):
            v, (gx, gy) = _sample_rings(field, x0, row, _THETA, grad=True)
            f = np.sum(eval_F(field.params, v), axis=1)
            u, unu = v[-1], gx[-1] * ct + gy[-1] * st
            g2[i] = np.dot(w[i], np.sum(gx * gx + gy * gy, axis=1)[:-1])
            fb[i], fc[i] = np.dot(w[i], f[:-1]), f[-1]
            u2[i], unu2[i], uunu[i] = np.sum(u * u), np.sum(unu * unu), np.sum(u * unu)
        c = rs * _DTH
        # rows: H, the disk integrals of |grad u|^2 and F (cumulative sums of
        # the annulus integrals), the circle integrals of u_nu^2, u u_nu and F
        sums = (c * u2, np.cumsum(g2), np.cumsum(fb), c * unu2, c * uunu, c * fc)
    H = sums[0]  # rel is ROUNDING or the bound over the circle's RMS; NaN where H = 0
    rel = (np.where(H > 0, ROUNDING, np.nan) if field.noise is None else np.divide(
        field.noise, np.sqrt(H / (2.0 * np.pi * rs)), out=np.full_like(H, np.nan), where=H > 0))
    return _Ladder(field, x0, rs, H, rel, *sums[1:], vertex=sep is not None and sep[0] > 0)


def eval_Nt(field: PlanarField, x0, r, t) -> float:
    """Frequency-like quotient r * D_t / H; needs H above its noise floor."""
    _gammas(t, "t")
    return _ladder(field, x0, [r]).N(t).item()


# each view: the optional arguments of ``trace`` it reads, and the view
_VIEWS = {
    "H": ((), lambda lad, gamma, t: lad.H),
    "D": (("t",), lambda lad, gamma, t: lad.D(t)),
    "N": (("t",), lambda lad, gamma, t: lad.N(t)),
    "W": (("gamma", "t"), lambda lad, gamma, t: lad.W(gamma, t)),
    "Phi": (("gamma",), lambda lad, gamma, t: lad.Phi(gamma)),
    "h1": ((), lambda lad, gamma, t: lad.h1()),
}


def trace(field, functional, x0, radii, gamma=None, t=None):
    """Sample one functional on a radius ladder; returns a FunctionalTrace."""
    if functional not in _VIEWS:
        raise ValueError(f"unknown functional {functional!r}")
    needs, view = _VIEWS[functional]
    given = {"gamma": gamma, "t": t}
    for name in needs:
        if given[name] is None:
            raise ValueError(f"trace of {functional!r} needs {name}")
        _gammas(given[name], name)
    lad = _ladder(field, x0, radii, bulk=functional != "H")
    # built past __post_init__, so the radii are not checked a second time
    tr = object.__new__(FunctionalTrace)
    tr._fill(lad.r, view(lad, gamma, t))
    return tr


def _merged_rows(lo, mid, hi):
    """The ladder of the rows r - step, r and r + step, and the index of each
    row's radii in it, as ``np.unique(..., return_inverse=True)`` gives them.
    Rows apart interleave, lo_1 < r_1 < hi_1 < lo_2 < ..., into the ladder
    itself; at consecutive radii within a ratio of 1.0002 they interleave or
    coincide, and ``np.unique`` merges them into their distinct radii."""
    rs = np.stack([lo, mid, hi], axis=1).ravel()
    if (rs[1:] > rs[:-1]).all():
        return rs, np.arange(rs.size).reshape(-1, 3).T
    rs, back = np.unique(np.stack([lo, mid, hi]), return_inverse=True)
    return rs, back.reshape(3, -1)


def check_derivative_identities(field, x0, radii, gamma, t):
    """Compare centered finite differences of H and W against their closed forms.

    Returns a report dict with the max relative residuals over the ladder:
    the H' identity  H' = ((N-1)/r) H + 2 D_q, relative to |H'|, and the W'
    expression built from circle and bulk integrals, relative to the size of
    W's terms over r (W' itself vanishes on a gamma-homogeneous field).
    """
    _gammas(gamma)
    _gammas(t, "t")
    radii = _ladder_radii(radii)
    step = 1e-4 * radii
    rs, (lo, mid, hi) = _merged_rows(radii - step, radii, radii + step)
    lad = _ladder(field, x0, rs)
    H, W = lad.H, lad.W(gamma, t)
    hp = (H[hi] - H[lo]) / (2 * step)
    rhs = (N_DIM - 1) / radii * H[mid] + 2.0 * lad.D(field.params.q)[mid]
    rhs_w = lad.w_prime(gamma, t)[mid]
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where H = 0 or W overflows
        wp = (W[hi] - W[lo]) / (2 * step)
        res_h, res_w = np.abs(hp - rhs) / np.abs(hp), np.abs(wp - rhs_w) * radii / lad.size(gamma, t)[mid]
    return {
        "H_prime_max_residual": float(res_h.max()),
        "W_prime_max_residual": float(res_w.max()),
        "radii": radii.tolist(),
        "gamma": gamma,
        "t": t,
    }


def monotonicity_scan(field, x0, gamma, radii):
    """Check that W(gamma, 2) is nondecreasing along the ladder.

    Only meaningful for gamma >= 2/(2-q); smaller gamma raises a
    PreconditionError, and a NaN or infinite one or a non-scalar one a
    ValueError.  Returns {"verdict": "monotone"} or the first
    violating radius, with the W values of the ladder under "values".  The
    verdict never overflows; a value W = r^-p (r^p W) whose factor r^-p
    overflows (large gamma at small r) reads +-inf, as does such a drop.
    """
    gamma = float(_gammas(gamma))
    gq = gamma_q(field.params)
    if gamma < gq - 1e-12:
        raise PreconditionError(f"gamma={gamma} below critical homogeneity {gq}")
    lad = _ladder(field, x0, radii)
    radii = lad.r
    # a drop counts when it exceeds what the two values may be off by
    # together.  W and its floor are r^-p times r^p W and its floor, so the
    # test is made on those times r_j^p: the factor s = (r_j / r_(j+1))^p on
    # the larger radius lies in (0, 1] and cannot overflow; the NaN floor
    # where H = 0 is never a drop
    p = lad.p(gamma)
    rpw, floor = lad.rp_W(gamma, 2.0), lad.rp_floor(gamma, 2.0)
    s = (radii[:-1] / radii[1:]) ** p
    drops = np.flatnonzero(rpw[:-1] - s * rpw[1:] > floor[:-1] + s * floor[1:])
    ws = _scaled(radii, p, rpw)[0]
    if len(drops):
        j = drops[0]
        with np.errstate(invalid="ignore"):  # inf - inf where both values overflow
            return {"verdict": "violation", "radius": float(radii[j + 1]),
                    "drop": float(ws[j] - ws[j + 1]), "values": ws.tolist()}
    return {"verdict": "monotone", "values": ws.tolist()}


def transition_exponent(field, x0, gammas, radii):
    """Bracket the exponent where W(gamma, 2; r -> 0) switches to -infinity.

    For each gamma on the grid the small-r trend of W is classified on the
    smallest ladder decade: on homogeneous data W behaves like C * r^p with
    p = 2 (order - gamma), so W is flagged as diverging negative when it is
    negative at r_min and log|W| has negative slope against log r (|W| grows
    as r shrinks).  The estimate is the midpoint of the bracketing pair;
    an ambiguous classification raises InconclusiveError with the bracket.
    A NaN or infinite gamma on the grid, or a grid that is not 1-d, raises
    ValueError.
    """
    gammas = np.sort(_gammas(gammas, ndim=1))
    if gammas.size == 0:
        raise ValueError("gammas is empty: the transition needs at least one gamma")
    lad = _ladder(field, x0, radii)
    radii = lad.r
    _require_nodal(lad)
    # W and its floor share the factor r^-(2 gamma), which overflows at large
    # gamma (0.02^-400) where the verdict is plain: classify r^(2 gamma) W,
    # whose log-log slope is 2 gamma more than W's
    g = gammas[:, None]
    rpW, floor = lad.rp_W(g, 2.0), lad.rp_floor(g, 2.0)
    decade = radii <= radii[0] * 10.0
    if np.count_nonzero(decade) < 3:
        decade = np.arange(len(radii)) < max(3, len(radii) // 3)
    slope = _power_fit(radii, np.abs(rpW), decade & (np.abs(rpW) > floor))[0]
    slope -= lad.p(gammas)
    # a NaN slope (fewer than two points above the floor) counts as bounded
    divergent = (rpW[:, 0] <= -floor[:, 0]) & (slope < -SLOPE_TOL)
    if not divergent.any():
        raise InconclusiveError("no divergent gamma on the grid", bracket=(gammas[-1], None))
    first = int(np.argmax(divergent))
    if first == 0:
        raise InconclusiveError("every gamma diverges", bracket=(None, gammas[0]))
    if not divergent[first:].all():
        bad = first + int(np.argmin(divergent[first:]))
        raise InconclusiveError(
            f"non-monotone classification near gamma={gammas[bad]}",
            bracket=(float(gammas[first - 1]), float(gammas[first])),
        )
    return float(0.5 * (gammas[first - 1] + gammas[first]))
