"""Quadrature evaluation of the boundary/bulk functionals and their checkers.

All integrals are over circles and disks centered at a point x0 of the unit
disk, computed in one pass (``_ladder``) over a radius ladder
r_1 < ... < r_m.  A field that is r^gamma phi(theta) about x0 = (0, 0) (a
``HomogeneousField`` or a harmonic monomial, which declare it through
``separated``) is integrated in closed form: every circle and disk integral
is an angular sum of phi and phi' (trapezoid rule, evaluated once per
ladder) times a power of r.  On 50 geometric radii in [0.01, 1], every
ladder row agreed with the Cartesian rings to 6.7e-16 of its largest
magnitude on u_k at q = 1 to 1.75 and on the monomials of degree 1 to 5;
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

The two-parameter rescaled energy

    W(gamma, t; r) = r^(-(N-2+2 gamma)) * D_t(r) - gamma r^(-(N-1+2 gamma)) * H(r)

is radius-constant exactly on gamma-homogeneous fields, nondecreasing for
t = 2 and gamma >= 2/(2-q), and its small-radius divergence locates the
vanishing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DomainError, PlanarField, _angles, _fmt, _sample_rings
from .params import ProblemParams, gamma_q

N_DIM = 2
N_THETA = 1024
_THETA = _angles(N_THETA)  # the angles of every ladder ring and Fourier circle
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
EPS_U = 1e-6  # |u(x0)| below EPS_U * scale makes x0 a nodal point
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


@dataclass
class FunctionalTrace:
    """A functional sampled on a strictly increasing radius ladder."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if self.radii.shape != self.values.shape:
            raise ValueError("radii and values must have equal length")

    def save_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,value\n")
            for r, v in zip(self.radii, self.values):
                fh.write(f"{_fmt(r)},{_fmt(v)}\n")


def eval_F(params: ProblemParams, s):
    """mu * (lambda_+ (s^+)^q + lambda_- (s^-)^q); nonnegative, F(0)=0."""
    s = np.asarray(s, dtype=float)
    # one power: |s|^q takes lambda_+ where s > 0 and lambda_- elsewhere
    lam = np.where(s > 0, params.lambda_plus, params.lambda_minus)
    return np.abs(s) ** params.q * lam * params.mu


def _require_nodal(field, x0):
    u0 = float(np.abs(field(x0[0], x0[1])))
    if u0 > EPS_U * field.scale():
        raise PreconditionError(f"|u(x0)| = {u0} too large; x0 is not a nodal point")


def h_floor(field: PlanarField, r):
    """Noise floor of H on the circle of radius r, relative to the field's scale."""
    s = field.scale()
    return 1e-14 * s * s * r ** (N_DIM - 1)


def _power_fit(r, v, keep):
    """Least-squares slope and intercept of log v against log r for each row
    of v, over the points where ``keep`` (shaped like v) holds; the others are
    dropped, and a row with fewer than two kept points gets a NaN slope."""
    x, y = np.where(keep, np.log(r), 0.0), np.log(np.where(keep, v, 1.0))  # 0 where dropped
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 on short rows
        n = np.count_nonzero(keep, axis=-1)
        xm, ym = np.sum(x, axis=-1) / n, np.sum(y, axis=-1) / n
        dx = np.where(keep, x - xm[..., None], 0.0)
        slope = np.sum(dx * (y - ym[..., None]), axis=-1) / np.sum(dx * dx, axis=-1)
    return slope, ym - slope * xm


@dataclass
class _Ladder:
    """Circle and disk integrals on a radius ladder, shaped like the radii.

    H, unu2, uunu and f_circle integrate u^2, u_nu^2, u u_nu and F(u) over
    the circle S_r; grad2 and f_bulk integrate |grad u|^2 and F(u) over the
    disk B_r.  A circles-only pass fills H alone.
    """

    field: PlanarField
    r: np.ndarray
    H: np.ndarray
    grad2: np.ndarray | None = None
    f_bulk: np.ndarray | None = None
    unu2: np.ndarray | None = None
    uunu: np.ndarray | None = None
    f_circle: np.ndarray | None = None

    def D(self, t):
        return self.grad2 - t / self.field.params.q * self.f_bulk

    def N(self, t):
        low = self.H <= h_floor(self.field, self.r)
        if np.any(low):
            r, H = self.r[low].flat[0], self.H[low].flat[0]
            raise DegenerateSphereError(f"H({r}) = {H} below floor; x0 is a high-order zero")
        return self.r * self.D(t) / self.H

    def W(self, gamma, t):
        r = self.r
        return r ** -(N_DIM - 2 + 2 * gamma) * self.D(t) - gamma * r ** -(N_DIM - 1 + 2 * gamma) * self.H

    def Phi(self, gamma):
        q = self.field.params.q
        return (2 * N_DIM - (N_DIM - 2) * q) / (q * self.r ** (N_DIM - 1 + 2 * gamma)) * self.f_bulk

    def h1(self):
        return np.sqrt(self.r ** -(N_DIM - 2) * self.grad2 + self.r ** -(N_DIM - 1) * self.H)

    def w_prime(self, gamma, t):
        r, q = self.r, self.field.params.q
        p = N_DIM - 2 + 2 * gamma
        # circle integral of (u_nu - gamma u / r)^2
        sq_term = self.unu2 - 2.0 * gamma / r * self.uunu + (gamma / r) ** 2 * self.H
        return (
            2.0 / r**p * sq_term
            + (2.0 - t) / (q * r**p) * self.f_circle
            + ((N_DIM - 2) * t - 2 * N_DIM + 2 * gamma * (t - q)) / (q * r ** (p + 1)) * self.f_bulk
        )


def _ladder(field: PlanarField, x0, radii, bulk=True) -> _Ladder:
    """One quadrature pass over the radii (any shape and order, repeats allowed).

    A field that is r^gamma phi(theta) about x0 = (0, 0) (``field.separated``)
    is integrated in closed form: phi and phi' are evaluated once on the
    angles, and each row is dtheta times an angular sum times a power of r,

        H:        sum phi^2                                * r^(2 gamma + 1)
        grad2:    sum (gamma^2 phi^2 + phi'^2) / (2 gamma) * r^(2 gamma)
        f_bulk:   sum F(phi) / (gamma q + 2)               * r^(gamma q + 2)
        unu2:     gamma^2 sum phi^2                        * r^(2 gamma - 1)
        uunu:     gamma sum phi^2                          * r^(2 gamma)
        f_circle: sum F(phi)                               * r^(gamma q + 1)

    (F(r^gamma phi) = r^(gamma q) F(phi) holds exactly for r > 0).  Every
    other field or centre is sampled on Cartesian rings by
    ``fields._sample_rings``: each distinct radius r_i costs one ring, all in
    one call without ``bulk``; with it, one call per annulus samples its
    GL_NODES panel rings and then the circle r_i.
    """
    x0 = np.asarray(x0, dtype=float)
    radii = np.asarray(radii, dtype=float)
    rs, back = np.unique(radii, return_inverse=True)
    if np.any(rs <= 0):
        raise DomainError(f"radius must be positive, got {rs[0]}")
    if np.hypot(x0[0], x0[1]) + rs.max(initial=0.0) > 1.0 + 1e-12:
        raise DomainError(f"ball B_{rs[-1]}({x0}) escapes the unit disk")
    dth = 2.0 * np.pi / N_THETA
    sep = field.separated(_THETA) if x0[0] == 0.0 and x0[1] == 0.0 else None
    if sep is not None:
        g, phi, dphi = sep
        p2 = dth * np.sum(phi * phi)
        sums = (p2 * rs ** (2 * g + 1),)
        if bulk:
            gq = g * field.params.q
            f = dth * np.sum(eval_F(field.params, phi))
            sums += (dth * np.sum(g * g * phi * phi + dphi * dphi) / (2 * g) * rs ** (2 * g),
                     f / (gq + 2) * rs ** (gq + 2), g * g * p2 * rs ** (2 * g - 1),
                     g * p2 * rs ** (2 * g), f * rs ** (gq + 1))
    elif not bulk:
        sums = (rs * dth * np.sum(_sample_rings(field, x0, rs, _THETA) ** 2, axis=1),)
    else:
        # each row of rho: the panel rings of one annulus, then its circle
        lo = np.concatenate(([0.0], rs))[:-1]
        rho = np.column_stack((lo[:, None] + (rs - lo)[:, None] * _GL_T, rs))
        w = (rs - lo)[:, None] * _GL_W * rho[:, :-1] * dth
        ct, st = np.cos(_THETA), np.sin(_THETA)
        u2, g2, fb, unu2, uunu, fc = np.empty((6, len(rs)))
        for i, row in enumerate(rho):
            v, (gx, gy) = _sample_rings(field, x0, row, _THETA, grad=True)
            f = np.sum(eval_F(field.params, v), axis=1)
            u, unu = v[-1], gx[-1] * ct + gy[-1] * st
            g2[i] = np.dot(w[i], np.sum(gx * gx + gy * gy, axis=1)[:-1])
            fb[i], fc[i] = np.dot(w[i], f[:-1]), f[-1]
            u2[i], unu2[i], uunu[i] = np.sum(u * u), np.sum(unu * unu), np.sum(u * unu)
        c = rs * dth
        # rows: H, the disk integrals of |grad u|^2 and F (cumulative sums of
        # the annulus integrals), the circle integrals of u_nu^2, u u_nu and F
        sums = (c * u2, np.cumsum(g2), np.cumsum(fb), c * unu2, c * uunu, c * fc)
    return _Ladder(field, radii, *(row[back].reshape(radii.shape) for row in sums))


def eval_H(field: PlanarField, x0, r) -> float:
    """Integral of u^2 over the circle of radius r around x0."""
    return float(_ladder(field, x0, r, bulk=False).H)


def eval_Dt(field: PlanarField, x0, r, t) -> float:
    """D_t = integral over B_r of |grad u|^2 - (t/q) F(u)."""
    return float(_ladder(field, x0, r).D(t))


def eval_Nt(field: PlanarField, x0, r, t) -> float:
    """Frequency-like quotient r * D_t / H; needs H above its noise floor."""
    return float(_ladder(field, x0, r).N(t))


def eval_W(field: PlanarField, x0, r, gamma, t) -> float:
    return float(_ladder(field, x0, r).W(gamma, t))


def w_vs_frequency_residual(field, x0, r, gamma, t):
    """Residual of W = H r^(-(N-1+2 gamma)) (N_t - gamma), relative."""
    lad = _ladder(field, x0, r)
    W = lad.W(gamma, t)
    rhs = lad.H * r ** -(N_DIM - 1 + 2 * gamma) * (lad.N(t) - gamma)
    return float(abs(W - rhs) / (1.0 + abs(W)))


def eval_Phi(field: PlanarField, x0, r, gamma) -> float:
    """Nonnegative bulk term (2N-(N-2)q)/(q r^(N-1+2 gamma)) * int_{B_r} F."""
    return float(_ladder(field, x0, r).Phi(gamma))


def h1_norm(field: PlanarField, x0, r) -> float:
    """Scale-invariant H^1 norm: sqrt(r^(2-N) int |grad u|^2 + r^(1-N) int_S u^2)."""
    return float(_ladder(field, x0, r).h1())


def w_prime_rhs(field, x0, r, gamma, t):
    """Closed-form derivative of W(gamma, t) with respect to r."""
    return float(_ladder(field, x0, r).w_prime(gamma, t))


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
    radii = np.asarray(radii, dtype=float)
    lad = _ladder(field, x0, radii, bulk=functional != "H")
    return FunctionalTrace(radii, view(lad, gamma, t))


def check_derivative_identities(field, x0, radii, gamma, t):
    """Compare centered finite differences of H and W against their closed forms.

    Returns a report dict with the max relative residuals over the ladder:
    the H' identity  H' = ((N-1)/r) H + 2 D_q,  and the W' expression built
    from circle and bulk integrals.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radius ladder must be strictly increasing")
    step = 1e-4 * radii
    # rows r - step, r, r + step, so H[1] is H(r) and H[2] - H[0] its difference
    lad = _ladder(field, x0, np.stack([radii - step, radii, radii + step]))
    H, W = lad.H, lad.W(gamma, t)
    hp = (H[2] - H[0]) / (2 * step)
    rhs = (N_DIM - 1) / radii * H[1] + 2.0 * lad.D(field.params.q)[1]
    wp = (W[2] - W[0]) / (2 * step)
    rhs_w = lad.w_prime(gamma, t)[1]
    return {
        "H_prime_max_residual": float(np.max(np.abs(hp - rhs) / (1.0 + np.abs(hp)))),
        "W_prime_max_residual": float(np.max(np.abs(wp - rhs_w) / (1.0 + np.abs(wp)))),
        "radii": radii.tolist(),
        "gamma": gamma,
        "t": t,
    }


def monotonicity_scan(field, x0, gamma, radii):
    """Check that W(gamma, 2) is nondecreasing along the ladder.

    Only meaningful for gamma >= 2/(2-q); smaller gamma raises a
    PreconditionError.  Returns {"verdict": "monotone"} or the first
    violating radius.
    """
    gq = gamma_q(field.params)
    if gamma < gq - 1e-12:
        raise PreconditionError(f"gamma={gamma} below critical homogeneity {gq}")
    radii = np.asarray(radii, dtype=float)
    ws = _ladder(field, x0, radii).W(gamma, 2.0)
    drops = np.flatnonzero(ws[1:] < ws[:-1] - 1e-6 * (1.0 + np.abs(ws[:-1])))
    if len(drops):
        j = drops[0]
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
    """
    x0 = np.asarray(x0, dtype=float)
    _require_nodal(field, x0)
    gammas = np.sort(np.asarray(gammas, dtype=float))
    if gammas.size == 0:
        raise ValueError("gammas is empty: the transition needs at least one gamma")
    radii = np.sort(np.asarray(radii, dtype=float))
    W = _ladder(field, x0, radii).W(gammas[:, None], 2.0)
    floor = 1e-10 * (1.0 + np.max(np.abs(W)))
    decade = radii <= radii[0] * 10.0
    if np.count_nonzero(decade) < 3:
        decade = np.arange(len(radii)) < max(3, len(radii) // 3)
    slope = _power_fit(radii, np.abs(W), decade & (np.abs(W) > floor))[0]
    # a NaN slope (fewer than two points above the floor) counts as bounded
    divergent = (W[:, 0] <= -floor) & (slope < -SLOPE_TOL)
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
