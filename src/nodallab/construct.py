"""Periodic angular profiles with 2k sign changes, built arc by arc.

A global homogeneous solution in the plane is u = r^g * phi(theta) with
g = 2/(2-q) and phi a 2*pi-periodic solution of

    -phi'' - g^2 phi = mu (lambda_+ (phi^+)^(q-1) - lambda_- (phi^-)^(q-1)).

On each arc of length below pi/g the signed problem has a unique one-signed
energy minimizer.  For a wave count k the period is T = 2*pi/k; the positive
arc lives on (0, t), the negative one on (t, T), and the matching function

    Psi(t) = phi_+'(t-) - phi_-'(t+)

changes sign across (0, T).  Its root t_bar yields a C^1 glued profile which
tiles k times around the circle.  The first integral of the arc equation gives
the exact matching point in closed form up to one quadrature (the time map,
:func:`time_map_t_bar`); Brent's method finds the grid's root on a narrow
bracket around it, widened ten-fold until Psi changes sign.  Energy constancy
along theta and the 1-d Hamiltonian are the independent diagnostics.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fields import AngularProfile, HomogeneousField, _angles
from .functionals import _GL_T, _GL_W, eval_F
from .nodal import count_sign_changes
from .params import ProblemParams, gamma_q, k_bar


class ConstructionError(RuntimeError):
    """Matching failed (no sign change of Psi, or k too small)."""


class SolverError(RuntimeError):
    """Newton iteration on an arc failed; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class ArcMinimizer:
    """One-signed minimizer of the arc energy on an interval of length `length`.

    `values` holds the n interior samples (the endpoints vanish); slopes are
    one-sided 3-point estimates at the two endpoints.
    """

    length: float
    n: int
    values: np.ndarray
    energy: float
    slope_left: float
    slope_right: float

    @property
    def h(self) -> float:
        return self.length / (self.n + 1)

    def padded(self) -> np.ndarray:
        return np.concatenate(([0.0], self.values, [0.0]))

    def spline(self, offset=0.0) -> ClampedCubic:
        """Clamped cubic through the samples, shifted to start at `offset`."""
        theta = offset + self.h * np.arange(self.n + 2)
        return ClampedCubic(theta, self.padded(), self.slope_left, self.slope_right)


class ClampedCubic:
    """C^2 cubic interpolant of (x, y) with prescribed end slopes.

    It takes the floating-point steps of scipy's
    ``CubicSpline(x, y, bc_type=((1, s0), (1, s1)))``, so its values are the
    same floats: the knot slopes solve the same tridiagonal system with the
    LAPACK routine that ``solve_banded`` calls (:func:`_solve_tridiagonal`),
    the coefficients are formed as ``CubicHermiteSpline`` forms them, and a
    call sums the local power basis in the order of ``PPoly`` evaluation, for
    the value and the first two derivatives together.  Points outside
    [x[0], x[-1]] take the end cubics.
    """

    def __init__(self, x, y, slope_left, slope_right):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(self.x)
        slope = np.diff(y) / dx
        # the first and last rows fix the end slopes
        diag = np.empty(len(self.x))
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        diag[0] = diag[-1] = 1.0
        b = np.empty(len(self.x))
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0], b[-1] = slope_left, slope_right
        s = _solve_tridiagonal(np.concatenate((dx[1:], [0.0])), diag,
                               np.concatenate(([0.0], dx[:-1])), b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        # c0 s^3 + c1 s^2 + c2 s + c3 on [x[i], x[i+1]], s = v - x[i]
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, v):
        """(value, first derivative, second derivative) at v."""
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, "right") - 1, 0, len(self.x) - 2)
        s = v - self.x[i]
        s2 = s * s
        c0, c1, c2, c3 = self.c[:, i]
        # the sums start from 0.0 and run from the constant term up, with the
        # power of s built by repeated products, as PPoly evaluates them
        return (0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s),
                0.0 + c2 + c1 * s * 2 + c0 * s2 * 3,
                0.0 + c1 * 2 + c0 * s * 6)


def _scipy_module(name, suffixes):
    """scipy's submodule ``scipy.<name>`` run from its file, the first of
    ``<name>`` plus one of ``suffixes`` in scipy's package directory.

    ``find_spec`` gives that directory without running scipy's package
    ``__init__``.  The module is not registered in ``sys.modules``; if scipy
    or the file is not found, or the file does not load, ImportError."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("scipy not found")
    base = os.path.join(spec.submodule_search_locations[0], *name.split("."))
    path = next((base + s for s in suffixes if os.path.isfile(base + s)), None)
    if path is None:
        raise ModuleNotFoundError(f"no file for scipy.{name}")
    spec = importlib.util.spec_from_file_location(f"scipy.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_dgtsv():
    """LAPACK ``dgtsv`` from scipy's compiled ``_flapack`` extension, loaded
    from its file, found by ``find_spec("scipy")``: neither ``scipy.linalg``
    nor scipy's package ``__init__`` is run for this one routine.  The module
    is registered under its own name, so a later ``import scipy.linalg``
    reuses it.  If scipy's directory or the file is not found, or the file
    does not load, the routine comes from ``scipy.linalg.lapack``, the same
    one."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        try:
            module = _scipy_module("linalg._flapack", importlib.machinery.EXTENSION_SUFFIXES)
        except ImportError:
            from scipy.linalg.lapack import dgtsv
            return dgtsv
        # an extension with single-phase init, as f2py builds them, is there
        # already; one with multi-phase init is not
        sys.modules[name] = module
    return sys.modules[name].dgtsv


dgtsv = _load_dgtsv()


def _solve_tridiagonal(lower, diag, upper, b):
    """Solution of the tridiagonal system with sub-, main and super-diagonal
    `lower`, `diag`, `upper` and right-hand side `b`.

    It calls LAPACK ``dgtsv``, the routine ``solve_banded((1, 1), ...)``
    dispatches to, with the same arrays, so the solution is the same floats,
    without scipy's argument handling around it.  The arguments are not
    overwritten.  The errors are ``solve_banded``'s: a non-finite entry
    raises ValueError, and a singular system raises LinAlgError.
    """
    for a in (lower, diag, upper, b):
        np.asarray_chkfinite(a)
    x, info = dgtsv(lower, diag, upper, b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _arc_energy(phi_padded, h, gamma2, lam, q):
    dphi = np.diff(phi_padded) / h
    kinetic = 0.5 * h * np.sum(dphi * dphi)
    interior = phi_padded[1:-1]
    potential = h * np.sum(0.5 * gamma2 * interior**2 + lam / q * np.abs(interior) ** q)
    return kinetic - potential


_NEWTON_TOL = 1e-10  # residual relative to the arc's force scale
_NEWTON_MAXITER = 200


def _solve_positive_arc(q, lam, gamma2, length, n):
    """Interior samples of the positive Dirichlet minimizer on (0, length)."""
    h = length / (n + 1)
    off = np.full(n - 1, -1.0 / h**2)
    diag = 2.0 / h**2 - gamma2
    not_coercive = (f"arc length {length} too close to pi/gamma_q for the grid (n={n}): "
                    "discrete energy not coercive")

    if q == 1.0:
        # the Euler-Lagrange system is linear: (-D2 - gamma^2) phi = lam
        try:
            phi = _solve_tridiagonal(off, np.full(n, diag), off, np.full(n, lam))
        except np.linalg.LinAlgError:
            raise SolverError(not_coercive) from None
        if np.any(phi <= 0):
            raise SolverError("linear arc solve produced non-positive values")
        return phi

    # starting ray: the first Dirichlet eigenfunction psi; the discrete energy
    # along c*psi is c^2 A - c^q B, smallest at c = (qB/2A)^(1/(2-q))
    psi = np.sin(np.pi * h * np.arange(1, n + 1) / length)
    dpsi = np.diff(np.concatenate(([0.0], psi, [0.0]))) / h
    A = 0.5 * h * (np.sum(dpsi * dpsi) - gamma2 * np.sum(psi * psi))
    if A <= 0:
        raise SolverError(not_coercive)
    B = h * lam / q * np.sum(psi**q)
    phi = (q * B / (2.0 * A)) ** (1.0 / (2.0 - q)) * psi

    def residual(p):
        lap = (np.concatenate((p[1:], [0.0])) - 2 * p + np.concatenate(([0.0], p[:-1]))) / h**2
        return -lap - gamma2 * p - lam * p ** (q - 1.0)

    amp = float(np.max(phi))
    if amp * amp < np.finfo(float).tiny:
        raise SolverError(f"arc amplitude {amp:.3g} at q = {q}: its energy (~ amplitude^2) "
                          "underflows double precision")
    # relative stop: near q = 2 the minimizer is tiny (max phi ~ 5e-10 at
    # q = 1.75, k = 17), so the residual is measured against its own force
    scale = max(lam * amp ** (q - 1.0), gamma2 * amp)
    trace = []
    res = residual(phi)
    eps = np.finfo(float).eps
    for _ in range(_NEWTON_MAXITER):
        rnorm = float(np.max(np.abs(res)))
        # rounding floor of the divided second difference
        floor = 32.0 * eps * float(np.max(np.abs(phi))) / h**2
        trace.append(rnorm)
        if rnorm < max(_NEWTON_TOL * scale, floor):
            return phi
        phi = phi + _solve_tridiagonal(off, diag - lam * (q - 1.0) * phi ** (q - 2.0), off, -res)
        # phi ** (q - 1) is real only on the positive cone
        if np.any(phi <= 0):
            raise SolverError("Newton step left the positive cone", trace)
        res = residual(phi)
    raise SolverError(f"Newton did not converge in {_NEWTON_MAXITER} iterations", trace)


# interior points of the default arc grid
ARC_N = 2048


def check_arc_grid(n: int) -> None:
    """An arc grid needs two interior points for its one-sided end slopes."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def minimize_arc(params: ProblemParams, t: float, T: float, side: str,
                 n: int = ARC_N) -> ArcMinimizer:
    """One-signed arc minimizer: side "plus" on (0, t), side "minus" on (t, T).

    The minus arc is the negated plus solve with mu * lambda_minus on an
    interval of length T - t (the equation is odd and autonomous).
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"unknown side {side!r}")
    check_arc_grid(n)
    if not (0.0 < t < T):
        raise ValueError(f"need 0 < t < T, got t={t}, T={T}")
    g = gamma_q(params)
    length = t if side == "plus" else T - t
    if length >= np.pi / g:
        raise ConstructionError(
            f"arc length {length} >= pi/gamma_q = {np.pi / g}: energy not coercive "
            "(wave count k too small)")
    lam = params.coefficients[0 if side == "plus" else 1]
    if lam <= 0:
        raise ValueError(f"side {side} needs a positive coefficient")

    vals = _solve_positive_arc(params.q, lam, g * g, length, n)
    h = length / (n + 1)
    sl = (4.0 * vals[0] - vals[1]) / (2.0 * h)
    sr = (-4.0 * vals[-1] + vals[-2]) / (2.0 * h)
    energy = _arc_energy(np.concatenate(([0.0], vals, [0.0])), h, g * g, lam, params.q)
    if energy >= 0:
        raise SolverError(
            f"arc energy {energy} not negative; increase the grid size (n={n})")
    if side == "minus":
        vals = -vals
        sl, sr = -sl, -sr
    return ArcMinimizer(length=length, n=n, values=vals, energy=energy,
                        slope_left=sl, slope_right=sr)


def psi(params: ProblemParams, k: int, t: float, n: int = ARC_N) -> float:
    """Slope mismatch phi_+'(t-) - phi_-'(t+) at the interior matching point."""
    T = 2.0 * np.pi / k
    plus = minimize_arc(params, t, T, "plus", n)
    minus = minimize_arc(params, t, T, "minus", n)
    return plus.slope_right - minus.slope_left


def check_k(params: ProblemParams, k: int) -> None:
    """A k-fold profile needs k > k_bar: shorter arcs keep the energy coercive."""
    if k <= k_bar(params):
        raise ConstructionError(f"k must exceed k_bar={k_bar(params)}, got k={k}")


@dataclass
class MatchingResult:
    k: int
    T: float
    t_bar: float
    profile: AngularProfile
    psi_residual: float
    energy_drift: float
    ode_residual: float
    zero_count: int
    params: ProblemParams
    psi_calls: int
    bracket: tuple[float, float]
    t_bar_exact: float

    def to_field(self) -> HomogeneousField:
        return HomogeneousField(gamma_q(self.params), self.profile, self.params)

    def to_dict(self) -> dict:
        """The construction record: every field but the profile, with the four
        coefficients of ``params`` in place of it."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("profile", "params")}
        doc.update(asdict(self.params))
        return doc


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # scipy's default rtol
_BRENT_MAXITER = 100  # scipy's default maxiter


def brentq(f, a, b, xtol):
    """Root of f on the bracket [a, b] by Brent's method.

    Inverse quadratic and secant steps, safeguarded by bisection (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).  This is
    a line-for-line port of scipy's ``optimize.brentq`` (``Zeros/brentq.c``)
    with its default rtol and maxiter, so it evaluates f at the same points
    and returns the same float.  A NaN value of f or a bracket without a sign
    change raises ValueError; no convergence in ``_BRENT_MAXITER`` steps
    raises RuntimeError.
    """
    xtol = float(xtol)

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    def negative(x):
        return math.copysign(1.0, x) < 0.0

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    # xcur is the best estimate, [xcur, xblk] brackets the root, xpre is the
    # previous iterate; scur and spre are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # in C the step is then inf or NaN, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


# the time map's theta rule on (0, pi/2): 12 panels halving toward theta = 0,
# where sin^q is not smooth, each with the GL_NODES Gauss-Legendre nodes
_TM_PANELS = 12


def _time_map_rule():
    """(weight * cos, cos^2, log sin) at the nodes of the time map's rule."""
    edges = np.concatenate(([0.0], 0.5 * np.pi * 0.5 ** np.arange(_TM_PANELS - 1.0, -1.0, -1.0)))
    width = np.diff(edges)
    theta = (edges[:-1, None] + width[:, None] * _GL_T).ravel()
    cos = np.cos(theta)
    log_sin = np.log(np.sin(theta))
    # toward pi/2, log1p keeps 1 - sin^q = -expm1(q log sin) accurate
    upper = theta > 0.25 * np.pi
    log_sin[upper] = 0.5 * np.log1p(-cos[upper] ** 2)
    return (width[:, None] * _GL_W).ravel() * cos, cos * cos, log_sin


_TM_WCOS, _TM_COS2, _TM_LOG_SIN = _time_map_rule()
_LOG2 = math.log(2.0)


def time_map_t_bar(params: ProblemParams, k: int) -> float:
    """Exact matching point of the k-fold profile, from the first integral.

    On an arc with coefficient lam = mu * lambda_(+-), phi'' + g^2 phi +
    lam phi^(q-1) = 0 keeps E = phi'^2/2 + g^2 phi^2/2 + lam phi^q/q.  With
    the amplitude m and rho = m^(2-q), the arc's half-length (its time map) is

        l(rho) = int_0^(pi/2) sqrt(rho) cos(th) dth
                 / sqrt(g^2 rho cos^2(th) + (2 lam/q)(1 - sin^q(th)))

    and E = m^q (g^2 rho/2 + lam/q).  The glued profile is C^1 when the two
    arcs have the same E (the end slopes are -+sqrt(2E)), and it has period
    T = 2 pi/k when 2 l_+ + 2 l_- = T; then t_bar = 2 l_+ (R. Schaaf,
    *Global Solution Branches of Two Point Boundary Value Problems*, LNM 1458,
    1990).  Both equations are solved in s = log rho, so no amplitude
    underflows: s_- from E_+ = E_- given s_+, then s_+ on [-600, 600].  Needs
    k > gamma_q and mu * lambda_(+-) > 0.
    """
    q = params.q
    g = gamma_q(params)
    e = q / (2.0 - q)  # log E = e s + log(g^2 rho/2 + lam/q)
    a = math.log(0.5 * g * g)
    g2cos2 = g * g * _TM_COS2
    one_minus_sin_q = -np.expm1(q * _TM_LOG_SIN)
    c_plus, c_minus = ((2.0 * x / q) * one_minus_sin_q for x in params.coefficients)
    b_plus, b_minus = (math.log(x / q) for x in params.coefficients)

    def half_length(c, s):
        if s >= 0.0:
            return float(_TM_WCOS @ (g2cos2 + c * math.exp(-s)) ** -0.5)
        rho = math.exp(s)
        return math.sqrt(rho) * float(_TM_WCOS @ (rho * g2cos2 + c) ** -0.5)

    def log_energy(s, b):
        return e * s + float(np.logaddexp(s + a, b))

    def s_minus(s_plus):
        y = log_energy(s_plus, b_plus)
        # logaddexp lies between the larger term and it plus log 2, which
        # brackets the root; the margin covers the rounding of y
        hi = min((y - a) / (e + 1.0), (y - b_minus) / e)
        lo = min((y - a - _LOG2) / (e + 1.0), (y - b_minus - _LOG2) / e)
        return brentq(lambda s: log_energy(s, b_minus) - y,
                      lo - 1e-9 * (1.0 + abs(lo)), hi + 1e-9 * (1.0 + abs(hi)), xtol=1e-15)

    T = 2.0 * math.pi / k

    def period_gap(s_plus):
        return 2.0 * half_length(c_plus, s_plus) + 2.0 * half_length(c_minus, s_minus(s_plus)) - T

    return 2.0 * half_length(c_plus, brentq(period_gap, -600.0, 600.0, xtol=1e-14))


def construct_uk(params: ProblemParams, k: int, n: int = ARC_N) -> MatchingResult:
    """Full pipeline: root of Psi by Brent's method on a bracket around the
    time map's exact root, glue the two arcs, tile k copies.

    The bracket is t_bar_exact -+ 1e-5 T, clipped to [1e-3 T, (1 - 1e-3) T];
    while Psi has the same sign at both ends its half-width grows ten-fold,
    and no sign change on the clipped full bracket raises ConstructionError.
    Returns a MatchingResult whose profile has exactly 2k sign changes per
    period together with the residual diagnostics, the number of Psi
    evaluations and the bracket Brent's method used.
    """
    check_k(params, k)
    lam_plus, lam_minus = params.coefficients
    if lam_minus <= 0:
        raise ConstructionError("the negative arc needs mu * lambda_minus > 0")
    T = 2.0 * np.pi / k

    t_exact = time_map_t_bar(params, k)
    seen = {}  # Psi at each point, so brentq's calls at the bracket ends are free

    def mismatch(t):
        if t not in seen:
            seen[t] = psi(params, k, t, n)
        return seen[t]

    lo, hi = 1e-3 * T, (1.0 - 1e-3) * T
    delta = 1e-5 * T
    while True:
        a, b = max(t_exact - delta, lo), min(t_exact + delta, hi)
        fa, fb = mismatch(a), mismatch(b)
        if fa > 0 and fb < 0:
            break
        if a == lo and b == hi:
            raise ConstructionError(
                f"Psi has no sign change on the bracket: Psi({a})={fa}, Psi({b})={fb}; "
                "k may be too small or the arc solver failed")
        delta *= 10.0

    t_bar = brentq(mismatch, a, b, xtol=1e-10 * T)

    plus = minimize_arc(params, t_bar, T, "plus", n)
    minus = minimize_arc(params, t_bar, T, "minus", n)

    n_theta = k * max(64, int(np.ceil(4096.0 / k)))
    theta = _angles(n_theta)
    local = np.mod(theta, T)
    on_plus = local <= t_bar
    # value, first and second derivative of each arc's cubic on its own samples
    cubic = np.empty((3, n_theta))
    cubic[:, on_plus] = plus.spline(0.0)(local[on_plus])
    cubic[:, ~on_plus] = minus.spline(t_bar)(local[~on_plus])
    values, deriv, second = cubic
    profile = AngularProfile(values, deriv, params)

    g = gamma_q(params)
    scale = max(np.max(np.abs(values)) * g * g, lam_plus, lam_minus)
    # evaluate the nonlinearity on the branch the node's arc lives on: at the
    # zeros the right hand side is only one-sidedly defined when q = 1, where
    # x ** 0.0 == 1.0 for every x, 0.0 included
    qm1 = params.q - 1.0
    rhs = np.where(on_plus, lam_plus * np.clip(values, 0.0, None) ** qm1,
                   -lam_minus * np.clip(-values, 0.0, None) ** qm1)
    ode_residual = float(np.max(np.abs(-second - g * g * values - rhs)) / scale)

    energy_drift = profile_energy_drift(params, profile)
    zero_count = count_sign_changes(values)

    return MatchingResult(k=k, T=T, t_bar=t_bar, profile=profile,
                          psi_residual=abs(seen[t_bar]), energy_drift=energy_drift,
                          ode_residual=ode_residual, zero_count=zero_count,
                          params=params, psi_calls=len(seen), bracket=(a, b),
                          t_bar_exact=t_exact)


def energy_function(params: ProblemParams, profile: AngularProfile):
    """Pointwise arc energy (phi')^2/2 + F(phi)/q + g^2 phi^2/2.

    Returned at the profile's sample angles 2 pi j / n.  Constant in theta
    exactly on solutions of the circle equation; :func:`profile_energy_drift`
    is the diagnostic.
    """
    g = gamma_q(params)
    phi = profile.values
    return hamiltonian(params, phi, profile.derivative) + 0.5 * g * g * phi**2


def profile_energy_drift(params: ProblemParams, profile: AngularProfile) -> float:
    """Relative drift (max - min)/|mean| of the arc energy; 0 when the mean is 0."""
    e = energy_function(params, profile)
    emean = float(np.mean(e))
    return (float(np.max(e)) - float(np.min(e))) / abs(emean) if emean != 0 else 0.0


# ---------------------------------------------------------------------------
# 1-d Hamiltonian dynamics
# ---------------------------------------------------------------------------


def hamiltonian(params: ProblemParams, w, wp):
    """First integral (w')^2/2 + F(w)/q of the 1-d problem, F the potential of
    :func:`~nodallab.functionals.eval_F`."""
    return 0.5 * np.asarray(wp, dtype=float) ** 2 + eval_F(params, w) / params.q


def _rk4_step(w, v, h, c, e):
    """One classical RK4 step of w'' = c |w|^e on Python floats.  At e = 0
    every force is c bit for bit, since x ** 0.0 is 1.0 for every float x.
    The floating-point operations run in the textbook order, so a trajectory
    does not depend on which caller takes the step; :func:`_steps` spells the
    same operations out inline."""
    hh = 0.5 * h
    k1v = c * abs(w) ** e
    k2w = v + hh * k1v
    k2v = c * abs(w + hh * v) ** e
    k3w = v + hh * k2v
    k3v = c * abs(w + hh * k2w) ** e
    k4w = v + h * k3v
    k4v = c * abs(w + h * k3w) ** e
    return (w + h / 6.0 * (v + 2.0 * k2w + 2.0 * k3w + k4w),
            v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _graded_flight(w, v, h, c, e, cluster_start):
    """Integrate a flight of length h in the frozen region of coefficient c
    with geometric substeps clustering at the endpoint where w vanishes; the
    force is only Holder there for q in (1,2), so uniform steps lose accuracy."""
    sizes = [h * 2.0 ** -k for k in range(1, 25)]  # exact powers of two
    sizes.append(sizes[-1])  # remainder closes the sum to h
    if cluster_start:
        sizes.reverse()
    for dh in sizes:
        w, v = _rk4_step(w, v, dh, c, e)
    return w, v


# Deepest subdivision level (q > 1 only): a step of size h that starts within
# 8|w'|h of w = 0 at a depth below this is split into 16 substeps.  Measured
# against a depth-12 run at a tenth of the step (step 2e-3, 1500 steps, q from
# 1.01 to 1.9, coefficients (1, 1, 1) and (2, 0.5, 3), starts (0.7, -0.3) and
# (1e-9, -0.4)), depth 6 keeps the energy drift within 1.004x and
# max |w - w_fine| within 1.016x of depth 12's; depth 5 reaches 1.014x /
# 1.028x and depth 4 4.8x / 3.1x, at q <= 1.1.  Depths 7 to 12 only cost
# time: with them the ten trajectories of `verify --suite hamiltonian
# --seed 11` take 164,512 RK4 steps over all depths, without them 132,256.
_SPLIT_DEPTH = 6


# A run of e = 0 steps (below) is computed in chunks of this many steps, each
# chunk twice as long as the one before, so a run that stops early discards
# at most 64 steps more than it took.
_RUN_CHUNK = 64


def _linear_run(w, v, h, c, s, n):
    """Up to n steps of w'' = c from (w, v), s w > 0, as arrays of w and w'.

    At e = 0 the inline RK4 step of :func:`_steps` adds the constant
    D = h/6 (((c + 2c) + 2c) + c) to w', and h/6 (((w' + 2k) + 2k) + (w' + h c)),
    k = w' + (h/2) c, to w.  So w' is the prefix sum of [w', D, D, ...] and w
    that of [w, increments...]; ``np.add.accumulate`` adds left to right, one
    term at a time, so the states are the scalar loop's floats.  The run stops
    before the first step whose landing has s w <= 0 or is NaN, which may be
    the first: the arrays hold the states after the steps taken.
    """
    hh = 0.5 * h
    h6 = h / 6.0
    dv = h6 * (c + 2.0 * c + 2.0 * c + c)
    kc, fc = hh * c, h * c
    wparts, vparts = [], []
    size = _RUN_CHUNK
    # the scalar loop overflows to inf without a word, and so does the run
    with np.errstate(all="ignore"):
        while n:
            m = min(size, n)
            vv = np.full(m + 1, dv)
            vv[0] = v
            np.add.accumulate(vv, out=vv)
            vk = vv[:-1]
            k = vk + kc
            ww = np.empty(m + 1)
            ww[0] = w
            np.multiply(h6, vk + 2.0 * k + 2.0 * k + (vk + fc), out=ww[1:])
            np.add.accumulate(ww, out=ww)
            stays = s * ww[1:] > 0.0
            if not stays.all():
                taken = int(stays.argmin())
                wparts.append(ww[1:taken + 1])
                vparts.append(vv[1:taken + 1])
                break
            wparts.append(ww[1:])
            vparts.append(vv[1:])
            w, v = ww[-1], vv[-1]
            n -= m
            size *= 2
    return np.concatenate(wparts), np.concatenate(vparts)


def _steps(params, w, v, h, n, forces, depth, parts=None):
    """n steps of size h at subdivision depth `depth`; returns the last state.

    Every step is decided here.  `forces` is (c_plus, c_minus, e): the force
    of the region with sign s, extended smoothly across w = 0, is c_s |w|^e,
    and it stays frozen for the whole step.  At e = 0 (q = 1) the steps from
    a state off w = 0 up to the next crossing are one :func:`_linear_run` of
    prefix sums; the step a run stops before, a take-off from w = 0 and a
    state at rest are taken alone, by this function with n = 1.  For q > 1 a
    step that starts within 8|w'|h of w = 0, where the force is only Holder,
    is taken as 16 substeps at depth + 1 while depth < _SPLIT_DEPTH.  A state
    at rest on w = 0 stays there; a step that takes off from w = 0 enters the
    region its velocity points to, by a graded flight for q > 1; any other
    step is :func:`_rk4_step` written out inline.  A step that lands on the
    other side of w = 0 goes to :func:`_cross`, unless it is the 16th nested
    crossing.  With `parts`, a pair of lists, the values of w and w' after
    the steps are appended to them in order, as lists of floats and arrays.
    """
    c_plus, c_minus, e = forces
    if not e and n > 1:
        while n:
            if w > 0.0 or w < 0.0:
                s = 1.0 if w > 0.0 else -1.0
                rw, rv = _linear_run(w, v, h, c_plus if s > 0.0 else c_minus, s, n)
                if len(rw):
                    if parts is not None:
                        parts[0].append(rw)
                        parts[1].append(rv)
                    w, v = float(rw[-1]), float(rv[-1])
                    n -= len(rw)
                    if not n:
                        break
            w, v = _steps(params, w, v, h, 1, forces, depth, parts)
            n -= 1
        return w, v

    ws = vs = None
    if parts is not None:
        ws, vs = [], []
        parts[0].append(ws)
        parts[1].append(vs)
    split = e != 0.0 and depth < _SPLIT_DEPTH
    hh = 0.5 * h
    h6 = h / 6.0
    for _ in range(n):
        if split and w != 0.0 and abs(w) < 8.0 * abs(v) * h:
            w, v = _steps(params, w, v, h / 16.0, 16, forces, depth + 1)
        elif w != 0.0 or v != 0.0:
            s = 1.0 if (w if w != 0.0 else v) > 0.0 else -1.0
            c = c_plus if s > 0.0 else c_minus
            if e and w == 0.0:
                wn, vn = _graded_flight(w, v, h, c, e, cluster_start=True)
            else:
                k1v = c * abs(w) ** e
                k2w = v + hh * k1v
                k2v = c * abs(w + hh * v) ** e
                k3w = v + hh * k2v
                k3v = c * abs(w + hh * k2w) ** e
                k4w = v + h * k3v
                k4v = c * abs(w + h * k3w) ** e
                wn = w + h6 * (v + 2.0 * k2w + 2.0 * k3w + k4w)
                vn = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if s * wn >= 0.0 or depth >= 16:
                w, v = wn, vn
            else:
                w, v = _cross(params, w, v, h, s, c, forces, depth, (wn, vn))
        if ws is not None:
            ws.append(w)
            vs.append(v)
    return w, v


def _cross(params, w, v, h, s, c, forces, depth, landing):
    """The step of size h from (w, v) in the region of sign s and force
    coefficient c, which :func:`_steps` found to land at `landing` across
    w = 0: fly to the crossing, land exactly on w = 0 with the energy of the
    located state, and take the rest of the step at depth + 1, in the region
    the velocity there points to.  A take-off from w = 0 whose plain RK4
    flight has no sign change between 1e-9 and 1 of the step keeps `landing`.
    """
    e = forces[2]

    def signed(alpha):
        return s * _rk4_step(w, v, alpha * h, c, e)[0]

    lo = 0.0 if w != 0.0 else 1e-9
    if signed(lo) <= 0.0 or signed(1.0) > 0.0:
        return landing
    alpha = brentq(signed, lo, 1.0, xtol=1e-14)
    if e:
        wm, vm = _graded_flight(w, v, alpha * h, c, e, cluster_start=False)
    else:
        wm, vm = _rk4_step(w, v, alpha * h, c, e)
    en = 0.5 * vm * vm + float(hamiltonian(params, wm, 0.0))
    vm = math.copysign(math.sqrt(2.0 * en), vm)
    return _steps(params, 0.0, vm, (1.0 - alpha) * h, 1, forces, depth + 1)


def hamiltonian_cauchy(params: ProblemParams, w0, w0prime, step, steps):
    """RK4 trajectory of the 1-d problem plus the relative energy drift.

    Steps that cross w = 0 are split at the crossing, so the piecewise-smooth
    forcing never degrades the order.  :func:`_steps` hands back the states
    as chunks, lists of floats from single steps and, at q = 1, the arrays of
    its prefix-sum runs, the same floats as one step at a time; they are
    joined once at the end.  Returns (t, w, w', drift), the drift
    being (max H - min H) / max(|H(0)|, 1e-12), so NaN when H overflows.  A
    steps count that is not a non-negative integer, or a step or start that is
    not finite, raises ValueError; steps = 0 returns the start point.
    """
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(w0) and math.isfinite(w0prime)):
        raise ValueError(f"initial state must be finite, got ({w0}, {w0prime})")
    # c_s = -mu s lambda_s and e = q - 1, taken once for the whole trajectory
    forces = (-params.coefficients[0], params.coefficients[1], params.q - 1.0)
    w0, v0 = float(w0), float(w0prime)
    parts = ([[w0]], [[v0]])
    _steps(params, w0, v0, float(step), steps, forces, 0, parts)
    w, v = np.concatenate(parts[0]), np.concatenate(parts[1])
    t = step * np.arange(steps + 1)
    H = hamiltonian(params, w, v)
    drift = float((np.max(H) - np.min(H)) / max(abs(float(H[0])), 1e-12))
    return t, w, v, drift
