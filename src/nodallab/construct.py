"""Periodic angular profiles with 2k sign changes, built arc by arc.

A global homogeneous solution in the plane is u = r^g * phi(theta) with
g = 2/(2-q) and phi a 2*pi-periodic solution of

    -phi'' - g^2 phi = lambda_+ (phi^+)^(q-1) - lambda_- (phi^-)^(q-1).

On each arc of length below pi/g the signed problem has a unique one-signed
energy minimizer.  For a wave count k the period is T = 2*pi/k; the positive
arc lives on (0, t), the negative one on (t, T), and the matching function

    Psi(t) = phi_+'(t-) - phi_-'(t+)

changes sign across (0, T); its root t_bar, found by Brent's method on that
bracket, yields a C^1 glued profile which tiles k times around the circle.
Energy constancy along theta and the 1-d Hamiltonian are the independent
diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .fields import AngularProfile, HomogeneousField
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
    side: str
    energy: float
    slope_left: float
    slope_right: float

    @property
    def h(self) -> float:
        return self.length / (self.n + 1)

    def padded(self) -> np.ndarray:
        return np.concatenate(([0.0], self.values, [0.0]))

    def spline(self, offset=0.0, sign=1.0) -> CubicSpline:
        """Clamped cubic through the samples, shifted to start at `offset`."""
        theta = offset + self.h * np.arange(self.n + 2)
        return CubicSpline(
            theta, sign * self.padded(),
            bc_type=((1, sign * self.slope_left), (1, sign * self.slope_right)),
        )


def _arc_energy(phi_padded, h, gamma2, lam, q):
    dphi = np.diff(phi_padded) / h
    kinetic = 0.5 * h * np.sum(dphi * dphi)
    interior = phi_padded[1:-1]
    potential = h * np.sum(0.5 * gamma2 * interior**2 + lam / q * np.abs(interior) ** q)
    return kinetic - potential


def _solve_positive_arc(q, lam, gamma2, length, n, tol=1e-10, max_iter=200):
    """Interior samples of the positive Dirichlet minimizer on (0, length)."""
    h = length / (n + 1)
    band = np.zeros((3, n))
    band[0, 1:] = band[2, :-1] = -1.0 / h**2
    diag = 2.0 / h**2 - gamma2

    if q == 1.0:
        # the Euler-Lagrange system is linear: (-D2 - gamma^2) phi = lam
        band[1] = diag
        phi = solve_banded((1, 1), band, np.full(n, lam))
        if np.any(phi <= 0):
            raise SolverError("linear arc solve produced non-positive values")
        return phi

    # starting ray: the first Dirichlet eigenfunction psi; the discrete energy
    # along c*psi is c^2 A - c^q B, smallest at c = (qB/2A)^(1/(2-q))
    psi = np.sin(np.pi * h * np.arange(1, n + 1) / length)
    dpsi = np.diff(np.concatenate(([0.0], psi, [0.0]))) / h
    A = 0.5 * h * (np.sum(dpsi * dpsi) - gamma2 * np.sum(psi * psi))
    if A <= 0:
        raise SolverError(
            f"arc length {length} too close to pi/gamma_q for the grid (n={n}): "
            "discrete energy not coercive")
    B = h * lam / q * np.sum(psi**q)
    phi = (q * B / (2.0 * A)) ** (1.0 / (2.0 - q)) * psi

    def residual(p):
        lap = (np.concatenate((p[1:], [0.0])) - 2 * p + np.concatenate(([0.0], p[:-1]))) / h**2
        return -lap - gamma2 * p - lam * p ** (q - 1.0)

    scale = max(1.0, lam, gamma2 * float(np.max(phi)))
    trace = []
    res = residual(phi)
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        rnorm = float(np.max(np.abs(res)))
        # rounding floor of the divided second difference
        floor = 32.0 * eps * max(1.0, float(np.max(np.abs(phi)))) / h**2
        trace.append(rnorm)
        if rnorm < max(tol * scale, floor):
            return phi
        band[1] = diag - lam * (q - 1.0) * phi ** (q - 2.0)
        delta = solve_banded((1, 1), band, -res)
        # damped update with sign projection: iterates must stay positive
        alpha = 1.0
        for _ in range(60):
            cand = phi + alpha * delta
            if np.all(cand > 0):
                cres = residual(cand)
                if np.max(np.abs(cres)) < rnorm:
                    phi, res = cand, cres
                    break
            alpha *= 0.5
        else:
            if rnorm < 100.0 * floor:
                return phi
            raise SolverError(f"Newton stalled at residual {rnorm}", trace)
    raise SolverError(f"Newton did not converge in {max_iter} iterations", trace)


def minimize_arc(params: ProblemParams, t: float, T: float, side: str, n: int = 2048) -> ArcMinimizer:
    """One-signed arc minimizer: side "plus" on (0, t), side "minus" on (t, T).

    The minus arc is the negated plus solve with lambda_minus on an interval
    of length T - t (the equation is odd and autonomous).
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"unknown side {side!r}")
    if not (0.0 < t < T):
        raise ValueError(f"need 0 < t < T, got t={t}, T={T}")
    g = gamma_q(params)
    length = t if side == "plus" else T - t
    if length >= np.pi / g:
        raise ConstructionError(
            f"arc length {length} >= pi/gamma_q = {np.pi / g}: energy not coercive "
            "(wave count k too small)")
    lam = params.lambda_plus if side == "plus" else params.lambda_minus
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
    return ArcMinimizer(length=length, n=n, values=vals, side=side,
                        energy=energy, slope_left=sl, slope_right=sr)


def psi(params: ProblemParams, k: int, t: float, n: int = 2048) -> float:
    """Slope mismatch phi_+'(t-) - phi_-'(t+) at the interior matching point."""
    T = 2.0 * np.pi / k
    plus = minimize_arc(params, t, T, "plus", n)
    minus = minimize_arc(params, t, T, "minus", n)
    return plus.slope_right - minus.slope_left


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

    def to_field(self) -> HomogeneousField:
        return HomogeneousField(gamma_q(self.params), self.profile, self.params)

    def to_json(self, profile_path=None) -> str:
        doc = {
            "k": self.k,
            "T": self.T,
            "t_bar": self.t_bar,
            "psi_residual": self.psi_residual,
            "energy_drift": self.energy_drift,
            "ode_residual": self.ode_residual,
            "zero_count": self.zero_count,
            "q": self.params.q,
            "lambda_plus": self.params.lambda_plus,
            "lambda_minus": self.params.lambda_minus,
        }
        if profile_path is not None:
            doc["profile_path"] = str(profile_path)
        return json.dumps(doc, indent=2, sort_keys=True)


def count_sign_changes(values) -> int:
    """Sign transitions around the periodic sample array, skipping exact zeros."""
    signs = np.sign(np.asarray(values, dtype=float))
    signs = signs[signs != 0]
    if len(signs) == 0:
        return 0
    return int(np.sum(signs * np.roll(signs, -1) < 0))


def construct_uk(params: ProblemParams, k: int, n: int = 2048) -> MatchingResult:
    """Full pipeline: root of Psi by Brent's method on the bracket, glue the
    two arcs, tile k copies.

    Returns a MatchingResult whose profile has exactly 2k sign changes per
    period together with the residual diagnostics.
    """
    kb = k_bar(params)
    if k <= kb:
        raise ConstructionError(f"k must exceed k_bar={kb}, got k={k}")
    if params.lambda_minus <= 0:
        raise ConstructionError("the negative arc needs lambda_minus > 0")
    T = 2.0 * np.pi / k

    a, b = 1e-3 * T, (1.0 - 1e-3) * T
    fa, fb = psi(params, k, a, n), psi(params, k, b, n)
    if not (fa > 0 and fb < 0):
        raise ConstructionError(
            f"Psi has no sign change on the bracket: Psi({a})={fa}, Psi({b})={fb}; "
            "k may be too small or the arc solver failed")
    ends = {a: fa, b: fb}  # brentq starts by evaluating both bracket ends

    def mismatch(t):
        return ends[t] if t in ends else psi(params, k, t, n)

    t_bar = brentq(mismatch, a, b, xtol=1e-10 * T)

    plus = minimize_arc(params, t_bar, T, "plus", n)
    minus = minimize_arc(params, t_bar, T, "minus", n)
    sp_plus = plus.spline(offset=0.0)
    sp_minus = minus.spline(offset=t_bar)
    psi_res = abs(plus.slope_right - minus.slope_left)

    n_theta = k * max(64, int(np.ceil(4096.0 / k)))
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    local = np.mod(theta, T)
    on_plus = local <= t_bar
    values = np.where(on_plus, sp_plus(np.clip(local, 0.0, t_bar)),
                      sp_minus(np.clip(local, t_bar, T)))
    deriv = np.where(on_plus, sp_plus(np.clip(local, 0.0, t_bar), 1),
                     sp_minus(np.clip(local, t_bar, T), 1))
    profile = AngularProfile(values, deriv, params)

    g = gamma_q(params)
    scale = max(np.max(np.abs(values)) * g * g,
                params.lambda_plus, params.lambda_minus)
    second = np.where(on_plus, sp_plus(np.clip(local, 0.0, t_bar), 2),
                      sp_minus(np.clip(local, t_bar, T), 2))
    # evaluate the nonlinearity on the branch the node's arc lives on: at the
    # zeros the right hand side is only one-sidedly defined when q = 1
    qm1 = params.q - 1.0
    branch_plus = params.lambda_plus * (np.clip(values, 0.0, None) ** qm1 if qm1 > 0
                                        else np.ones_like(values))
    branch_minus = -params.lambda_minus * (np.clip(-values, 0.0, None) ** qm1 if qm1 > 0
                                           else np.ones_like(values))
    rhs = np.where(on_plus, branch_plus, branch_minus)
    ode_residual = float(np.max(np.abs(-second - g * g * values - rhs)) / scale)

    energy = energy_function(params, profile)
    emax, emin = float(np.max(energy.values)), float(np.min(energy.values))
    emean = float(np.mean(energy.values))
    energy_drift = (emax - emin) / abs(emean) if emean != 0 else 0.0

    zero_count = count_sign_changes(values)

    return MatchingResult(k=k, T=T, t_bar=t_bar, profile=profile,
                          psi_residual=psi_res, energy_drift=energy_drift,
                          ode_residual=ode_residual, zero_count=zero_count,
                          params=params)


def energy_function(params: ProblemParams, profile: AngularProfile):
    """Pointwise arc energy (phi')^2/2 + g^2 phi^2/2 + sum lambda (phi^pm)^q / q.

    Constant in theta exactly on solutions of the circle equation; the drift
    (max - min)/|mean| is the diagnostic.
    """
    from .functionals import FunctionalTrace

    g = gamma_q(params)
    phi = profile.values
    dphi = profile.derivative
    q = params.q
    e = (0.5 * dphi**2 + 0.5 * g * g * phi**2
         + params.lambda_plus / q * np.clip(phi, 0.0, None) ** q
         + params.lambda_minus / q * np.clip(-phi, 0.0, None) ** q)
    return FunctionalTrace(profile.theta, e, label="arc-energy")


# ---------------------------------------------------------------------------
# 1-d Hamiltonian dynamics
# ---------------------------------------------------------------------------


def hamiltonian(params: ProblemParams, w, wp):
    q = params.q
    w = np.asarray(w, dtype=float)
    wp = np.asarray(wp, dtype=float)
    return (0.5 * wp**2
            + params.mu * params.lambda_plus / q * np.clip(w, 0.0, None) ** q
            + params.mu * params.lambda_minus / q * np.clip(-w, 0.0, None) ** q)


def _rk4_step(w, v, h, c, e):
    """One classical RK4 step of w'' = c |w|^e on Python floats (e = 0: the
    constant force c).  The floating-point operations run in the textbook
    order, so a trajectory does not depend on which caller takes the step."""
    hh = 0.5 * h
    if e:
        k1v = c * abs(w) ** e
        k2w = v + hh * k1v
        k2v = c * abs(w + hh * v) ** e
        k3w = v + hh * k2v
        k3v = c * abs(w + hh * k2w) ** e
        k4w = v + h * k3v
        k4v = c * abs(w + h * k3w) ** e
    else:
        k1v = k2v = k3v = k4v = c
        k2w = k3w = v + hh * c
        k4w = v + h * c
    return (w + h / 6.0 * (v + 2 * k2w + 2 * k3w + k4w),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _graded_flight(w, v, h, c, e, cluster_start):
    """Integrate a flight of length h in the frozen region of coefficient c
    with geometric substeps clustering at the endpoint where w vanishes; the
    force is only Holder there for q in (1,2), so uniform steps lose accuracy."""
    m = 24
    sizes = (h * 2.0 ** -np.arange(1.0, m + 1)).tolist()
    sizes.append(sizes[-1])  # remainder closes the sum to h
    if cluster_start:
        sizes.reverse()
    for dh in sizes:
        w, v = _rk4_step(w, v, dh, c, e)
    return w, v


def _advance(params, w, v, h, forces, depth=0):
    """One step of size h split at sign changes of w.

    The force of the active region is frozen (its smooth extension) for the
    whole flight, the step lands exactly on w = 0 at a crossing, and the next
    region is chosen by the velocity there; each RK4 substep therefore sees a
    smooth right hand side.  `forces` is (c_plus, c_minus, e): the force of
    the region with sign s, extended smoothly across w = 0, is c_s |w|^e.
    """
    if h <= 0.0:
        return w, v
    if w != 0.0:
        s = 1.0 if w > 0.0 else -1.0
    elif v != 0.0:
        s = 1.0 if v > 0.0 else -1.0
    else:
        return w, v
    c_plus, c_minus, e = forces
    c = c_plus if s > 0.0 else c_minus
    graded = e != 0.0
    if graded and w != 0.0 and abs(w) < 8.0 * abs(v) * h and depth < 12:
        # starting close to the interface, where the force is only Holder:
        # subdivide so the singular neighborhood gets resolved
        for _ in range(16):
            w, v = _advance(params, w, v, h / 16.0, forces, depth + 1)
        return w, v
    if w == 0.0 and graded:
        wn, vn = _graded_flight(w, v, h, c, e, cluster_start=True)
    else:
        wn, vn = _rk4_step(w, v, h, c, e)
    if s * wn >= 0.0 or depth >= 16:
        return wn, vn

    def signed(alpha):
        return s * _rk4_step(w, v, alpha * h, c, e)[0]

    lo = 0.0 if w != 0.0 else 1e-9
    if signed(lo) <= 0.0:
        return wn, vn
    alpha = brentq(signed, lo, 1.0, xtol=1e-14)
    if graded:
        wm, vm = _graded_flight(w, v, alpha * h, c, e, cluster_start=False)
    else:
        wm, vm = _rk4_step(w, v, alpha * h, c, e)
    # land exactly on the interface with the energy of the located state
    en = 0.5 * vm * vm + float(hamiltonian(params, wm, 0.0))
    vm = math.copysign(math.sqrt(2.0 * en), vm)
    return _advance(params, 0.0, vm, (1.0 - alpha) * h, forces, depth + 1)


def hamiltonian_cauchy(params: ProblemParams, w0, w0prime, step, steps):
    """RK4 trajectory of the 1-d problem plus the relative energy drift.

    Steps that cross w = 0 are split at the crossing, so the piecewise-smooth
    forcing never degrades the order.  Returns (t, w, w', drift).  A steps
    count that is not a non-negative integer, or a step or start that is not
    finite, raises ValueError; steps = 0 returns the start point.
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
    forces = (-params.mu * params.lambda_plus, params.mu * params.lambda_minus,
              params.q - 1.0)
    c_plus, c_minus, e = forces
    graded = e != 0.0
    h = float(step)
    w, v = float(w0), float(w0prime)
    ws, vs = [w], [v]
    for _ in range(steps):
        # a step that starts away from the interface and stays on its side
        # is exactly _advance's unsplit step; every other step goes through it
        if w != 0.0 and not (graded and abs(w) < 8.0 * abs(v) * h):
            s = 1.0 if w > 0.0 else -1.0
            wn, vn = _rk4_step(w, v, h, c_plus if s > 0.0 else c_minus, e)
            if s * wn >= 0.0:
                w, v = wn, vn
                ws.append(w)
                vs.append(v)
                continue
        w, v = _advance(params, w, v, h, forces)
        ws.append(w)
        vs.append(v)
    w, v = np.array(ws), np.array(vs)
    t = step * np.arange(steps + 1)
    H = hamiltonian(params, w, v)
    drift = float((np.max(H) - np.min(H)) / max(abs(float(H[0])), 1e-12))
    if np.max(H) == np.min(H):
        drift = 0.0
    return t, w, v, drift
