"""Vanishing-order estimation, blow-up rescaling, leading-harmonic extraction.

The order at a nodal point is read off the growth of the circle average: the
regression slope of 0.5*log(H(r)/r^(N-1)) against log r over a dyadic ladder.
The admissible orders are the integers 1..beta_q together with the critical
value 2/(2-q); the raw slope is snapped to the nearest admissible value when
close enough, with the H^1-norm variant as a cross-check and a nondegeneracy
ratio along the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PlanarField, _sample_rings
from .functionals import N_DIM, N_THETA, _ladder, _require_nodal, h1_norm, h_floor
from .params import beta_q, gamma_q


class ZeroFieldError(ValueError):
    """H vanished along the whole ladder: the field is flat around x0."""


SNAP_TOL = 0.15
FIT_TOL = 0.05  # max log-amplitude misfit, relative, of a leading harmonic


@dataclass
class OrderEstimate:
    raw_slope: float
    snapped: float | str  # an admissible order, or "inconclusive"
    r_window: tuple
    nondegeneracy_ratio: float
    h1_slope: float
    fourier: dict | None = None

    def to_dict(self):
        return {
            "raw_slope": self.raw_slope,
            "snapped": self.snapped,
            "window": list(self.r_window),
            "nondeg_ratio": self.nondegeneracy_ratio,
            "h1_slope": self.h1_slope,
            "fourier": self.fourier,
        }


def admissible_orders(params) -> list[float]:
    return [float(d) for d in range(1, beta_q(params) + 1)] + [gamma_q(params)]


def estimate_order(field: PlanarField, x0, radii) -> OrderEstimate:
    """Regression order of the field at a nodal point x0 over a radius ladder."""
    x0 = np.asarray(x0, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(radii) < 8:
        raise ValueError("ladder needs at least 8 radii")
    _require_nodal(field, x0)

    def fit(rs):
        hs = _ladder(field, x0, rs, bulk=False).H
        ok = hs > h_floor(field, rs)
        if not np.any(ok):
            raise ZeroFieldError("H below the noise floor on the whole ladder")
        logr = np.log(rs[ok])
        y = 0.5 * np.log(hs[ok] / rs[ok] ** (N_DIM - 1))
        return float(np.polyfit(logr, y, 1)[0])

    raw = fit(radii)
    cands = admissible_orders(field.params)
    best = min(cands, key=lambda c: abs(c - raw))
    if abs(best - raw) > SNAP_TOL:
        # widen the window (double the decade span downward) before giving up;
        # the admissible orders cluster near 2/(2-q) as q approaches 2.
        span = radii[-1] / radii[0]
        wide = np.sort(np.concatenate([radii, radii / span]))
        raw = fit(wide)
        best = min(cands, key=lambda c: abs(c - raw))
        radii = wide
    snapped = best if abs(best - raw) <= SNAP_TOL else "inconclusive"

    norms = _ladder(field, x0, radii).h1()
    h1_slope = float(np.polyfit(np.log(radii), np.log(norms + 1e-300), 1)[0])

    if snapped != "inconclusive":
        ratio = float(np.min(norms**2 / radii ** (2.0 * best)))
    else:
        ratio = float("nan")
    return OrderEstimate(raw_slope=raw, snapped=snapped,
                         r_window=(float(radii[0]), float(radii[-1])),
                         nondegeneracy_ratio=ratio, h1_slope=h1_slope)


class RescaledField(PlanarField):
    """u(x0 + r x) / c with the gradient scaled accordingly."""

    def __init__(self, base: PlanarField, x0, r, c):
        self.base = base
        self.x0 = np.asarray(x0, dtype=float)
        self.r = float(r)
        self.c = float(c)
        self.params = base.params

    def _base_points(self, x, y):
        return self.x0[0] + self.r * np.asarray(x), self.x0[1] + self.r * np.asarray(y)

    def __call__(self, x, y):
        return self.base(*self._base_points(x, y)) / self.c

    def value_and_grad(self, x, y):
        v, (gx, gy) = self.base.value_and_grad(*self._base_points(x, y))
        return v / self.c, (self.r / self.c * gx, self.r / self.c * gy)


def blow_up(field: PlanarField, x0, r) -> RescaledField:
    """Rescaled field v_r with unit scale-invariant H^1 norm on the unit ball."""
    c = h1_norm(field, x0, r)
    if c <= 0 or not np.isfinite(c):
        raise ZeroFieldError(f"vanishing norm at radius {r}")
    return RescaledField(field, x0, r, c)


def fourier_on_circle(field, x0, r, max_degree):
    """Cosine/sine coefficients of u restricted to the circle of radius r."""
    th = 2.0 * np.pi * np.arange(N_THETA) / N_THETA
    v = _sample_rings(field, x0, [r], th)[0]
    coeffs = np.fft.rfft(v) / N_THETA
    a = 2.0 * coeffs.real[1: max_degree + 1]
    b = -2.0 * coeffs.imag[1: max_degree + 1]
    return a, b


def leading_harmonic(field: PlanarField, x0, radii, max_degree):
    """Smallest degree d whose circle Fourier amplitude scales like c * r^d.

    Returns {"degree": d, "cos": a, "sin": b, ...} or None when no degree up
    to max_degree fits (the order is then the critical exponent); the result
    carries "gamma_q_ambiguous" when the critical exponent is an integer that
    the harmonic scan cannot separate from a genuine harmonic leading term.
    """
    x0 = np.asarray(x0, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    _require_nodal(field, x0)
    amp = np.empty((len(radii), max_degree))
    ab = []
    for i, r in enumerate(radii):
        a, b = fourier_on_circle(field, x0, r, max_degree)
        amp[i] = np.hypot(a, b)
        ab.append((a, b))
    noise = 1e-8 * field.scale()
    g = gamma_q(field.params)
    ambiguous = abs(g - round(g)) < 1e-12
    for d in range(1, max_degree + 1):
        m = amp[:, d - 1]
        if np.max(m) < noise:
            continue
        logr = np.log(radii)
        logm = np.log(m + 1e-300)
        slope, intercept = np.polyfit(logr, logm, 1)
        fit = slope * logr + intercept
        rel_err = float(np.max(np.abs(logm - fit))) / max(1.0, abs(float(np.mean(logm))))
        if abs(slope - d) < 0.1 and rel_err < FIT_TOL:
            a_mid, b_mid = ab[len(radii) // 2]
            c = float(np.exp(intercept))
            return {
                "degree": d,
                "cos": float(a_mid[d - 1] / radii[len(radii) // 2] ** d),
                "sin": float(b_mid[d - 1] / radii[len(radii) // 2] ** d),
                "amplitude": c,
                "gamma_q_ambiguous": ambiguous and abs(d - g) < 1e-9,
            }
    if ambiguous:
        return {"degree": None, "gamma_q_ambiguous": True}
    return None
