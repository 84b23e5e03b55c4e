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

from .fields import PlanarField, _angles, _sample_rings
from .functionals import N_DIM, _ladder, _ladder_radii, _power_fit, _require_nodal, h1_norm
from .params import _is_integer, beta_q, gamma_q


class ZeroFieldError(ValueError):
    """H vanished along the whole ladder: the field is flat around x0."""


SNAP_TOL = 0.15
FIT_TOL = 0.05  # max log-amplitude misfit, relative, of a leading harmonic
N_FOURIER = 1024  # the angles of the Fourier circle, a power of two for the FFT


@dataclass
class OrderEstimate:
    raw_slope: float
    snapped: float | str  # an admissible order, or "inconclusive"
    r_window: tuple
    nondegeneracy_ratio: float
    h1_slope: float

    def to_dict(self):
        return {
            "raw_slope": self.raw_slope,
            "snapped": self.snapped,
            "window": list(self.r_window),
            "nondeg_ratio": self.nondegeneracy_ratio,
            "h1_slope": self.h1_slope,
        }


def admissible_orders(params) -> list[float]:
    return [float(d) for d in range(1, beta_q(params) + 1)] + [gamma_q(params)]


def estimate_order(field: PlanarField, x0, radii) -> OrderEstimate:
    """Regression order of the field at a nodal point x0 over a radius ladder."""
    radii = _ladder_radii(radii)
    if len(radii) < 8:
        raise ValueError("ladder needs at least 8 radii")
    _require_nodal(field, x0)

    def fit(rs):
        """Half the slope of H / r^(N-1) over the radii whose H clears its floor, those radii, the ladder."""
        lad = _ladder(field, x0, rs)
        if not np.any(lad.h_ok):
            raise ZeroFieldError("H below the noise floor on the whole ladder")
        return 0.5 * float(_power_fit(rs, lad.H / rs ** (N_DIM - 1), lad.h_ok)[0]), lad.h_ok, lad

    raw, kept, lad = fit(radii)
    cands = admissible_orders(field.params)
    best = min(cands, key=lambda c: abs(c - raw))
    if not abs(best - raw) <= SNAP_TOL:  # a NaN slope widens the window too
        # widen the window (double the decade span downward) before giving up;
        # the admissible orders cluster near 2/(2-q) as q approaches 2.
        span = radii[-1] / radii[0]
        # radii[-1] / span is radii[0]: unique keeps it once in the fit
        wide = np.unique(np.concatenate([radii, radii / span]))
        raw, kept, lad = fit(wide)
        best = min(cands, key=lambda c: abs(c - raw))
        radii = wide
    snapped = best if abs(best - raw) <= SNAP_TOL else "inconclusive"

    norms = lad.h1()
    h1_slope = float(_power_fit(radii, norms, kept)[0])

    if snapped != "inconclusive":
        ratio = float(np.min(norms[kept] ** 2 / radii[kept] ** (2.0 * best)))
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


def _fourier_rings(field, x0, radii, max_degree):
    """Cosine/sine coefficients of degrees 1..max_degree, one row per radius."""
    if not 1 <= max_degree <= N_FOURIER // 2 - 1:
        raise ValueError(f"max_degree must be in 1..{N_FOURIER // 2 - 1}, got {max_degree}")
    coeffs = np.fft.rfft(_sample_rings(field, x0, radii, _angles(N_FOURIER)), axis=1) / N_FOURIER
    return 2.0 * coeffs.real[:, 1: max_degree + 1], -2.0 * coeffs.imag[:, 1: max_degree + 1]


def leading_harmonic(field: PlanarField, x0, radii, max_degree):
    """Smallest degree d whose circle Fourier amplitude scales like c * r^d.

    Returns {"degree": d, "cos": a, "sin": b, ...} or None when no degree up
    to max_degree fits (the order is then the critical exponent); the result
    carries "gamma_q_ambiguous" when the critical exponent is an integer that
    the harmonic scan cannot separate from a genuine harmonic leading term.
    """
    radii = _ladder_radii(radii)
    _require_nodal(field, x0)
    a, b = _fourier_rings(field, x0, radii, max_degree)
    amp = np.hypot(a, b).T  # one row per degree
    keep = amp > 0
    slope, intercept = _power_fit(radii, amp, keep)
    logm = np.log(np.where(keep, amp, 1.0))  # 0 where dropped; misfit and mean skip it
    misfit = np.abs(logm - (slope[:, None] * np.log(radii) + intercept[:, None]))
    misfit = np.max(misfit, axis=1, where=keep, initial=0.0)
    mean = np.sum(logm, axis=1) / np.maximum(np.count_nonzero(keep, axis=1), 1)
    degrees = np.arange(1, max_degree + 1)
    # not a noise floor: rounding scales like r^gamma in every harmonic of a homogeneous field
    fits = ((np.max(amp, axis=1) >= 1e-8 * field.scale()) & (np.abs(slope - degrees) < 0.1)
            & (misfit / np.maximum(1.0, np.abs(mean)) < FIT_TOL))
    g = gamma_q(field.params)
    ambiguous = _is_integer(g)
    if fits.any():
        d, mid = int(np.argmax(fits)) + 1, len(radii) // 2
        return {
            "degree": d,
            "cos": float(a[mid, d - 1] / radii[mid] ** d),
            "sin": float(b[mid, d - 1] / radii[mid] ** d),
            "amplitude": float(np.exp(intercept[d - 1])),
            "gamma_q_ambiguous": ambiguous and abs(d - g) < 1e-9,
        }
    if ambiguous:
        return {"degree": None, "gamma_q_ambiguous": True}
    return None
