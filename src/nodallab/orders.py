"""Vanishing-order estimation.

The order at a nodal point is read off the growth of the circle average: the
regression slope of 0.5*log(H(r)/r^(N-1)) against log r over a dyadic ladder.
The admissible orders are the integers 1..beta_q together with the critical
value 2/(2-q), or, for Laplace's equation (mu lambda_+ = mu lambda_- = 0),
the integers 1..2 beta_q + 8; the raw slope is snapped to the nearest
admissible value when close enough, with the H^1-norm variant as a
cross-check and a nondegeneracy ratio along the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PlanarField
from .functionals import N_DIM, _ladder, _ladder_radii, _power_fit, _require_nodal
from .params import beta_q, gamma_q


class ZeroFieldError(ValueError):
    """H vanished along the whole ladder: the field is flat around x0."""


SNAP_TOL = 0.15


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
    """The orders a nodal point of a solution can have: 1 ... beta_q and gamma_q.

    With both coefficients mu lambda_+ and mu lambda_- zero the equation is
    Laplace's, where every positive integer is an order and gamma_q is none:
    the integers 1 ... 2 beta_q + 8 (10 at q = 1, 14 at q = 1.5).  The cap
    keeps a raw slope far above every order the ladder is asked to resolve
    "inconclusive" rather than snapped.
    """
    b = beta_q(params)
    if params.coefficients == (0.0, 0.0):
        return [float(d) for d in range(1, 2 * b + 9)]
    return [float(d) for d in range(1, b + 1)] + [gamma_q(params)]


def estimate_order(field: PlanarField, x0, radii) -> OrderEstimate:
    """Regression order of the field at a nodal point x0 over a radius ladder."""
    radii = _ladder_radii(radii)
    if len(radii) < 8:
        raise ValueError("ladder needs at least 8 radii")

    def fit(lad):
        """Half the slope of H / r^(N-1) over the radii whose H clears its
        floor, those radii, and the admissible order nearest the slope if it
        is within SNAP_TOL, else "inconclusive", also for a NaN slope."""
        if not lad.h_ok.any():
            raise ZeroFieldError("H below the noise floor on the whole ladder")
        raw = 0.5 * float(_power_fit(lad.r, lad.H / lad.r ** (N_DIM - 1), lad.h_ok)[0])
        best = min(cands, key=lambda c: abs(c - raw))
        return raw, lad.h_ok, best if abs(best - raw) <= SNAP_TOL else "inconclusive"

    lad = _ladder(field, x0, radii)
    _require_nodal(lad)
    cands = admissible_orders(field.params)
    raw, kept, snapped = fit(lad)
    if snapped == "inconclusive":
        # widen the window (double the decade span downward) before giving up;
        # the admissible orders cluster near 2/(2-q) as q approaches 2.
        span = radii[-1] / radii[0]
        # radii[-1] / span may miss radii[0] by an ulp, and the fit would
        # count that radius twice: the lower decade stops below it
        wide = np.unique(np.concatenate([radii[:-1] / span, radii]))
        lad = _ladder(field, x0, wide)
        raw, kept, snapped = fit(lad)
        radii = wide

    norms = lad.h1()
    h1_slope = float(_power_fit(radii, norms, kept)[0])

    if snapped != "inconclusive":
        ratio = float((norms[kept] ** 2 / radii[kept] ** (2.0 * snapped)).min())
    else:
        ratio = float("nan")
    return OrderEstimate(raw_slope=raw, snapped=snapped,
                         r_window=(float(radii[0]), float(radii[-1])),
                         nondegeneracy_ratio=ratio, h1_slope=h1_slope)
