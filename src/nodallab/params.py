"""Problem parameters, derived exponents, and the two scalar recurrences.

Everything downstream (fields, functionals, the circle construction) consumes
a :class:`ProblemParams`.  The exponent ``gamma_q = 2/(2-q)`` is the critical
homogeneity of the sublinear equation

    -Delta u = lambda_+ (u^+)^(q-1) - lambda_- (u^-)^(q-1),

and ``beta_q`` is the largest integer strictly below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ProblemParams:
    """Coefficients of the sublinear equation.

    q            exponent in [1, 2)
    lambda_plus  coefficient of the positive phase, finite and > 0
    lambda_minus coefficient of the negative phase, finite and >= 0
    mu           finite overall scale of the nonlinearity (1 for the base equation,
                 0 turns the right hand side off, e.g. for harmonic test fields)
    """

    q: float = 1.0
    lambda_plus: float = 1.0
    lambda_minus: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every test
        if not (1.0 <= self.q < 2.0):
            raise ValueError(f"q must lie in [1, 2), got {self.q}")
        if not (0.0 < self.lambda_plus < math.inf):
            raise ValueError("lambda_plus must be finite and > 0")
        if not (0.0 <= self.lambda_minus < math.inf):
            raise ValueError("lambda_minus must be finite and >= 0")
        if not (0.0 <= self.mu < math.inf):
            raise ValueError("mu must be finite and >= 0")

    @property
    def coefficients(self) -> tuple[float, float]:
        """(mu * lambda_plus, mu * lambda_minus), the only way mu enters the equation."""
        return self.mu * self.lambda_plus, self.mu * self.lambda_minus


def gamma_q(params: ProblemParams) -> float:
    """Critical homogeneity 2/(2-q); equals 2 for q=1 and grows to infinity as q -> 2."""
    return 2.0 / (2.0 - params.q)


def beta_q(params: ProblemParams) -> int:
    """Largest positive integer strictly smaller than 2/(2-q)."""
    g = gamma_q(params)
    # the admissible orders below the threshold are 1..beta_q
    if _is_integer(g):
        return round(g) - 1
    return int(math.floor(g))


def k_bar(params: ProblemParams) -> int:
    """Minimum positive integer >= 2*gamma_q; constructions need wave count k > k_bar."""
    return int(math.ceil(2.0 * gamma_q(params) - 1e-12))


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) < 1e-12


def beta_k_sequence(params: ProblemParams, K: int) -> list[float]:
    """Iterate beta_1 = q+1, beta_k = (q-1)*beta_{k-1} + 2 - delta_k.

    The perturbations are chosen deterministically so the
    sequence is strictly increasing, never an integer, and stays below
    2/(2-q):  delta_k = 0 when the unperturbed value is non-integer, else the
    smaller of 2^(-k-1) and half the remaining gap to the limit.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    q = params.q
    limit = gamma_q(params)
    # beta_1 = q+1 never takes a delta: non-integer for q in (1,2), 2 for q=1
    seq = [q + 1.0]
    for k in range(2, K + 1):
        raw = (q - 1.0) * seq[-1] + 2.0
        if _is_integer(raw):
            gap = (2.0 - (2.0 - q) * seq[-1]) / 2.0
            delta = min(2.0 ** (-k - 1), gap) if gap > 0 else 0.0
        else:
            delta = 0.0
        val = raw - delta
        if q > 1.0:
            # double precision saturates near the limit; keep the value one
            # ulp below it so it never lands on the limit or an integer
            val = min(val, math.nextafter(limit, 0.0))
        seq.append(val)
    return seq


def sigma_k_sequence(params: ProblemParams, K: int) -> list[float]:
    """sigma_0 = 1, sigma_k = ((2 + q*sigma_{k-1})/2)/2 + sigma_{k-1}/2.

    Strictly increasing and converging to 2/(2-q); the returned list includes
    sigma_0, so it has K+1 entries.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    q = params.q
    seq = [1.0]
    for _ in range(K):
        s = seq[-1]
        seq.append(0.5 * ((2.0 + q * s) / 2.0) + 0.5 * s)
    return seq
