import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError, solve_banded
from scipy.optimize import brentq

from nodallab import construct
from nodallab.construct import (
    ClampedCubic, ConstructionError, SolverError, construct_uk, count_sign_changes,
    hamiltonian, hamiltonian_cauchy, minimize_arc, profile_energy_drift, psi, time_map_t_bar,
)
from nodallab.functionals import eval_Nt
from nodallab.params import ProblemParams, gamma_q, k_bar


def q1_arc_oracle(lam, t, theta):
    # closed form of the positive arc for q=1, gamma=2:
    # phi'' = -4 phi - lam with phi(0) = phi(t) = 0
    g = 2.0
    return lam / g**2 * (np.cos(g * (theta - t / 2)) / np.cos(g * t / 2) - 1.0)


def test_arc_matches_q1_closed_form():
    p = ProblemParams(q=1.0, lambda_plus=3.0)
    t = 0.7
    arc = minimize_arc(p, t, t + 0.1, "plus", 2048)
    theta = arc.h * np.arange(1, arc.n + 1)
    want = q1_arc_oracle(3.0, t, theta)
    assert np.max(np.abs(arc.values - want)) < 1e-6
    # endpoint slopes: +-(lam/g) tan(g t / 2)
    slope = 3.0 / 2.0 * np.tan(1.0 * t)
    assert abs(arc.slope_left - slope) < 1e-5
    assert abs(arc.slope_right + slope) < 1e-5
    assert arc.energy < 0.0


def test_minus_arc_is_negated_plus():
    p = ProblemParams(q=1.5, lambda_plus=2.0, lambda_minus=2.0)
    plus = minimize_arc(p, 0.3, 0.6, "plus", 512)
    minus = minimize_arc(p, 0.2, 0.5, "minus", 512)
    assert np.max(np.abs(minus.values + plus.values)) < 1e-12
    assert np.all(plus.values > 0)
    assert np.all(minus.values < 0)


def test_arc_validation():
    p = ProblemParams(q=1.0)
    with pytest.raises(ValueError):
        minimize_arc(p, 0.2, 0.5, "sideways", 256)
    with pytest.raises(ConstructionError):
        # arc length at the coercivity threshold pi/gamma_q
        minimize_arc(p, np.pi / 2.0 + 0.05, np.pi / 2.0 + 0.1, "plus", 256)
    # just below pi/gamma_q a coarse grid's Rayleigh quotient is below gamma^2
    p = ProblemParams(q=1.5)
    t = 0.999 * np.pi / gamma_q(p)
    with pytest.raises(SolverError):
        minimize_arc(p, t, t + 0.1, "plus", 16)
    # at n = 2 the discrete -D2 - 4 is indefinite on lengths in (1.5, pi/2),
    # below the continuous threshold pi/2: the q = 1 linear solve turns negative
    with pytest.raises(SolverError, match="^linear arc solve produced non-positive values$"):
        minimize_arc(ProblemParams(q=1.0), 1.55, 3.0, "plus", 2)
    for t, T in ((0.0, 0.5), (0.5, 0.5), (-0.1, 0.5)):
        with pytest.raises(ValueError, match="^need 0 < t < T"):
            minimize_arc(p, t, T, "plus", 256)
    # mu * lambda_minus = 0: the minus arc has no force
    with pytest.raises(ValueError, match="^side minus needs a positive coefficient$"):
        minimize_arc(ProblemParams(q=1.5, lambda_minus=0.0), 0.3, 0.6, "minus", 256)
    with pytest.raises(ValueError, match="^side plus needs a positive coefficient$"):
        minimize_arc(ProblemParams(q=1.5, mu=0.0), 0.3, 0.6, "plus", 256)


def test_minimize_arc_energy_not_negative():
    # one ulp below 5 sin(pi / 10), the length at which the smallest
    # eigenvalue of the n = 4 grid's -D2 reaches gamma^2 = 4: the q = 1 linear
    # solve is positive but huge, and its energy rounds to 0
    with pytest.raises(SolverError, match=r"^arc energy 0\.0 not negative; "
                                          r"increase the grid size \(n=4\)$"):
        minimize_arc(ProblemParams(q=1.0), 1.5450849718747368, 3.0, "plus", 4)


def test_minimize_arc_singular_linear_system():
    # at n = 2 and length 1.5 the q = 1 system -D2 - 4 is [[4, -4], [-4, 4]],
    # singular: a SolverError, which the CLI reports, not a bare LinAlgError
    with pytest.raises(SolverError, match=r"^arc length 1\.5 too close to pi/gamma_q for the grid "
                                          r"\(n=2\): discrete energy not coercive$"):
        minimize_arc(ProblemParams(q=1.0), 1.5, 3.0, "plus", 2)


def test_arc_smallness_scaling():
    # squared H1 norm of the positive arc scales like t^((2+q)/(2-q))
    p = ProblemParams(q=1.0)
    ts = np.geomspace(0.05, 0.5, 10)
    norms = []
    for t in ts:
        arc = minimize_arc(p, t, t + 0.1, "plus", 512)
        dphi = np.diff(arc.padded()) / arc.h
        norms.append(arc.h * np.sum(dphi**2))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert abs(slope - 3.0) < 0.1  # (2+q)/(2-q) = 3 at q=1


def test_psi_signs():
    p = ProblemParams(q=1.0, lambda_minus=4.0)
    T = 2 * np.pi / 5
    assert psi(p, 5, 0.05 * T, 512) > 0
    assert psi(p, 5, 0.95 * T, 512) < 0


def test_construct_symmetric_matching():
    p = ProblemParams(q=1.0)
    mr = construct_uk(p, 5)
    assert abs(mr.t_bar - mr.T / 2) < 1e-6
    assert mr.zero_count == 10
    assert mr.energy_drift < 1e-6
    assert abs(mr.psi_residual) < 1e-6


def test_construct_asymmetric_matching_oracle():
    # q=1, gamma=2: the matching point solves
    # lambda_+ tan(t) = lambda_- tan(T - t) in closed form
    lam_m = 4.0
    p = ProblemParams(q=1.0, lambda_minus=lam_m)
    mr = construct_uk(p, 5)
    T = mr.T
    t_exact = brentq(lambda t: np.tan(t) - lam_m * np.tan(T - t),
                     1e-6, T - 1e-6)
    assert abs(mr.t_bar - t_exact) < 1e-6
    # positive arcs get shorter when the negative phase is stronger
    assert mr.t_bar > T / 2
    # the reported residual is Psi at the returned matching point
    assert mr.psi_residual == abs(psi(p, 5, mr.t_bar, 2048))


def test_construct_near_q2():
    # near q = 2 the arc amplitude is tiny (about 1e-31 at k = 41) and the
    # energy along the starting ray is nearly flat; Newton must still converge
    mr = construct_uk(ProblemParams(q=1.9), 41)
    assert mr.zero_count == 82
    assert mr.psi_residual < 1e-6
    assert mr.energy_drift < 1e-4  # 2.6e-2 with an absolute Newton stop


def test_construct_q175_energy_drift():
    # max phi is about 5e-10 here: an absolute Newton stop left the residual
    # at 9e-2 of the force and the drift at 7e-2
    mr = construct_uk(ProblemParams(q=1.75, lambda_minus=1.0), 17)
    assert mr.zero_count == 34
    assert mr.energy_drift < 1e-4


def test_construct_q15():
    p = ProblemParams(q=1.5)
    mr = construct_uk(p, 9)
    assert mr.zero_count == 18
    assert abs(mr.t_bar - mr.T / 2) < 1e-6  # symmetric coefficients
    # the sqrt nonlinearity at the arc endpoints limits the second order
    # scheme to O(h^1.5); at n=2048 that is a few times 1e-5
    assert mr.energy_drift < 1e-4
    assert mr.ode_residual < 1e-2


def test_construct_preconditions():
    with pytest.raises(ConstructionError):
        construct_uk(ProblemParams(q=1.0), 4)  # k_bar = 4
    with pytest.raises(ConstructionError):
        construct_uk(ProblemParams(q=1.0, lambda_minus=0.0), 5)
    # an arc grid needs two interior points for its end slopes
    for n in (0, 1, -5):
        with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
            construct_uk(ProblemParams(q=1.5), 9, n=n)
        with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
            minimize_arc(ProblemParams(q=1.5), 0.3, 0.7, "minus", n)


@pytest.mark.parametrize("q, lam_minus, k", [(1.0, 3.0, 5), (1.5, 2.0, 9)])
def test_psi_residual_is_psi_at_t_bar(q, lam_minus, k):
    # brentq returns a point it evaluated, so the residual is that Psi value
    p = ProblemParams(q=q, lambda_minus=lam_minus)
    mr = construct_uk(p, k)
    assert mr.psi_residual == abs(psi(p, k, mr.t_bar))


def test_check_k():
    construct.check_k(ProblemParams(q=1.0), 5)
    with pytest.raises(ConstructionError, match=r"^k must exceed k_bar=4, got k=4$"):
        construct.check_k(ProblemParams(q=1.0), 4)


def test_construct_honours_mu():
    # mu scales both coefficients: mu = 1/2 with lambda_- = 2 is the equation
    # with lambda_+ = 1/2, lambda_- = 1, and the products are exact
    mr = construct_uk(ProblemParams(q=1.5, lambda_minus=2.0, mu=0.5), 9)
    ref = construct_uk(ProblemParams(q=1.5, lambda_plus=0.5, lambda_minus=1.0), 9)
    assert mr.t_bar == ref.t_bar
    assert np.array_equal(mr.profile.values, ref.profile.values)
    assert np.array_equal(mr.profile.derivative, ref.profile.derivative)
    # the functionals apply mu too, so the frequency is gamma_q = 4
    assert abs(eval_Nt(mr.to_field(), (0.0, 0.0), 1.0, 1.5) - 4.0) < 1e-3
    with pytest.raises(ConstructionError):
        construct_uk(ProblemParams(q=1.5, mu=0.0), 9)


def test_energy_function_flags_perturbation():
    p = ProblemParams(q=1.0)
    mr = construct_uk(p, 5, n=512)
    drift = profile_energy_drift(p, mr.profile)
    assert drift < 1e-5
    from nodallab.fields import AngularProfile
    rng = np.random.default_rng(0)
    bad = AngularProfile(mr.profile.values + 1e-2 * rng.standard_normal(len(mr.profile.values)),
                         mr.profile.derivative, p)
    assert profile_energy_drift(p, bad) > 100 * drift


def test_count_sign_changes():
    assert count_sign_changes([1, -1, 1, -1]) == 4  # periodic wrap
    assert count_sign_changes([1, 0, -1, 0, 1, -1]) == 4
    assert count_sign_changes([0, 0]) == 0
    assert count_sign_changes([2, 3, 1]) == 0


@given(values=st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_subnormal=False)),
                       max_size=40),
       scale=st.floats(1e-3, 1e3), shift=st.integers(0, 39))
def test_count_sign_changes_property(values, scale, shift):
    # a periodic sequence changes sign an even number of times, and the count
    # depends only on the cyclic order of the signs
    count = count_sign_changes(values)
    assert count % 2 == 0
    assert count_sign_changes([scale * v for v in values]) == count
    k = shift % len(values) if values else 0
    assert count_sign_changes(values[k:] + values[:k]) == count


def test_hamiltonian_cauchy_oracle():
    # q=1, lambda=1: piecewise parabolic, period 4 from (w, w') = (0, 1)
    p = ProblemParams(q=1.0)
    t, w, v, drift = hamiltonian_cauchy(p, 0.0, 1.0, 1e-3, 4000)
    assert drift < 1e-10
    assert abs(w[-1]) < 1e-9 and abs(v[-1] - 1.0) < 1e-9
    # peak value 1/2 at t = 1
    assert abs(w[1000] - 0.5) < 1e-9


def test_hamiltonian_cauchy_drift_q15():
    p = ProblemParams(q=1.5)
    _, _, _, drift = hamiltonian_cauchy(p, 0.7, -0.3, 1e-3, 5000)
    assert drift < 1e-8


def test_hamiltonian_values():
    p = ProblemParams(q=1.0, lambda_plus=2.0, lambda_minus=3.0)
    assert abs(hamiltonian(p, 1.0, 2.0) - (2.0 + 2.0)) < 1e-14
    assert abs(hamiltonian(p, -1.0, 0.0) - 3.0) < 1e-14


def test_hamiltonian_cauchy_validation():
    for w0, w0prime, step, steps in [
        (0.0, 1.0, -1e-3, 10),
        (0.0, 1.0, 0.0, 10),
        (0.0, 1.0, np.nan, 10),
        (0.0, 1.0, np.inf, 10),
        (np.nan, 1.0, 1e-3, 10),
        (0.5, -np.inf, 1e-3, 10),
        (0.0, 1.0, 1e-3, -1),
        (0.0, 1.0, 1e-3, 2.5),
        (0.0, 1.0, 1e-3, "10"),
    ]:
        with pytest.raises(ValueError) as info:
            hamiltonian_cauchy(ProblemParams(), w0, w0prime, step, steps)
        assert len(str(info.value).splitlines()) == 1


def test_hamiltonian_cauchy_zero_steps():
    t, w, v, drift = hamiltonian_cauchy(ProblemParams(q=1.5), 0.3, -0.2, 1e-3, 0)
    assert t.tolist() == [0.0] and w.tolist() == [0.3] and v.tolist() == [-0.2]
    assert drift == 0.0
    _, w, _, _ = hamiltonian_cauchy(ProblemParams(), 0.3, -0.2, 1e-3, np.int64(3))
    assert len(w) == 4


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_hamiltonian_cauchy_overflowed_energy_is_nan_drift(q):
    # (w')^2/2 overflows to inf at every step: no drift can be measured, and
    # inf - inf must not read as a perfectly conserved energy
    with np.errstate(over="ignore", invalid="ignore"):
        _, w, _, drift = hamiltonian_cauchy(ProblemParams(q=q), 0.5, 1e155, 1e-3, 50)
    assert np.all(np.isfinite(w)) and math.isnan(drift)


# ---------------------------------------------------------------------------
# reference: the integrator the float-scalar loop replaced, with the force
# looked up from params in every RK4 stage through a per-step closure
# ---------------------------------------------------------------------------


def _region_force_ref(params, w, s):
    q = params.q
    lam = params.lambda_plus if s > 0 else params.lambda_minus
    if q == 1.0:
        return -params.mu * s * lam
    return -params.mu * s * lam * abs(w) ** (q - 1.0)


def _rk4_step_ref(params, w, v, h, s):
    def acc(wi):
        return _region_force_ref(params, wi, s)

    k1w, k1v = v, acc(w)
    k2w, k2v = v + 0.5 * h * k1v, acc(w + 0.5 * h * k1w)
    k3w, k3v = v + 0.5 * h * k2v, acc(w + 0.5 * h * k2w)
    k4w, k4v = v + h * k3v, acc(w + h * k3w)
    return (w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _graded_flight_ref(params, w, v, h, s, cluster_start):
    m = 24
    sizes = h * 2.0 ** -np.arange(1.0, m + 1)
    sizes = np.append(sizes, sizes[-1])
    if cluster_start:
        sizes = sizes[::-1]
    for dh in sizes:
        w, v = _rk4_step_ref(params, w, v, dh, s)
    return w, v


def _advance_ref(params, w, v, h, depth=0, cap=6):
    if h <= 0.0:
        return w, v
    if w != 0.0:
        s = 1.0 if w > 0.0 else -1.0
    elif v != 0.0:
        s = 1.0 if v > 0.0 else -1.0
    else:
        return w, v
    graded = params.q != 1.0
    if graded and w != 0.0 and abs(w) < 8.0 * abs(v) * h and depth < cap:
        for _ in range(16):
            w, v = _advance_ref(params, w, v, h / 16.0, depth + 1, cap)
        return w, v
    if w == 0.0 and graded:
        wn, vn = _graded_flight_ref(params, w, v, h, s, cluster_start=True)
    else:
        wn, vn = _rk4_step_ref(params, w, v, h, s)
    if s * wn >= 0.0 or depth >= 16:
        return wn, vn

    def signed(alpha):
        return s * _rk4_step_ref(params, w, v, alpha * h, s)[0]

    lo = 0.0 if w != 0.0 else 1e-9
    if signed(lo) <= 0.0 or signed(1.0) > 0.0:
        return wn, vn
    alpha = brentq(signed, lo, 1.0, xtol=1e-14)
    if graded:
        wm, vm = _graded_flight_ref(params, w, v, alpha * h, s, cluster_start=False)
    else:
        wm, vm = _rk4_step_ref(params, w, v, alpha * h, s)
    e = 0.5 * vm * vm + float(hamiltonian(params, wm, 0.0))
    vm = np.copysign(np.sqrt(2.0 * e), vm)
    return _advance_ref(params, 0.0, vm, (1.0 - alpha) * h, depth + 1, cap)


def _hamiltonian_cauchy_ref(params, w0, w0prime, step, steps, cap=6):
    w = np.empty(steps + 1)
    v = np.empty(steps + 1)
    w[0], v[0] = float(w0), float(w0prime)
    for i in range(steps):
        w[i + 1], v[i + 1] = _advance_ref(params, w[i], v[i], step, 0, cap)
    t = step * np.arange(steps + 1)
    H = hamiltonian(params, w, v)
    drift = float((np.max(H) - np.min(H)) / max(abs(float(H[0])), 1e-12))
    return t, w, v, drift


def _assert_same_trajectory(params, w0, w0prime, step, steps):
    got = hamiltonian_cauchy(params, w0, w0prime, step, steps)
    want = _hamiltonian_cauchy_ref(params, w0, w0prime, step, steps)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3]
    return got


@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.9])
# (1, 0, 1): no force below the interface; (1, 1, 0): no force at all
@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0),
                                    (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)])
@pytest.mark.parametrize("w0, w0prime", [
    (0.7, -0.3),     # generic start
    (0.0, 0.8),      # on the interface, moving
    (0.0, 0.0),      # at rest on the interface
    (1e-9, -0.4),    # just above the interface, heading into it
    (-1e-3, 0.0),    # below the interface, at rest: many short swings
])
def test_hamiltonian_cauchy_matches_reference(q, coeffs, w0, w0prime):
    lp, lm, mu = coeffs
    p = ProblemParams(q=q, lambda_plus=lp, lambda_minus=lm, mu=mu)
    _assert_same_trajectory(p, w0, w0prime, 2e-3, 1500)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_hamiltonian_cauchy_matches_reference_many_crossings(q):
    p = ProblemParams(q=q, lambda_plus=1.5, lambda_minus=0.75)
    _, w, _, _ = _assert_same_trajectory(p, 0.0, 1.0, 1e-2, 3000)
    assert count_sign_changes(w) >= 8


# starts with an amplitude far below the step size swing many times per step,
# and every such step recurses to the full subdivision depth: one of them
# takes a second or more in either integrator, so the property draws resolved
# starts (|w| or |w'| at least 0.05 and mu lambda_(+-) <= 4 keep a swing
# longer than a step)
_SPEED = st.one_of(st.floats(0.05, 1.0), st.floats(-1.0, -0.05))
_START = st.one_of(st.just(0.0), _SPEED)
# just off the interface: 1e-9 and 1e-300 both subdivide to the cap, depth 6
_NEAR = st.sampled_from([1e-9, -1e-9, 1e-300, -1e-300])


@settings(max_examples=30, deadline=None)
@given(q=st.floats(1.0, 1.95), coeffs=st.tuples(*[st.floats(0.5, 2.0)] * 3),
       start=st.one_of(st.tuples(_START, _START), st.tuples(_NEAR, _SPEED)))
def test_hamiltonian_cauchy_matches_reference_property(q, coeffs, start):
    lp, lm, mu = coeffs
    p = ProblemParams(q=q, lambda_plus=lp, lambda_minus=lm, mu=mu)
    _assert_same_trajectory(p, *start, 1e-2, 300)


@pytest.mark.parametrize("q", [1.01, 1.05, 1.5, 1.9])
@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
@pytest.mark.parametrize("w0, w0prime", [(0.7, -0.3), (1e-9, -0.4)])
def test_hamiltonian_cauchy_split_depth_keeps_accuracy(monkeypatch, q, coeffs, w0, w0prime):
    # subdividing to depth 6 is as accurate as to depth 12: both are measured
    # against a depth-12 run at a tenth of the step (with depth 5 the case
    # q = 1.01, (1, 1, 1), (1e-9, -0.4) fails, with depth 4 five cases do)
    lp, lm, mu = coeffs
    p = ProblemParams(q=q, lambda_plus=lp, lambda_minus=lm, mu=mu)
    _, w, _, drift = hamiltonian_cauchy(p, w0, w0prime, 2e-3, 1500)
    _, w12, _, drift12 = _hamiltonian_cauchy_ref(p, w0, w0prime, 2e-3, 1500, cap=12)
    monkeypatch.setattr(construct, "_SPLIT_DEPTH", 12)
    _, fine, _, _ = hamiltonian_cauchy(p, w0, w0prime, 2e-4, 15000)
    assert count_sign_changes(w12) >= 2
    assert drift <= 1.02 * drift12
    assert np.max(np.abs(w - fine[::10])) <= 1.02 * np.max(np.abs(w12 - fine[::10]))


# at q = 1 the steps between crossings are prefix sums over arrays: the
# cases below pin them to the step-by-step reference bit for bit


def test_hamiltonian_cauchy_takeoff_landing_across_zero():
    # step 235 crosses w = 0, and the rest of it takes off from w = 0 by a
    # graded flight that lands across w = 0 again, where the plain RK4 step
    # that would bracket that crossing stays on its side: the take-off keeps
    # the graded landing instead of raising
    p = ProblemParams(q=1.25)
    _, w, v, drift = _assert_same_trajectory(p, 1e-9, 0.0, 2e-3, 235)
    _, w_short, v_short, _ = hamiltonian_cauchy(p, 1e-9, 0.0, 2e-3, 234)
    assert np.array_equal(w[:-1], w_short) and np.array_equal(v[:-1], v_short)
    assert np.isfinite(w).all() and np.isfinite(v).all() and math.isfinite(drift)


def test_hamiltonian_cauchy_q1_long_run():
    # no force below the interface: one run of 10,000 steps, longer than
    # every chunk, with no crossing
    p = ProblemParams(q=1.0, lambda_plus=1.0, lambda_minus=0.0, mu=1.0)
    _, w, _, _ = _assert_same_trajectory(p, -0.5, -1.0, 1e-3, 10000)
    assert np.all(w < 0)


def test_hamiltonian_cauchy_q1_exact_landing():
    # no force and exact binary steps: w falls by 2^-10 per step and reaches
    # 0.0 exactly at step 512, where the run stops and the walk takes off
    p = ProblemParams(q=1.0, mu=0.0)
    _, w, v, _ = _assert_same_trajectory(p, 0.5, -1.0, 2.0**-10, 1024)
    assert w[512] == 0.0 and w[511] > 0.0 > w[513]
    assert np.all(v == -1.0)


def test_hamiltonian_cauchy_q1_at_rest():
    _, w, v, drift = _assert_same_trajectory(ProblemParams(q=1.0), 0.0, 0.0, 1e-3, 100)
    assert not np.any(w) and not np.any(v) and drift == 0.0


_COEFF_OR_ZERO = st.one_of(st.just(0.0), st.floats(0.5, 2.0))


@settings(max_examples=40, deadline=None)
@given(coeffs=st.tuples(st.floats(0.5, 2.0), _COEFF_OR_ZERO, _COEFF_OR_ZERO),
       start=st.one_of(st.tuples(_START, _START), st.tuples(_NEAR, _SPEED)),
       step=st.sampled_from([1e-2, 2.0**-7]))
def test_hamiltonian_cauchy_matches_reference_property_q1(coeffs, start, step):
    lp, lm, mu = coeffs
    p = ProblemParams(q=1.0, lambda_plus=lp, lambda_minus=lm, mu=mu)
    _assert_same_trajectory(p, *start, step, 600)


def test_hamiltonian_cauchy_q1_steps_singly_only_at_crossings(monkeypatch):
    # of 10,000 steps at q = 1 only the crossing steps are taken one at a
    # time; every other step is part of a prefix-sum run
    ran, crossed = [], []
    real_run, real_cross = construct._linear_run, construct._cross

    def run(*args):
        out = real_run(*args)
        ran.append(len(out[0]))
        return out

    def cross(*args):
        crossed.append(args[1])
        return real_cross(*args)

    monkeypatch.setattr(construct, "_linear_run", run)
    monkeypatch.setattr(construct, "_cross", cross)
    _, w, _, _ = hamiltonian_cauchy(ProblemParams(q=1.0), 0.7, -0.3, 1e-3, 10000)
    assert 2 <= len(crossed) == count_sign_changes(w) <= 10
    assert 10000 - sum(ran) == len(crossed)
    assert len(ran) <= len(crossed) + 1


# ---------------------------------------------------------------------------
# the in-package Brent root finder and clamped cubic against scipy
# ---------------------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _brent_run(solver, f, a, b, **kw):
    """(points f was called at, root or exception type) of one solve."""
    xs = []

    def logged(x):
        xs.append(x)
        return f(x)

    try:
        out = solver(logged, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return [x.hex() for x in xs], out


@settings(max_examples=300, deadline=None)
@given(root=st.floats(-1.0, 1.0), left=st.floats(-0.5, 3.0), right=st.floats(1e-3, 3.0),
       lin=st.floats(0.05, 5.0), cub=st.floats(-2.0, 2.0), wave=st.floats(-1.0, 1.0),
       freq=st.floats(0.5, 6.0), decade=st.integers(-300, 300),
       xtol=st.floats(1e-15, 1e-2), maxiter=st.sampled_from([100, 100, 100, 5]))
def test_brentq_matches_scipy(root, left, right, lin, cub, wave, freq, decade, xtol, maxiter):
    # maxiter 5 reaches the non-convergence path; the port's step limit is a
    # module constant, so it is patched for the duration of the solve
    # a smooth function with a simple root; a negative `left` puts both bracket
    # ends on one side, and scales from 1e-300 to 1e300 reach the underflow
    # and overflow of the interpolation steps
    scale = 10.0 ** decade

    def f(x):
        d = x - root
        return scale * (d * (lin + cub * d * d) + wave * d * math.sin(freq * x))

    a, b = root - left, root + right
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_BRENT_MAXITER", maxiter)
        ours = _brent_run(construct.brentq, f, a, b, xtol=xtol)
    assert ours == _brent_run(brentq, f, a, b, xtol=xtol, maxiter=maxiter)


def test_brentq_errors_match_scipy(monkeypatch):
    monkeypatch.setattr(construct, "_BRENT_MAXITER", 3)
    cases = [
        (lambda x: x - 0.3, 0.5, 2.0),                          # same sign
        (lambda x: math.nan if x > 0.9 else x - 0.3, 0.0, 1.0),  # NaN at an end
        (lambda x: math.nan if 0.2 < x < 0.6 else x - 0.3, 0.0, 1.0),  # NaN inside
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),      # 3 steps are too few
    ]
    for f, a, b in cases:
        with pytest.raises((ValueError, RuntimeError)) as want:
            brentq(f, a, b, xtol=2e-12, maxiter=3)
        with pytest.raises(want.type):
            construct.brentq(f, a, b, xtol=2e-12)
    # a zero at either end is returned as it is
    for f in (lambda x: x, lambda x: x - 1.0, lambda x: -0.0 if x == 0 else 1.0):
        assert construct.brentq(f, 0.0, 1.0, xtol=2e-12) == brentq(f, 0.0, 1.0, xtol=2e-12)


def test_construct_t_bar_is_scipy_brentq_root():
    # on the bracket the build records, its root is scipy's root bit for bit
    p, k, n = ProblemParams(q=1.5, lambda_minus=2.0), 9, 2048
    mr = construct_uk(p, k, n)
    a, b = mr.bracket
    want = brentq(lambda t: psi(p, k, t, n), a, b, xtol=1e-10 * mr.T)
    assert mr.t_bar == want


def test_construct_counts_psi_calls(monkeypatch):
    # psi_calls is every Psi evaluation; each makes one arc pair, and the
    # glued profile takes one more pair at t_bar
    calls = {"psi": 0, "arc": 0}
    real_psi, real_arc = construct.psi, construct.minimize_arc

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(construct, "psi", counted("psi", real_psi))
    monkeypatch.setattr(construct, "minimize_arc", counted("arc", real_arc))
    mr = construct_uk(ProblemParams(q=1.5, lambda_minus=2.0), 9)
    assert mr.psi_calls == calls["psi"] <= 6
    assert calls["arc"] == 2 * calls["psi"] + 2
    a, b = mr.bracket
    assert a < mr.t_bar < b and b - a == pytest.approx(2e-5 * mr.T, rel=1e-9)


def test_construct_widens_an_off_bracket(monkeypatch):
    # an exact root 1e-3 T off: the bracket grows ten-fold until Psi changes
    # sign, and the build lands on the root of the full-bracket search
    p, k, n = ProblemParams(q=1.5, lambda_minus=2.0), 9, 2048
    T = 2.0 * np.pi / k
    full = brentq(lambda t: psi(p, k, t, n), 1e-3 * T, (1.0 - 1e-3) * T, xtol=1e-10 * T)
    near = construct_uk(p, k, n)
    exact = construct.time_map_t_bar
    monkeypatch.setattr(construct, "time_map_t_bar", lambda params, k: exact(params, k) + 1e-3 * T)
    far = construct_uk(p, k, n)
    assert abs(far.t_bar - full) <= 1e-10 * T
    assert abs(near.t_bar - full) <= 1e-10 * T
    assert far.psi_calls > near.psi_calls
    a, b = far.bracket
    assert b - a >= 2e-3 * T * (1 - 1e-9)


def test_construct_without_a_sign_change_raises(monkeypatch):
    # Psi of one sign everywhere: the bracket widens to the clipped full
    # period and the build is refused
    calls = []

    def positive(params, k, t, n):
        calls.append(t)
        return 1.0

    monkeypatch.setattr(construct, "psi", positive)
    with pytest.raises(ConstructionError, match="^Psi has no sign change on the bracket"):
        construct_uk(ProblemParams(q=1.5), 9, 256)
    T = 2.0 * np.pi / 9
    assert min(calls) == 1e-3 * T and max(calls) == (1.0 - 1e-3) * T


def test_result_json_records_mu_and_matching():
    mr = construct_uk(ProblemParams(q=1.5, lambda_minus=2.0, mu=0.5), 9)
    doc = json.loads(json.dumps(mr.to_dict()))
    assert doc["mu"] == 0.5
    assert doc["psi_calls"] == mr.psi_calls
    assert doc["bracket"] == list(mr.bracket)
    assert doc["t_bar_exact"] == mr.t_bar_exact


@pytest.mark.parametrize("lam_plus, lam_minus, k, mu", [
    (1.0, 1.0, 5, 1.0), (1.0, 0.4, 5, 1.0), (1.0, 3.0, 6, 1.0), (1.0, 4.0, 7, 0.5),
    (2.0, 2.5, 9, 2.0), (0.3, 5.0, 12, 0.7),
])
def test_time_map_matches_q1_closed_form(lam_plus, lam_minus, k, mu):
    # q = 1, g = 2: an arc of length L ends with slope (lam/g) tan(g L/2), so
    # matching is lambda_+ tan(g t/2) = lambda_- tan(g (T - t)/2); mu cancels
    p = ProblemParams(q=1.0, lambda_plus=lam_plus, lambda_minus=lam_minus, mu=mu)
    T = 2.0 * np.pi / k
    want = brentq(lambda t: lam_plus * np.tan(t) - lam_minus * np.tan(T - t),
                  1e-9, T - 1e-9, xtol=1e-16)
    assert abs(time_map_t_bar(p, k) - want) <= 1e-13 * want


def _adaptive_t_bar(p, k):
    """The time map's matching point with scipy's adaptive quadrature."""
    q, lp, lm = p.q, p.mu * p.lambda_plus, p.mu * p.lambda_minus
    g = gamma_q(p)

    def one_minus_sin_q(th):
        # log sin from log1p near pi/2, where 1 - sin^q cancels
        ls = math.log(math.sin(th)) if th < math.pi / 4 else 0.5 * math.log1p(-math.cos(th) ** 2)
        return -math.expm1(q * ls)

    def half_length(lam, s):
        rho = math.exp(s)

        def f(th):
            c = math.cos(th)
            return c / math.sqrt(g * g * rho * c * c + 2 * lam / q * one_minus_sin_q(th))

        return math.sqrt(rho) * quad(f, 0.0, math.pi / 2, points=[1e-6, 1e-4, 1e-2, 0.1],
                                     epsabs=0.0, epsrel=1.2e-14, limit=200)[0]

    def log_energy(lam, s):
        return q / (2 - q) * s + math.log(g * g * math.exp(s) / 2 + lam / q)

    def s_minus(sp):
        y = log_energy(lp, sp)
        return brentq(lambda s: log_energy(lm, s) - y, -200.0, 200.0, xtol=1e-15)

    T = 2.0 * np.pi / k
    sp = brentq(lambda sp: 2 * half_length(lp, sp) + 2 * half_length(lm, s_minus(sp)) - T,
                -40.0, 40.0, xtol=1e-15)
    return 2 * half_length(lp, sp)


@pytest.mark.parametrize("q, lam_plus, lam_minus, extra", [
    (1.05, 1.0, 3.0, 1), (1.3, 2.0, 0.5, 2), (1.5, 1.0, 4.0, 1), (1.9, 1.0, 2.0, 1),
])
def test_time_map_matches_adaptive_quadrature(q, lam_plus, lam_minus, extra):
    # the fixed panel rule against scipy's adaptive quadrature, where no
    # closed form exists (q > 1)
    p = ProblemParams(q=q, lambda_plus=lam_plus, lambda_minus=lam_minus)
    k = k_bar(p) + extra
    want = _adaptive_t_bar(p, k)
    assert abs(time_map_t_bar(p, k) - want) <= 1e-13 * want


@settings(max_examples=40, deadline=None)
@given(q=st.floats(1.0, 1.99), lam_plus=st.floats(0.2, 5.0), lam_minus=st.floats(0.2, 5.0),
       extra=st.integers(1, 5))
def test_time_map_swap_symmetry(q, lam_plus, lam_minus, extra):
    # swapping the phases swaps the arcs, and the stronger phase gets the
    # shorter arc; equal phases meet at T/2
    p = ProblemParams(q=q, lambda_plus=lam_plus, lambda_minus=lam_minus)
    k = k_bar(p) + extra
    T = 2.0 * np.pi / k
    t = time_map_t_bar(p, k)
    swapped = time_map_t_bar(ProblemParams(q=q, lambda_plus=lam_minus, lambda_minus=lam_plus), k)
    assert 0.0 < t < T
    assert abs(t + swapped - T) <= 1e-12 * T
    if lam_plus == lam_minus:
        assert abs(t - T / 2) <= 1e-12 * T
    else:
        assert (t > T / 2) == (lam_minus > lam_plus)


# ROADMAP accuracy table: t_bar_grid - t_bar_exact at n = 256 and n = 4096,
# and the range of the ratios per doubling over n = 256 ... 4096
ACCURACY_TABLE = [
    ((1.0, 3.0, 5), -3.5e-6, -1.4e-8, (4.0, 4.0)),
    ((1.1, 4.0, 7), 7.8e-6, 4.5e-7, (1.9, 2.1)),
    ((1.25, 4.0, 7), 9.6e-6, 3.5e-7, (2.2, 2.4)),
    ((1.5, 4.0, 9), 2.4e-6, 5.0e-8, (2.5, 2.7)),
    ((1.75, 4.0, 17), 1.0e-8, 1.5e-9, (0.5, 2.8)),
    ((1.9, 2.0, 41), -3.7e-8, -1.2e-10, (4.1, 4.2)),
]


@pytest.mark.parametrize("row", ACCURACY_TABLE, ids=lambda r: "q={}".format(r[0][0]))
def test_grid_error_reproduces_accuracy_table(row):
    (q, lam_minus, k), first, last, (rlo, rhi) = row
    p = ProblemParams(q=q, lambda_minus=lam_minus)
    T = 2.0 * np.pi / k
    err = []
    for n in (256, 512, 1024, 2048, 4096):
        mr = construct_uk(p, k, n)
        err.append(mr.t_bar - mr.t_bar_exact)
    # the table gives two digits; the bracket moves t_bar by up to xtol
    for got, want in ((err[0], first), (err[-1], last)):
        half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 1)
        assert abs(got - want) <= half_digit + 1e-10 * T
    ratios = [round(x / y, 1) for x, y in zip(err, err[1:])]
    assert rlo <= min(ratios) and max(ratios) <= rhi


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 80), decade=st.integers(-30, 5))
def test_clamped_cubic_matches_scipy(seed, m, decade):
    rng = np.random.default_rng(seed)
    x = rng.normal() + np.cumsum(rng.uniform(1e-3, 1.0, m))
    y = rng.normal(size=m) * 10.0 ** decade
    if seed % 3 == 0:
        y[0] = y[-1] = 0.0  # the arc samples vanish at both ends
    elif seed % 3 == 1:
        y[rng.uniform(size=m) < 0.5] = -0.0  # signed zeros show the order of the sums
    s0, s1 = rng.normal(size=2) * 10.0 ** decade
    want = CubicSpline(x, y, bc_type=((1, s0), (1, s1)))
    got = ClampedCubic(x, y, s0, s1)
    # random points inside and beyond both ends, the knots, and the ends
    v = np.concatenate((rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200), x,
                        [x[0], x[-1], np.nextafter(x[-1], np.inf), np.nextafter(x[0], -np.inf)]))
    for nu in (0, 1, 2):
        assert _bits(got(v)[nu]) == _bits(want(v, nu))


def test_arc_spline_matches_scipy():
    arc = minimize_arc(ProblemParams(q=1.5, lambda_minus=2.0), 0.4, 0.7, "minus", 512)
    theta = 0.4 + arc.h * np.arange(arc.n + 2)
    want = CubicSpline(theta, arc.padded(), bc_type=((1, arc.slope_left), (1, arc.slope_right)))
    got = arc.spline(offset=0.4)
    v = np.clip(np.linspace(0.35, 0.75, 1001), 0.4, 0.7)
    for nu in (0, 1, 2):
        assert _bits(got(v)[nu]) == _bits(want(v, nu))


# the arc and cubic systems are solved by LAPACK dgtsv directly, the routine
# solve_banded((1, 1), ...) calls: same floats, same errors


def _banded(lower, diag, upper):
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def _arc_system(n=2048, length=0.3, gamma2=16.0):
    h = length / (n + 1)
    off = np.full(n - 1, -1.0 / h**2)
    phi = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return off, 2.0 / h**2 - gamma2 - 0.5 * phi ** -0.5, off, -np.cos(phi)


def _cubic_system(seed=3, m=200):
    rng = np.random.default_rng(seed)
    dx = rng.uniform(1e-3, 1.0, m - 1)
    diag = np.concatenate(([1.0], 2 * (dx[:-1] + dx[1:]), [1.0]))
    return np.append(dx[1:], 0.0), diag, np.insert(dx[:-1], 0, 0.0), rng.normal(size=m)


@pytest.mark.parametrize("system", [_arc_system, _cubic_system])
def test_solve_tridiagonal_matches_solve_banded(system):
    lower, diag, upper, b = system()
    args = [a.copy() for a in (lower, diag, upper, b)]
    x = construct._solve_tridiagonal(*args)
    assert _bits(x) == _bits(solve_banded((1, 1), _banded(lower, diag, upper), b))
    # the arguments are left as they were
    assert all(_bits(a) == _bits(o) for a, o in zip(args, (lower, diag, upper, b)))


@pytest.mark.parametrize("where", [0, 1, 2, 3])
def test_solve_tridiagonal_non_finite_error(where):
    args = list(_cubic_system())
    args[where] = args[where].copy()
    args[where][5] = np.nan
    with pytest.raises(ValueError) as want:
        solve_banded((1, 1), _banded(*args[:3]), args[3])
    with pytest.raises(ValueError) as got:
        construct._solve_tridiagonal(*args)
    assert str(got.value) == str(want.value)


def _python(code, *args):
    """Standard output of ``code`` run by a fresh interpreter on this nodallab."""
    src = os.path.dirname(os.path.dirname(construct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True).stdout


@pytest.mark.parametrize("failure", [
    "importlib.machinery.EXTENSION_SUFFIXES = []",  # no _flapack file found
    "importlib.util.spec_from_file_location = refuse",  # the file does not load
])
def test_solve_tridiagonal_fallback_matches_solve_banded(failure, tmp_path):
    # when _flapack cannot be loaded from its file, dgtsv comes from
    # scipy.linalg.lapack: the same routine, so the same floats
    systems = {s.__name__: s() for s in (_arc_system, _cubic_system)}
    np.savez(tmp_path / "systems.npz", **{f"{name}{i}": a for name, system in systems.items()
                                          for i, a in enumerate(system)})
    code = (
        "import importlib.machinery, importlib.util, sys\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise ImportError('refused')\n"
        f"{failure}\n"
        "from nodallab import construct\n"
        "print('scipy.linalg' in sys.modules)\n"
        "a = np.load(sys.argv[1])\n"
        "np.savez(sys.argv[2], **{name: construct._solve_tridiagonal(*(a[f'{name}{i}'] for i in range(4)))\n"
        f"                        for name in {list(systems)!r}}})\n"
    )
    out = _python(code, tmp_path / "systems.npz", tmp_path / "x.npz")
    assert out.strip() == "True"
    x = np.load(tmp_path / "x.npz")
    for name, (lower, diag, upper, b) in systems.items():
        assert _bits(x[name]) == _bits(solve_banded((1, 1), _banded(lower, diag, upper), b))


def test_dgtsv_module_is_shared_with_scipy_linalg():
    # _flapack loaded from its file before scipy.linalg is the module that
    # a later import of scipy.linalg uses
    code = (
        "import sys, nodallab.cli\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import numpy as np, scipy.linalg\n"
        "from nodallab import construct\n"
        "x = scipy.linalg.solve_banded((1, 1), np.array([[0, 1.0], [2, 2], [1, 0]]), np.ones(2))\n"
        "print(scipy.linalg.lapack._flapack is flapack, scipy.linalg.lapack.dgtsv is construct.dgtsv,\n"
        "      np.allclose(x, 1 / 3))\n"
    )
    assert _python(code).split() == ["True", "True", "True"]


def test_solve_tridiagonal_singular_error():
    zero = np.zeros(3)
    diag, b = np.array([1.0, 0.0, 1.0, 1.0]), np.ones(4)
    with pytest.raises(LinAlgError, match="singular matrix"):
        solve_banded((1, 1), _banded(zero, diag, zero), b)
    with pytest.raises(LinAlgError, match="singular matrix"):
        construct._solve_tridiagonal(zero, diag, zero, b)
