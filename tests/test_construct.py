import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from nodallab.construct import (
    ConstructionError, SolverError, construct_uk, count_sign_changes,
    energy_function, hamiltonian, hamiltonian_cauchy, minimize_arc, psi,
)
from nodallab.params import ProblemParams, gamma_q


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


def test_energy_function_flags_perturbation():
    p = ProblemParams(q=1.0)
    mr = construct_uk(p, 5, n=512)
    tr = energy_function(p, mr.profile)
    drift = (tr.values.max() - tr.values.min()) / abs(tr.values.mean())
    assert drift < 1e-5
    from nodallab.fields import AngularProfile
    rng = np.random.default_rng(0)
    bad = AngularProfile(mr.profile.values + 1e-2 * rng.standard_normal(len(mr.profile.values)),
                         mr.profile.derivative, p)
    tr2 = energy_function(p, bad)
    drift2 = (tr2.values.max() - tr2.values.min()) / abs(tr2.values.mean())
    assert drift2 > 100 * drift


def test_count_sign_changes():
    assert count_sign_changes([1, -1, 1, -1]) == 4  # periodic wrap
    assert count_sign_changes([1, 0, -1, 0, 1, -1]) == 4
    assert count_sign_changes([0, 0]) == 0
    assert count_sign_changes([2, 3, 1]) == 0


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


def _advance_ref(params, w, v, h, depth=0):
    if h <= 0.0:
        return w, v
    if w != 0.0:
        s = 1.0 if w > 0.0 else -1.0
    elif v != 0.0:
        s = 1.0 if v > 0.0 else -1.0
    else:
        return w, v
    graded = params.q != 1.0
    if graded and w != 0.0 and abs(w) < 8.0 * abs(v) * h and depth < 12:
        for _ in range(16):
            w, v = _advance_ref(params, w, v, h / 16.0, depth + 1)
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
    if signed(lo) <= 0.0:
        return wn, vn
    alpha = brentq(signed, lo, 1.0, xtol=1e-14)
    if graded:
        wm, vm = _graded_flight_ref(params, w, v, alpha * h, s, cluster_start=False)
    else:
        wm, vm = _rk4_step_ref(params, w, v, alpha * h, s)
    e = 0.5 * vm * vm + float(hamiltonian(params, wm, 0.0))
    vm = np.copysign(np.sqrt(2.0 * e), vm)
    return _advance_ref(params, 0.0, vm, (1.0 - alpha) * h, depth + 1)


def _hamiltonian_cauchy_ref(params, w0, w0prime, step, steps):
    w = np.empty(steps + 1)
    v = np.empty(steps + 1)
    w[0], v[0] = float(w0), float(w0prime)
    for i in range(steps):
        w[i + 1], v[i + 1] = _advance_ref(params, w[i], v[i], step)
    t = step * np.arange(steps + 1)
    H = hamiltonian(params, w, v)
    drift = float((np.max(H) - np.min(H)) / max(abs(float(H[0])), 1e-12))
    if np.max(H) == np.min(H):
        drift = 0.0
    return t, w, v, drift


def _assert_same_trajectory(params, w0, w0prime, step, steps):
    got = hamiltonian_cauchy(params, w0, w0prime, step, steps)
    want = _hamiltonian_cauchy_ref(params, w0, w0prime, step, steps)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert got[3] == want[3]
    return got


@pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.9])
@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
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
# takes seconds in either integrator, so the property draws resolved starts
_START = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))


@settings(max_examples=30, deadline=None)
@given(q=st.floats(1.0, 1.95), w0=_START, w0prime=_START)
def test_hamiltonian_cauchy_matches_reference_property(q, w0, w0prime):
    _assert_same_trajectory(ProblemParams(q=q), w0, w0prime, 1e-2, 300)
