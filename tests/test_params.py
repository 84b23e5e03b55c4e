import math

import pytest
from hypothesis import given, strategies as st

from nodallab.params import (
    ProblemParams, beta_k_sequence, beta_q, gamma_q,
    k_bar, lambda_Nq, sigma_k_sequence,
)


def test_gamma_q_values():
    assert gamma_q(ProblemParams(q=1.0)) == 2.0
    assert gamma_q(ProblemParams(q=1.5)) == 4.0
    assert abs(gamma_q(ProblemParams(q=1.9)) - 20.0) < 1e-12
    assert abs(gamma_q(ProblemParams(q=1.2)) - 2.5) < 1e-12


def test_beta_q_values():
    # largest integer strictly below 2/(2-q)
    assert beta_q(ProblemParams(q=1.0)) == 1
    assert beta_q(ProblemParams(q=1.5)) == 3
    assert beta_q(ProblemParams(q=1.2)) == 2
    assert beta_q(ProblemParams(q=1.9)) == 19


def test_lambda_Nq():
    p = ProblemParams(q=1.5)
    assert lambda_Nq(p) == 16.0  # gamma^2 in the plane
    assert lambda_Nq(p, N=3) == 4.0 * 5.0


def test_k_bar():
    assert k_bar(ProblemParams(q=1.0)) == 4
    assert k_bar(ProblemParams(q=1.5)) == 8
    assert k_bar(ProblemParams(q=1.2)) == 5  # 2*gamma = 5 exactly


def test_param_validation():
    with pytest.raises(ValueError):
        ProblemParams(q=0.5)
    with pytest.raises(ValueError):
        ProblemParams(q=2.0)
    with pytest.raises(ValueError):
        ProblemParams(lambda_plus=0.0)
    with pytest.raises(ValueError):
        ProblemParams(lambda_minus=-1.0)
    with pytest.raises(ValueError):
        ProblemParams(mu=-0.1)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(q=st.floats(1.0, 2.0, exclude_max=True),
       lp=st.floats(0.0, 1e300, exclude_min=True), lm=st.floats(0.0, 1e300),
       mu=st.floats(0.0, 1e300))
def test_param_validation_accepts_range(q, lp, lm, mu):
    p = ProblemParams(q=q, lambda_plus=lp, lambda_minus=lm, mu=mu)
    assert (p.q, p.lambda_plus, p.lambda_minus, p.mu) == (q, lp, lm, mu)


@given(bad=st.one_of(st.floats(max_value=1.0, exclude_max=True), st.floats(min_value=2.0),
                     _NON_FINITE))
def test_param_validation_rejects_q(bad):
    with pytest.raises(ValueError):
        ProblemParams(q=bad)


@given(field=st.sampled_from(["lambda_plus", "lambda_minus", "mu"]),
       bad=st.one_of(st.floats(max_value=0.0, exclude_max=True), _NON_FINITE),
       zero=st.booleans())
def test_param_validation_rejects_coefficients(field, bad, zero):
    # lambda_plus must be positive; the other two may be 0 but not negative
    if zero and field == "lambda_plus":
        bad = 0.0
    with pytest.raises(ValueError):
        ProblemParams(**{field: bad})


@pytest.mark.parametrize("q", [1.2, 1.5, 1.7])
def test_beta_sequence_auto_invariants(q):
    p = ProblemParams(q=q)
    limit = gamma_q(p)
    seq = beta_k_sequence(p, 60)
    assert len(seq) == 60
    assert all(b < limit for b in seq)
    # strictly increasing until double precision saturates one ulp below
    # the limit; never decreasing after that
    for b1, b2 in zip(seq, seq[1:]):
        assert b2 > b1 or limit - b1 < 1e-12
        assert b2 >= b1
    # no entry past the first may sit on an integer (the saturated tail is
    # exactly one ulp off, so the comparison must be exact)
    assert all(b != round(b) for b in seq[1:])
    assert abs(seq[-1] - limit) < 1e-3


def test_beta_sequence_q1_is_constant():
    # q=1 starts at the limit 2 and the admissible perturbations cannot
    # move it: the sequence is constant
    seq = beta_k_sequence(ProblemParams(q=1.0), 10)
    assert seq == [2.0] * 10


def test_beta_sequence_explicit_deltas():
    p = ProblemParams(q=1.5)
    seq = beta_k_sequence(p, 3, deltas=[0.0, 0.1, 0.05])
    assert seq[0] == 2.5
    assert abs(seq[1] - (0.5 * 2.5 + 2.0 - 0.1)) < 1e-15
    with pytest.raises(ValueError):
        beta_k_sequence(p, 3, deltas=[0.0, 0.6, 0.0])  # delta_2 >= 2^-2
    with pytest.raises(ValueError):
        beta_k_sequence(p, 3, deltas=[0.0])


# the iteration contracts with factor q/4 + 1/2, so the 1e-3 window at K=60
# holds for q up to about 1.5 (3 * 0.875^60 is just under 1e-3)
@pytest.mark.parametrize("q", [1.0, 1.2, 1.5])
def test_sigma_sequence(q):
    p = ProblemParams(q=q)
    seq = sigma_k_sequence(p, 60)
    assert len(seq) == 61
    assert seq[0] == 1.0
    assert all(b > a for a, b in zip(seq, seq[1:]))
    # each step stays below the midpoint bound
    assert all(s2 < (2.0 + q * s1) / 2.0 for s1, s2 in zip(seq, seq[1:]))
    assert abs(seq[-1] - gamma_q(p)) < 1e-3


def test_sequence_bad_K():
    with pytest.raises(ValueError):
        beta_k_sequence(ProblemParams(), 0)
    with pytest.raises(ValueError):
        sigma_k_sequence(ProblemParams(), 0)
