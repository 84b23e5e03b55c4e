"""pytest-benchmark cases for single layers of nodallab.

Outside the Tier-1 ``testpaths``, so a plain ``pytest`` does not collect
them.  Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

and add ``--benchmark-json=<file>`` to keep the numbers.  Each case checks
its result, so a fast wrong answer does not count.
"""

import numpy as np
import pytest

from nodallab.construct import construct_uk, hamiltonian_cauchy
from nodallab.functionals import trace
from nodallab.nodal import extract_nodal_set, nodal_length
from nodallab.params import ProblemParams


@pytest.fixture(scope="module")
def uk15():
    """u_k at q = 1.5, k = 9: a homogeneous field of degree gamma_q = 4."""
    return construct_uk(ProblemParams(q=1.5), 9).to_field()


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_hamiltonian_cauchy_1e4_steps(benchmark, q):
    p = ProblemParams(q=q)
    _, w, _, drift = benchmark(hamiltonian_cauchy, p, 0.7, -0.3, 1e-3, 10000)
    assert len(w) == 10001 and drift < 1e-6


def test_construct_uk_q1_k5(benchmark):
    mr = benchmark(construct_uk, ProblemParams(q=1.0), 5)
    assert mr.zero_count == 10 and mr.psi_residual < 1e-6


def test_trace_D_50_radii(benchmark, uk15):
    radii = np.linspace(0.1, 1.0, 50)
    tr = benchmark(trace, uk15, "D", (0.0, 0.0), radii, t=2.0)
    # every term of D_t scales as r^(2 gamma) on a homogeneous solution
    c = tr.values / radii ** (2.0 * uk15.gamma)
    assert np.ptp(c) < 1e-10 * abs(np.mean(c))


def test_value_and_grad_annulus_49x1024(benchmark, uk15):
    r = np.linspace(0.02, 1.0, 49)[:, None]
    th = 2.0 * np.pi * np.arange(1024) / 1024
    x, y = r * np.cos(th), r * np.sin(th)
    v, (gx, gy) = benchmark(uk15.value_and_grad, x, y)
    # Euler's identity for a field homogeneous of degree gamma
    assert np.max(np.abs(x * gx + y * gy - uk15.gamma * v)) < 1e-12 * np.max(np.abs(v))


def test_extract_nodal_set_n512(benchmark, uk15):
    ns = benchmark(extract_nodal_set, uk15, 512)
    # the nodal set of u_k is 2k = 18 rays from the origin
    assert abs(nodal_length(ns, 1.0) - 18.0) < 0.05 * 18.0
