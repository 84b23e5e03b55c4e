"""pytest-benchmark cases for single layers of nodallab.

Outside the Tier-1 ``testpaths``, so a plain ``pytest`` does not collect
them.  Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

and add ``--benchmark-json=<file>`` to keep the numbers.  Each case checks
its result, so a fast wrong answer does not count.
"""

import pytest

from nodallab.construct import construct_uk, hamiltonian_cauchy
from nodallab.params import ProblemParams


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_hamiltonian_cauchy_1e4_steps(benchmark, q):
    p = ProblemParams(q=q)
    _, w, _, drift = benchmark(hamiltonian_cauchy, p, 0.7, -0.3, 1e-3, 10000)
    assert len(w) == 10001 and drift < 1e-6


def test_construct_uk_q1_k5(benchmark):
    mr = benchmark(construct_uk, ProblemParams(q=1.0), 5)
    assert mr.zero_count == 10 and mr.psi_residual < 1e-6
