"""``benchmarks/test_bench_layers.py`` lies outside the Tier-1 ``testpaths``,
so a name it imports that the package no longer has, or a stale call in one
of its helpers, fails no Tier-1 test.  This loads the file, as ``test_pairs``
loads ``benchmarks/pairs.py``, and runs its helpers once on a small input;
it runs no benchmark."""

import importlib.util
import os

import pytest

from nodallab.fields import monomial_field
from nodallab.nodal import detect_singular, extract_nodal_set, nodal_length

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "test_bench_layers.py")


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_benchmarks_import(bench_layers):
    assert any(name.startswith("test_") for name in vars(bench_layers))


def test_analyze_nodal_stage_matches_the_public_calls(bench_layers):
    # the helper behind the analyze-stage benchmark, on one shared sample,
    # gives what extraction and detection give on their own samples
    f = monomial_field(2)
    length, points = bench_layers._analyze_nodal_stage(f, 64)
    assert length == nodal_length(extract_nodal_set(f, 64), 0.5)
    assert points == detect_singular(f, 64) and len(points) == 1
