"""``benchmarks/test_bench_layers.py`` lies outside the Tier-1 ``testpaths``,
so a name it imports that the package no longer has fails no Tier-1 test.
This loads the file, as ``test_pairs`` loads ``benchmarks/pairs.py``; it runs
no benchmark."""

import importlib.util
import os

import pytest

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
