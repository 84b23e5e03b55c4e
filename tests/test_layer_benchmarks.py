"""``benchmarks/test_bench_layers.py`` and ``benchmarks/detections.py`` lie
outside the Tier-1 ``testpaths``, so a name they import that the package no
longer has fails no Tier-1 test.  This loads the files, as ``test_pairs``
loads ``benchmarks/pairs.py``; it runs no benchmark and no detection."""

import importlib.util
import os

import pytest

_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_layers():
    return _load("test_bench_layers")


def test_layer_benchmarks_import(bench_layers):
    assert any(name.startswith("test_") for name in vars(bench_layers))


def test_detections_script_import():
    detections = _load("detections")
    assert list(detections.SETS) == ["large-k", "multi-root", "nodal-grids"]
    # one point per root, each root within the tolerance of a point
    point = (0.1, 0.0, 0.0, 0.0, 4)
    assert detections.verdict([point], [0.1], 1e-3)
    assert not detections.verdict([point, point], [0.1], 1e-3)
    assert not detections.verdict([point], [0.2], 1e-3)
