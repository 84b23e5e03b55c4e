"""``benchmarks/test_bench_layers.py``, ``benchmarks/detections.py`` and
``benchmarks/outputs.py`` lie outside the Tier-1 ``testpaths``, so a name
they import that the package no longer has fails no Tier-1 test.  This loads
the files, as ``test_pairs`` loads ``benchmarks/pairs.py``; it runs no
benchmark, no detection and no digest run."""

import importlib.util
import os

import numpy as np
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


def test_outputs_script_digests_every_bit():
    outputs = _load("outputs")
    # a float by its bits, an array by dtype and shape too, an error by its
    # type and message, a dict whatever its key order
    assert outputs.digest(0.1) != outputs.digest(np.nextafter(0.1, 1.0))
    assert outputs.digest(np.zeros(2)) != outputs.digest(np.zeros(2, dtype=np.float32))
    assert outputs.digest(np.zeros(2)) != outputs.digest(np.zeros((1, 2)))
    assert outputs.digest(ValueError("x")) != outputs.digest(TypeError("x"))
    assert outputs.digest({"a": 1, "b": [2.0]}) == outputs.digest({"b": [2.0], "a": 1})
