import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_summarize_lower_is_better():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 5.0]
    s = pairs.summarize(parent, change, "lower")
    assert s["parent_median"] == 3.0 and s["change_median"] == 2.5
    assert s["parent_quartiles"] == [2.0, 4.0] and s["parent_iqr"] == 2.0
    assert s["median_gain"] == 0.5
    # a tie is not a win, and a worse pair is not either
    assert s["wins"] == 3 and s["pairs"] == 5
    assert s["parent"] == parent and s["change"] == change


def test_summarize_higher_is_better():
    s = pairs.summarize([10.0, 12.0, 11.0], [9.0, 13.0, 14.0], "higher")
    assert s["median_gain"] == 2.0  # medians 11 -> 13
    assert s["wins"] == 2


def test_summarize_one_pair():
    s = pairs.summarize([2.0], [1.5], "lower")
    assert s["parent_quartiles"] == [2.0, 2.0] and s["wins"] == 1


def test_summarize_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")


def test_parse_seeds():
    assert pairs.parse_seeds("11-14") == [11, 12, 13, 14]
    assert pairs.parse_seeds("3,5,8") == [3, 5, 8]


def test_raw_pass_wall():
    # per pass the raw seconds of the untraced ops, whatever their order;
    # traced records and the calibrated latencies do not count
    def op(index, raw, traced=False):
        return {"pass": index, "raw_latency_s": raw, "latency_s": 100.0, "traced": traced}

    doc = {"ops": [op(0, 0.25), op(0, 0.5), op(1, 1.0), op(0, 9.0, True), op(2, 2.0),
                   op(1, 0.5), op(2, 0.5, True)]}
    assert pairs.raw_pass_wall(doc) == 1.5  # passes 0.75, 1.5, 2.0
    assert pairs.raw_pass_wall({"ops": [op(0, 0.25), op(1, 0.75)]}) == 0.5
