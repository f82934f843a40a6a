"""The parent/change pair runner's summary of bench results."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, p50, goodput):
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"},
               "goodput_rps": {"value": goodput, "unit": "req/s"},
               "unnamed": {"value": 1.0, "unit": ""}}
    return {"side": side, "workload": "verify", "seed": 1, "trace": 0, "pair": pair,
            "result": {"metrics": metrics}}


def test_summary_counts_better_pairs_in_each_metric_direction(bench_pairs):
    runs = [_run("parent", 0, 3.0, 300.0), _run("change", 0, 2.0, 300.0),
            _run("change", 1, 4.0, 280.0), _run("parent", 1, 3.0, 290.0),
            _run("parent", 2, 3.0, 310.0), _run("change", 2, 2.5, 320.0),
            _run("parent", 3, 3.0, 300.0)]  # no change run: not a pair
    summary = bench_pairs.summarise(runs, {"latency_p50_ms": "lower", "goodput_rps": "higher"})
    assert list(summary) == ["verify seed 1"]
    p50 = summary["verify seed 1"]["latency_p50_ms"]
    assert p50["change_better_pairs"] == "2 of 3" and p50["runs"] == 3
    assert p50["parent_median"] == 3.0 and p50["change_median"] == 2.5
    assert p50["parent_quartiles"] == [3.0, 3.0] and p50["parent_iqr"] == 0.0
    assert p50["change_quartiles"] == [2.25, 3.25]
    # a tie counts for neither side
    assert summary["verify seed 1"]["goodput_rps"]["change_better_pairs"] == "1 of 3"
    assert "unnamed" not in summary["verify seed 1"]
