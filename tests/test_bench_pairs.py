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


def _p50_runs(parent, change):
    """Paired verify runs with the given latency_p50_ms values."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", pair, p, 300.0), _run("change", pair, c, 300.0)]
    return runs


def _p50_summary(bench_pairs, parent, change, bound=0.25):
    summary = bench_pairs.summarise(_p50_runs(parent, change),
                                    {"latency_p50_ms": "lower", "goodput_rps": "higher"},
                                    {"latency_p50_ms": bound})
    return summary["verify seed 1"]


PARENT = [2.40, 2.45, 2.50, 2.42, 2.48, 2.44, 2.46, 2.41, 2.49, 2.47]


class TestGainRule:
    def test_ten_of_ten_wins_past_the_iqr(self, bench_pairs):
        p50 = _p50_summary(bench_pairs, PARENT, [2.2] * 10)["latency_p50_ms"]
        assert p50["change_better_pairs"] == "10 of 10" and p50["gain_rule_met"] is True

    def test_nine_of_ten_is_enough(self, bench_pairs):
        p50 = _p50_summary(bench_pairs, PARENT, [2.2] * 9 + [2.6])["latency_p50_ms"]
        assert p50["change_better_pairs"] == "9 of 10" and p50["gain_rule_met"] is True

    def test_eight_of_ten_is_not(self, bench_pairs):
        p50 = _p50_summary(bench_pairs, PARENT, [2.2] * 8 + [2.6] * 2)["latency_p50_ms"]
        assert p50["change_better_pairs"] == "8 of 10" and p50["gain_rule_met"] is False

    def test_median_gap_within_the_iqr_is_not(self, bench_pairs):
        # better in every pair, by less than the parent's quartile spread
        p50 = _p50_summary(bench_pairs, PARENT, [p - 0.01 for p in PARENT])["latency_p50_ms"]
        assert p50["change_better_pairs"] == "10 of 10"
        assert 0.0 < p50["parent_median"] - p50["change_median"] < p50["parent_iqr"]
        assert p50["gain_rule_met"] is False

    def test_direction_follows_the_metric(self, bench_pairs):
        # a lower goodput is no gain, whatever the margin
        runs = [_run(side, pair, 2.4, value) for pair in range(10)
                for side, value in (("parent", 300.0 + pair), ("change", 200.0))]
        summary = bench_pairs.summarise(runs, {"goodput_rps": "higher"})
        assert summary["verify seed 1"]["goodput_rps"]["gain_rule_met"] is False


class TestWithinBound:
    def test_slower_within_the_bound(self, bench_pairs):
        # median 2.455 -> 3.05: 24% worse, inside a 25% bound
        p50 = _p50_summary(bench_pairs, PARENT, [3.05] * 10)["latency_p50_ms"]
        assert p50["within_bound"] is True and p50["gain_rule_met"] is False

    def test_slower_past_the_bound(self, bench_pairs):
        p50 = _p50_summary(bench_pairs, PARENT, [3.1] * 10)["latency_p50_ms"]
        assert p50["within_bound"] is False

    def test_bound_is_relative_to_the_parent_median(self, bench_pairs):
        p50 = _p50_summary(bench_pairs, PARENT, [2.6] * 10, bound=0.05)["latency_p50_ms"]
        assert p50["within_bound"] is False
        p50 = _p50_summary(bench_pairs, PARENT, [2.55] * 10, bound=0.05)["latency_p50_ms"]
        assert p50["within_bound"] is True

    def test_only_metrics_with_a_bound(self, bench_pairs):
        entry = _p50_summary(bench_pairs, PARENT, PARENT)
        assert entry["latency_p50_ms"]["within_bound"] is True
        assert "within_bound" not in entry["goodput_rps"]


def test_commands_file_holds_one_command_a_line(bench_pairs, tmp_path):
    path = tmp_path / "commands.txt"
    path.write_text('# K = 1e4\ninvert --expr "1/(s^1.5+0.5)" --k 1..10000\n\n'
                    "  verify --expr=1/(s-0.3) --k 1..200  \n")
    assert bench_pairs.read_commands(path) == [
        ["invert", "--expr", "1/(s^1.5+0.5)", "--k", "1..10000"],
        ["verify", "--expr=1/(s-0.3)", "--k", "1..200"]]


def test_command_times_alternate_and_extend(bench_pairs, monkeypatch):
    calls = []

    def fake(tree, argv):
        calls.append(tree)
        return {"P": 2.0, "C": 1.0}[tree] + len(calls) / 100

    monkeypatch.setattr(bench_pairs, "time_command", fake)
    section = {}
    bench_pairs.time_commands({"parent": "P", "change": "C"}, [["invert", "--expr", "1/s"]],
                              3, section)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    entry = section["nablainv invert --expr 1/s"]
    assert entry["parent"] == {"wall_s": [2.01, 2.04, 2.05], "median_s": 2.04}
    assert entry["change"] == {"wall_s": [1.02, 1.03, 1.06], "median_s": 1.03}
    bench_pairs.time_commands({"parent": "P", "change": "C"}, [["invert", "--expr", "1/s"]],
                              1, section)
    # the fourth pair runs the change first, as it would in one call of 4 pairs
    assert calls[6:] == ["C", "P"]
    assert entry["parent"]["wall_s"][3] == 2.08 and entry["change"]["wall_s"][3] == 1.07
