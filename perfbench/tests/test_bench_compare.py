import json
import os

from perfbench import compare
from perfbench.series import metric_specs, parse_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _pairs(base, new):
    return list(zip(base, new))


def test_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_base_spread():
    base = [100.0 + i for i in range(10)]
    new = [80.0 + i for i in range(10)]
    assert compare.verdict(base, new, _pairs(base, new), "lower", 0.1)[:2] == ("improved", 10)
    # one pair of ten lost: still nine tenths
    new_one_loss = new[:9] + [200.0]
    assert compare.verdict(base, new_one_loss, _pairs(base, new_one_loss), "lower", 0.1)[0] == "improved"
    # two lost pairs: not a gain, and within the bound
    new_two_losses = new[:8] + [200.0, 200.0]
    result = compare.verdict(base, new_two_losses, _pairs(base, new_two_losses), "lower", 0.1)
    assert result[0] == "unresolved"


def test_gap_inside_base_spread_is_not_a_gain():
    base = [90.0, 110.0] * 5
    new = [b - 1.0 for b in base]  # wins every pair, by less than the quartile distance
    assert compare.verdict(base, new, _pairs(base, new), "lower", 0.25)[0] == "unresolved"


def test_worse_beyond_bound_in_either_direction():
    base = [10.0] * 10
    slower = [11.5] * 10
    assert compare.verdict(base, slower, _pairs(base, slower), "lower", 0.1)[0] == "worse"
    fewer = [8.5] * 10
    assert compare.verdict(base, fewer, _pairs(base, fewer), "higher", 0.1)[0] == "worse"
    slightly = [10.5] * 10
    assert compare.verdict(base, slightly, _pairs(base, slightly), "lower", 0.1) == (
        "unresolved", 0, "within bound"
    )


def test_noisy_base_is_unresolved():
    base = [5.0, 10.0, 15.0, 20.0, 5.0, 10.0, 15.0, 20.0]
    new = [x + 0.5 for x in base]
    assert compare.verdict(base, new, _pairs(base, new), "lower", 0.1) == (
        "unresolved", 0, "base spread wider than bound"
    )


def test_per_layer_metric_without_bound_is_worse_by_the_mirror_rule():
    base = [1.0 + 0.01 * i for i in range(10)]
    new = [2.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(base, new, _pairs(base, new), "lower", None)[0] == "worse"
    assert compare.verdict(new, base, _pairs(new, base), "lower", None)[0] == "improved"


def _record(workload, seed, value, seconds=30):
    return {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        "meta": {"workload": workload, "seed": seed, "trace": 0, "seconds": seconds},
    }


def test_runs_pair_by_seed_then_by_order():
    base = [_record("sweep", s, 1.0) for s in (1, 2, 3)]
    new = [_record("sweep", s, 2.0) for s in (3, 9, 1)]
    got = [(b["meta"]["seed"], n["meta"]["seed"]) for b, n in compare.pairs(base, new)]
    assert got == [(1, 1), (3, 3), (2, 9)]


def test_repeated_seeds_pair_in_file_order_and_none_is_lost():
    base = [_record("sweep", s, float(k)) for k, s in enumerate((1, 1, 2))]
    new = [_record("sweep", s, 10.0 + k) for k, s in enumerate((1, 2, 1))]
    got = [(b["metrics"]["ops_per_s"]["value"], n["metrics"]["ops_per_s"]["value"])
           for b, n in compare.pairs(base, new)]
    assert got == [(0.0, 10.0), (1.0, 12.0), (2.0, 11.0)]


def test_sets_of_different_run_lengths_are_not_compared():
    base = [_record("sweep", s, 2.0) for s in range(1, 4)]
    new = [_record("sweep", s, 3.0, seconds=10) for s in range(1, 4)]
    assert compare.compare(base, new, {}) == [
        "sweep trace=0: run lengths differ ([10, 30] s), not compared"
    ]


def test_compare_reports_each_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = metric_specs(json.load(fh))
    base = [_record("sweep", s, 2.0 + 0.01 * s) for s in range(1, 11)]
    new = [_record("sweep", s, 3.0 + 0.01 * s) for s in range(1, 11)]
    lines = compare.compare(base, new, specs)
    assert lines[0].startswith("sweep trace=0: 10 vs 10 runs, 10 pairs")
    assert "ops_per_s" in lines[1] and lines[1].endswith("improved") and "wins 10/10" in lines[1]
    assert compare.compare(base, [], specs) == ["sweep trace=0: no runs in NEW"]


def test_parse_seeds():
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
