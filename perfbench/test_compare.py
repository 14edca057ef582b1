"""Tests of the compare tool's rule and the percentile helpers.

    python3 -m pytest perfbench/test_compare.py -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402
import compare  # noqa: E402


def test_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, mid, q3 = benchstats.quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert mid == statistics.median(values)


def test_quartiles_of_one_value_are_that_value():
    assert benchstats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert benchstats.spread([2.5]) == 0.0


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 12.0, 8.0, 10.0, 10.0, 10.0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert benchstats.spread(values) == pytest.approx((q3 - q1) / mid)


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        benchstats.quartiles([])
    with pytest.raises(ValueError):
        benchstats.median([])


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def _pairs(parent, change):
    return list(zip(parent, change))


def test_clear_win_is_better():
    change = [v * 0.8 for v in PARENT]
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.1) == "better"


def test_higher_is_better_direction():
    change = [v * 1.2 for v in PARENT]
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "higher", 0.1) == "better"
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.1) == "worse"


def test_win_needs_nine_of_ten_pairs():
    change = [v * 0.8 for v in PARENT]
    change[0] = change[1] = 20.0  # two lost pairs
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.5) != "better"


def test_ties_count_for_neither_side():
    change = [v * 0.8 for v in PARENT]
    change[0] = PARENT[0]  # one tie: 9 wins of 10 pairs still qualifies
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.1) == "better"
    change[1] = PARENT[1]  # two ties: 8 of 10
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.5) != "better"


def test_gap_must_exceed_parent_iqr():
    # Every pair won, but by less than the parent's own spread.
    change = [v - 0.01 for v in PARENT]
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.1) == "same"


def test_regression_beyond_bound_is_worse():
    change = [v * 1.15 for v in PARENT]
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.1) == "worse"
    assert compare.judge(PARENT, change, _pairs(PARENT, change),
                         "lower", 0.2) == "same"


def test_wide_spread_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.02 for v in noisy]
    assert compare.judge(noisy, change, _pairs(noisy, change),
                         "lower", 0.1) == "unresolved"


def test_wide_spread_resolves_when_every_run_is_better():
    parent = [10.0, 12.0, 14.0, 16.0]
    change = [5.0, 6.0, 8.0, 9.0]
    assert compare.judge(parent, change, _pairs(parent, change),
                         "lower", 0.1) == "better"


def _record(workload, seed, value, records=100):
    return {"workload": workload, "seed": seed, "trace": 0,
            "sizes": {"records": records},
            "environment": {"nproc": 2},
            "metrics": {"wall_s": value}}


SPEC = {"workloads": [{"name": "live", "why": ""}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.1}]}


def test_compare_pairs_runs_in_order():
    parent = [_record("live", seed, 10.0 + seed / 100) for seed in range(10)]
    change = [_record("live", seed, 9.5 + seed / 10) for seed in range(10)]
    (verdict,) = compare.compare(parent, change, SPEC)
    assert (verdict.pairs, verdict.won, verdict.lost) == (10, 6, 4)
    assert verdict.verdict != "better"
    (verdict,) = compare.compare(parent, change[:9], SPEC)
    assert (verdict.pairs, verdict.won, verdict.lost) == (9, 6, 3)


def test_different_sizes_are_never_compared():
    parent = [_record("live", seed, 10.0) for seed in range(10)]
    change = [_record("live", seed, 8.0, records=200) for seed in range(10)]
    (verdict,) = compare.compare(parent, change, SPEC)
    assert verdict.verdict == "incomparable"


def test_load_skips_traced_runs(tmp_path):
    path = tmp_path / "runs.jsonl"
    untraced = _record("live", 1, 10.0)
    traced = dict(untraced, trace=1)
    path.write_text("\n".join(compare.json.dumps(r)
                              for r in (untraced, traced)) + "\n")
    assert compare.load(path) == [untraced]
