"""The A/B pair summary of `tests/bench_pairs.py`."""

import bench_pairs


def run(pair, side, wall, found=1.0, exit_code=0, correct=True):
    metrics = {"wall_s": {"value": wall}, "found_share": {"value": found}}
    return {
        "workload": "w", "pair": pair, "side": side, "exit_code": exit_code,
        "result": {"correct": correct, "metrics": metrics},
    }


def test_summary_counts_wins_by_direction_and_skips_failed_pairs():
    runs = [
        run(0, "parent", 2.0), run(0, "change", 1.5),
        run(1, "change", 1.6), run(1, "parent", 2.2),
        run(2, "parent", 1.8, found=0.5), run(2, "change", 1.9),
        run(3, "parent", 9.0), run(3, "change", 1.0, exit_code=1),
        run(4, "parent", 9.0, correct=False), run(4, "change", 1.0),
    ]
    assert [bench_pairs.failed(r) for r in runs[6:]] == [False, True, True, False]
    summary = bench_pairs.summarize(runs, {"wall_s": "lower", "found_share": "higher"})["w"]
    assert summary["pairs"] == 3
    wall = summary["wall_s"]
    assert (wall["change_won_pairs"], wall["parent_won_pairs"]) == (2, 1)
    assert wall["parent"] == {"median": 2.0, "p25": 1.9, "p75": 2.1}
    assert wall["change"]["median"] == 1.6
    assert abs(wall["parent_iqr"] - 0.2) < 1e-12
    assert wall["median_gain_exceeds_parent_iqr"]
    found = summary["found_share"]
    # higher is better: the change's 1.0 beats the parent's 0.5 in pair 2
    assert (found["change_won_pairs"], found["parent_won_pairs"]) == (1, 0)
    assert not found["median_gain_exceeds_parent_iqr"]
