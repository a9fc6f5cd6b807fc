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


def ten_pairs(parent_walls, change_walls):
    return [
        run(pair, side, wall)
        for pair, walls in enumerate(zip(parent_walls, change_walls))
        for side, wall in zip(("parent", "change"), walls)
    ]


def test_summary_flags_the_bound_and_the_gain_rule():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]  # median 1.1, IQR 0.2
    # 9 of 10 pairs won, median gain 0.3 > IQR
    runs = ten_pairs(parent, [0.8] * 9 + [1.3])
    wall = bench_pairs.summarize(runs, {"wall_s": "lower"}, {"wall_s": 0.25})["w"]["wall_s"]
    assert wall["change_won_pairs"] == 9
    assert wall["gain_rule_met"] and not wall["beyond_bound"]
    # 8 of 10 won: the median gain alone does not meet the rule
    runs = ten_pairs(parent, [0.8] * 8 + [1.3, 1.3])
    wall = bench_pairs.summarize(runs, {"wall_s": "lower"}, {"wall_s": 0.25})["w"]["wall_s"]
    assert not wall["gain_rule_met"]
    # every pair won by less than the parent's IQR
    runs = ten_pairs(parent, [wall - 0.01 for wall in parent])
    wall = bench_pairs.summarize(runs, {"wall_s": "lower"}, {"wall_s": 0.25})["w"]["wall_s"]
    assert wall["change_won_pairs"] == 10 and not wall["gain_rule_met"]
    # 1.1 * 1.25 = 1.375: a median of 1.4 is beyond the bound, 1.35 is not
    for change, beyond in ((1.4, True), (1.35, False)):
        runs = ten_pairs(parent, [change] * 10)
        summary = bench_pairs.summarize(
            runs, {"wall_s": "lower", "found_share": "higher"}, {"wall_s": 0.25}
        )["w"]
        assert summary["wall_s"]["beyond_bound"] is beyond
        # no bound given: no verdict
        assert summary["found_share"]["beyond_bound"] is None
    # higher is better: a found share 10 % below the parent's is beyond a 0.05 bound
    runs = [run(0, "parent", 1.0, found=1.0), run(0, "change", 1.0, found=0.9)]
    found = bench_pairs.summarize(runs, {"found_share": "higher"}, {"found_share": 0.05})["w"]
    assert found["found_share"]["beyond_bound"]


def test_summary_flags_a_spread_wider_than_the_bound_as_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.5, 1.5]  # median 1.5, IQR 1.0
    narrow = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]  # median 1.1, IQR 0.2
    cases = [
        # IQR 1.0 > 0.25 * 1.5, and the sides' runs overlap
        (wide, [1.4] * 10, True),
        # as wide, but every change run reads better than every parent run
        (wide, [0.9] * 10, False),
        # IQR 0.2 < 0.25 * 1.1: the spread is inside the bound
        (narrow, [1.15] * 10, False),
    ]
    for parent, change, unresolved in cases:
        runs = ten_pairs(parent, change)
        summary = bench_pairs.summarize(
            runs, {"wall_s": "lower", "found_share": "higher"}, {"wall_s": 0.25}
        )["w"]
        assert summary["wall_s"]["unresolved"] is unresolved
        assert summary["found_share"]["unresolved"] is None
    # higher is better: parent shares of 0.5 and 1.0, and a change at 1.0
    # that does not beat the parent's best run
    runs = [
        run(pair, side, 1.0, found=found)
        for pair, shares in enumerate([(0.5, 1.0), (1.0, 1.0)] * 5)
        for side, found in zip(("parent", "change"), shares)
    ]
    found = bench_pairs.summarize(runs, {"found_share": "higher"}, {"found_share": 0.05})["w"]
    assert found["found_share"]["unresolved"] is True
