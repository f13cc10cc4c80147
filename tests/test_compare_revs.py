"""The house rule's verdict (``benchmarks/compare_revs.py``) on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_revs", REPO / "benchmarks/compare_revs.py"
)
compare_revs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_revs)
verdict, count_wins = compare_revs.verdict, compare_revs.count_wins

PARENT = [4.0, 4.4, 4.1, 5.0, 4.6, 4.2, 4.8, 4.3, 4.5, 4.7]  # IQR ~ 0.55


def test_all_wins_beyond_the_parent_spread_is_resolved_better():
    change = [p / 2 for p in PARENT]
    assert count_wins(PARENT, change, "lower") == (10, 0)
    assert verdict(PARENT, change, "lower") == "resolved-better"
    # The same samples read the other way round are a resolved loss.
    assert verdict(PARENT, change, "higher") == "resolved-worse"
    assert verdict(change, PARENT, "lower") == "resolved-worse"


def test_nine_of_ten_is_enough_and_eight_is_not():
    nine = [p / 2 for p in PARENT[:9]] + [PARENT[9] * 2]
    eight = [p / 2 for p in PARENT[:8]] + [p * 2 for p in PARENT[8:]]
    assert count_wins(PARENT, nine, "lower") == (9, 1)
    assert verdict(PARENT, nine, "lower") == "resolved-better"
    assert count_wins(PARENT, eight, "lower") == (8, 2)
    assert verdict(PARENT, eight, "lower") == "unresolved"


def test_a_tie_is_a_win_for_neither_side():
    # Eight wins and two ties: 8 < 0.9 * 10, so not resolved.
    change = [p / 2 for p in PARENT[:8]] + PARENT[8:]
    assert count_wins(PARENT, change, "lower") == (8, 0)
    assert verdict(PARENT, change, "lower") == "unresolved"
    assert verdict(PARENT, list(PARENT), "lower") == "unresolved"


def test_wins_inside_the_parent_spread_are_unresolved():
    change = [p - 0.1 for p in PARENT]  # 10/10 wins, delta 0.1 < IQR
    assert count_wins(PARENT, change, "lower") == (10, 0)
    assert verdict(PARENT, change, "lower") == "unresolved"


def test_zero_iqr_resolves_on_any_consistent_difference():
    parent = [96.0] * 10  # e.g. peak_rss_mb: exact on this host
    assert verdict(parent, [95.5] * 10, "lower") == "resolved-better"
    assert verdict(parent, [96.5] * 10, "lower") == "resolved-worse"
    assert verdict(parent, [96.0] * 10, "lower") == "unresolved"


def test_crossed_medians_are_unresolved():
    # The change wins nine pairs, yet its median is the worse one.
    parent = [10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    change = [9.0, 9.0, 9.0, 9.0, 0.9, 0.9, 0.9, 0.9, 0.9, 50.0]
    assert count_wins(parent, change, "lower") == (9, 1)
    assert verdict(parent, change, "lower") == "unresolved"


def test_fewer_than_ten_pairs_resolve_nothing():
    assert verdict(PARENT[:9], [p / 2 for p in PARENT[:9]], "lower") == "unresolved"
    assert verdict([4.0], [1.0], "lower") == "unresolved"


def test_exact_metric_resolves_from_three_unanimous_pairs():
    # PR 18's unclaimed 260 -> 207 MiB read "unresolved" at five pairs.
    parent, change = [260.5, 260.4, 260.6], [207.3, 207.4, 207.3]
    assert verdict(parent, change, "lower") == "unresolved"  # a time metric would be
    assert verdict(parent, change, "lower", exact=True) == "resolved-better"
    assert verdict(change, parent, "lower", exact=True) == "resolved-worse"
    assert verdict(parent[:2], change[:2], "lower", exact=True) == "unresolved"


def test_exact_metric_needs_every_pair_and_two_percent():
    parent = [100.0, 100.0, 100.0, 100.0]
    # One tie or one loss among the pairs: not unanimous.
    assert verdict(parent, [90.0, 90.0, 90.0, 100.0], "lower", exact=True) == "unresolved"
    assert verdict(parent, [90.0, 90.0, 90.0, 101.0], "lower", exact=True) == "unresolved"
    # Unanimous, but inside 2 % of the parent's median.
    assert verdict(parent, [98.5] * 4, "lower", exact=True) == "unresolved"
    assert verdict(parent, [97.5] * 4, "lower", exact=True) == "resolved-better"
    assert verdict(parent, [102.5] * 4, "lower", exact=True) == "resolved-worse"


def test_exact_metric_still_resolves_by_the_ten_pair_rule():
    # 0.5 % apart: too close for the short rule, resolved by the long one.
    assert verdict([96.0] * 10, [95.5] * 10, "lower", exact=True) == "resolved-better"
    # Nine of ten: not unanimous, but the house rule accepts it.
    nine = [p / 2 for p in PARENT[:9]] + [PARENT[9] * 2]
    assert verdict(PARENT, nine, "lower", exact=True) == "resolved-better"


def test_only_a_worse_exact_metric_is_reported_as_a_regression():
    directions = {"wall_s": "lower", "peak_rss_mb": "lower"}
    slower = {"wall_s": [p * 2 for p in PARENT], "peak_rss_mb": [96.0] * 10}
    fatter = {"wall_s": PARENT, "peak_rss_mb": [207.0, 207.1, 206.9]}
    base = {"wall_s": PARENT, "peak_rss_mb": [96.0] * 10}
    assert compare_revs.exact_regressions({"parent": base, "change": slower}, directions) == []
    lean = {"wall_s": PARENT, "peak_rss_mb": [85.8, 85.7, 85.8]}
    assert compare_revs.exact_regressions(
        {"parent": lean, "change": fatter}, directions
    ) == ["peak_rss_mb"]
    assert compare_revs.exact_regressions({"parent": fatter, "change": lean}, directions) == []


def test_malformed_samples_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        verdict([], [], "lower")
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "smaller")


def test_table_lists_every_metric_with_its_verdict():
    samples = {
        "parent": {"wall_s": PARENT, "peak_rss_mb": [96.0] * 10},
        "change": {"wall_s": [p / 2 for p in PARENT], "peak_rss_mb": [96.0] * 10},
    }
    table = compare_revs.format_table(
        "serve_fleet_churn", samples, {"wall_s": "lower", "peak_rss_mb": "lower"}
    )
    rows = table.splitlines()
    assert rows[0].startswith("serve_fleet_churn")
    assert rows[2].split()[:4] == ["wall_s", "lower", "10", "10"]
    assert rows[2].endswith("resolved-better")
    assert rows[3].endswith("unresolved")
    # The table applies the exact rule to peak_rss_mb and only to it.
    three = {
        "parent": {"wall_s": [4.0, 4.1, 4.2], "peak_rss_mb": [207.4, 207.3, 207.4]},
        "change": {"wall_s": [2.0, 2.1, 2.2], "peak_rss_mb": [85.8, 85.7, 85.8]},
    }
    rows = compare_revs.format_table(
        "train_seq_cache", three, {"wall_s": "lower", "peak_rss_mb": "lower"}
    ).splitlines()
    assert rows[2].endswith("unresolved")
    assert rows[3].endswith("resolved-better")
