"""Self-time arithmetic and the tail-percentile rule."""

import pytest

from perfbench.stats import covered_ns, percentile, self_ns, tail


def test_self_time_subtracts_disjoint_children():
    assert self_ns(0, 100, [(10, 20), (30, 50)]) == 70


def test_self_time_counts_overlapping_children_once():
    # Two concurrent children share [30, 40): the union is 10..50, 40 long.
    assert covered_ns([(10, 40), (30, 50)], 0, 100) == 40
    assert self_ns(0, 100, [(30, 50), (10, 40)]) == 60


def test_self_time_ignores_contained_and_outside_parts():
    children = [(10, 60), (20, 30), (-50, 5), (95, 200)]
    # Clipped to [0, 100): 0..5, 10..60 (20..30 inside it), 95..100.
    assert covered_ns(children, 0, 100) == 5 + 50 + 5
    assert self_ns(0, 100, children) == 40


def test_self_time_never_negative_when_children_cover_everything():
    assert self_ns(0, 100, [(0, 60), (40, 100), (10, 20)]) == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_takes_highest_percentile_with_ten_beyond():
    # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    assert tail(list(range(1, 101))) == (90.0, 90, 10)
    # 1000 samples: p99 leaves 10 beyond.
    assert tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0, 10)
    # 999 samples: p99 leaves 9, so p95 (49 beyond) is reported.
    assert tail([float(v) for v in range(1, 1000)]) == (95.0, 950.0, 49)


def test_tail_counts_ties_as_not_beyond():
    # The top 20 samples are equal: p90 and p95 both read that value and
    # leave nothing beyond it, so p50 is the highest valid percentile.
    values = [float(v) for v in range(1, 81)] + [500.0] * 20
    assert tail(values) == (50.0, 50.0, 50)


def test_tail_falls_back_to_median_with_few_samples():
    q, value, beyond = tail([3.0, 1.0, 2.0])
    assert (q, value) == (50.0, 2.0)
    assert beyond == 1
