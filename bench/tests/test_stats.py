"""The percentile rule: p95 is reported with at least ten samples beyond it."""

import pytest

from wmbench import stats


def test_nearest_rank_p95_of_200_leaves_ten_beyond():
    samples = list(range(1, 201))
    p95 = stats.percentile(samples, 95)
    assert p95 == 190
    assert stats.count_beyond(samples, p95) == 10


def test_fewer_than_200_samples_leave_fewer_than_ten_beyond():
    samples = list(range(1, 200))
    assert stats.count_beyond(samples, stats.percentile(samples, 95)) < 10


def test_min_samples_for_p95_is_200():
    assert stats.min_samples_for(95) == 200
    assert stats.min_samples_for(50) == 20


def test_percentile_ignores_input_order_and_keeps_ties():
    samples = [5.0, 1.0, 3.0, 3.0, 2.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 95)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    spread = stats.quartile_spread(values)
    assert spread == pytest.approx((10.425 - 9.725) / 10.05)
