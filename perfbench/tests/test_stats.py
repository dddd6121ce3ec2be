import statistics

import pytest

from perfbench import stats


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        stats.percentile(values, 0.0)


@pytest.mark.parametrize("n, share", [
    (1000, 0.99),   # exactly ten samples above p99
    (5000, 0.99),   # never above the wanted percentile
    (999, 989 / 999),
    (500, 0.98),
    (20, 0.5),
    (19, 1.0),      # the rule only allows a share below the median
    (5, 1.0),
    (1, 1.0),
])
def test_tail_quantile_keeps_ten_samples_beyond(n, share):
    assert stats.tail_quantile(n) == pytest.approx(share)


@pytest.mark.parametrize("n", [20, 21, 100, 999, 1000, 1001, 4321])
def test_tail_leaves_at_least_ten_samples_above(n):
    values = list(range(n))
    share, value, count = stats.tail(values)
    assert count == n
    assert sum(v > value for v in values) >= 10
    assert value >= stats.percentile(values, 0.5)
    assert share <= 0.99


def test_tail_of_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 3.0, 3)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / statistics.median(values)
