import statistics

import pytest

from summary import relative_spread, summarize


def test_quartiles_of_one_to_ten():
    s = summarize(range(1, 11))
    assert (s.q1, s.median, s.q3, s.n, s.mean) == (2.75, 5.5, 8.25, 10, 5.5)


def test_matches_statistics_quantiles():
    values = [3.1, 0.2, 7.7, 5.0, 4.4, 9.9, 1.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == (med, q1, q3, 7, statistics.fmean(values))


def test_median_is_middle_value_and_mean_follows_the_tail():
    s = summarize([9.0, 1.0, 2.0])
    assert (s.median, s.mean) == (2.0, 4.0)


def test_single_sample_is_its_own_quartiles():
    assert summarize([2.5]) == (2.5, 2.5, 2.5, 1, 2.5)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_relative_spread_is_iqr_over_median():
    assert relative_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert relative_spread([4.0, 4.0, 4.0]) == 0.0
