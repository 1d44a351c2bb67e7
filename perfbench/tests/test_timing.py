import statistics

import pytest

from timing import percentile, slowest_sum, tail_percentile, upper_quartile


@pytest.mark.parametrize("n, p", [
    (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9), (10 ** 6, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_is_the_highest_candidate():
    for n in range(20, 3000):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 - 1e-9
        higher = [c for c in (50, 75, 90, 95, 99, 99.9) if c > p]
        assert all(n * (100 - c) / 100 < 10 - 1e-9 for c in higher)


def test_percentile_interpolates_like_inclusive_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert percentile(xs, 25) == pytest.approx(q1)
    assert percentile(xs, 50) == pytest.approx(q2) == statistics.median(xs)
    assert percentile(xs, 75) == pytest.approx(q3)
    assert percentile(xs, 0) == 1.0 and percentile(xs, 100) == 10.0
    assert percentile([2.5], 90) == 2.5


def test_slowest_sum_takes_each_jobs_maximum_over_passes():
    passes = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 0.5]]
    assert slowest_sum(passes) == 3.0 + 6.0 + 2.5
    assert slowest_sum([[1.0, 2.0]]) == 3.0
    with pytest.raises(ValueError):
        slowest_sum([[1.0, 2.0], [1.0]])


def test_upper_quartile_stays_within_the_samples():
    assert upper_quartile([3.0, 1.0, 2.0]) == 3.0
    assert upper_quartile([1.0, 2.0, 3.0, 4.0]) == pytest.approx(3.75)
    assert upper_quartile(list(range(1, 20))) == 15
    with pytest.raises(ValueError):
        upper_quartile([1.0, 2.0])
