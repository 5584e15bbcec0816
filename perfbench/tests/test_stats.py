"""Percentiles and the sample-count rule."""

import numpy as np
import pytest

import stats


@pytest.mark.parametrize("n", [1, 2, 7, 92, 1000])
@pytest.mark.parametrize("p", [0, 20, 50, 90, 99.9, 100])
def test_percentile_matches_numpy_linear(n, p):
    xs = np.random.default_rng(n).lognormal(size=n)
    assert stats.percentile(list(xs), p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def test_beyond_counts_ranks_above_the_interpolation_position():
    xs = list(range(100))
    p90 = stats.percentile(xs, 90)
    assert sum(x > p90 for x in xs) == stats.beyond(100, 90) == 10
    assert stats.beyond(92, 90) == 10
    assert stats.beyond(91, 90) == 9


def test_samples_needed_for_ten_beyond():
    assert stats.samples_needed(90) == 92
    assert stats.samples_needed(50) == 20
    assert stats.samples_needed(99) == 902


@pytest.mark.parametrize("n, level", [(5, None), (19, None), (20, 50.0), (91, 50.0), (92, 90.0),
                                      (902, 99.0), (9002, 99.9)])
def test_tail_level_is_highest_with_ten_beyond(n, level):
    assert stats.tail_level(n) == level
