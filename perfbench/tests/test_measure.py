"""Percentiles, the tail-sample rule and failure shares."""

import pytest

import measure


def test_nearest_rank_is_the_ceiling_rank():
    assert measure.nearest_rank(10, 50) == 5
    assert measure.nearest_rank(11, 50) == 6
    assert measure.nearest_rank(1, 90) == 1
    assert measure.nearest_rank(120, 90) == 108
    assert measure.nearest_rank(7, 100) == 7


def test_percentile_picks_a_sample_not_an_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == 5.0
    assert measure.percentile([0.25, 0.75], 50) == 0.25


@pytest.mark.parametrize("n, beyond", [(100, 10), (99, 9), (110, 11), (120, 12), (33, 3)])
def test_samples_beyond_p90(n, beyond):
    assert measure.samples_beyond(n, 90) == beyond


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert measure.tail_percentile(values, 90) == 90.0
    with pytest.raises(ValueError, match="9 beyond"):
        measure.tail_percentile(values[:99], 90)


def test_bad_percentile_inputs_raise():
    with pytest.raises(ValueError):
        measure.nearest_rank(0, 50)
    with pytest.raises(ValueError):
        measure.nearest_rank(10, 0)


def test_failed_frac_counts_refused_and_failed_against_attempted():
    assert measure.failed_frac(120, 0) == 0.0
    assert measure.failed_frac(120, 3, refused=3) == 6 / 120
    assert measure.failed_frac(4, 0, refused=4) == 1.0


@pytest.mark.parametrize("attempted, failed, refused", [(0, 0, 0), (5, 4, 2), (5, -1, 0)])
def test_failed_frac_rejects_impossible_counts(attempted, failed, refused):
    with pytest.raises(ValueError):
        measure.failed_frac(attempted, failed, refused)
