import math
import statistics

import pytest

from perfbench import stats


def test_nearest_rank_matches_definition():
    values = [float(x) for x in range(1, 101)]
    assert stats.nearest_rank(values, 50) == (50.0, 50)
    assert stats.nearest_rank(values, 90) == (90.0, 90)
    assert stats.nearest_rank(values, 99.9) == (100.0, 100)
    assert stats.nearest_rank([7.0], 0) == (7.0, 1)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, pct, value",
    [
        (100, 90.0, 90.0),     # exactly ten beyond p90
        (99, 75.0, 75.0),      # p90 would leave only 9 beyond
        (200, 95.0, 190.0),
        (1000, 99.0, 990.0),
        (10000, 99.9, 9990.0),
    ],
)
def test_tail_is_highest_grid_percentile_with_ten_beyond(n, pct, value):
    values = [float(x) for x in range(n, 0, -1)]  # order must not matter
    got, got_pct, beyond = stats.tail(values)
    assert (got, got_pct) == (value, pct)
    assert beyond >= stats.TAIL_BEYOND
    assert sum(1 for v in values if v > got) == beyond


def test_tail_of_short_run_is_the_median_with_fewer_beyond():
    values = [float(x) for x in range(1, 15)]
    got, pct, beyond = stats.tail(values)
    assert (got, pct, beyond) == (7.0, 50.0, 7)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, med, q3 = stats.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 10.0, 9.5, 10.5, 10.0, 10.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(stats.spread([-1.0, 0.0, 1.0]))



def test_running_median_and_interpolation():
    assert stats.running_median([1.0, 9.0, 2.0, 3.0, 8.0], 3) == [5.0, 2.0, 3.0, 3.0, 5.5]
    xs, ys = [0.0, 1.0, 3.0], [10.0, 20.0, 40.0]
    assert stats.interpolate(-1.0, xs, ys) == 10.0
    assert stats.interpolate(2.0, xs, ys) == 30.0
    assert stats.interpolate(5.0, xs, ys) == 40.0


def test_speed_scaled_divides_out_the_slowdown_at_each_op():
    # the probe takes 1 ms until t = 10 and 2 ms after: the machine runs at half speed
    probe_times = [float(t) for t in range(21)]
    probe_durations = [1e-3] * 11 + [2e-3] * 10
    scaled = stats.speed_scaled([0.5, 1.0, 1.0], [2.0, 18.0, 10.5], probe_times, probe_durations, 1e-3, 1)
    assert scaled == pytest.approx([0.5, 0.5, 1.0 / 1.5])
    # a lone outlier among the probes is smoothed away by the running median
    probe_durations[3] = 9e-3
    assert stats.speed_scaled([0.5], [3.0], probe_times, probe_durations, 1e-3) == [0.5]


def test_repeat_tail_outvotes_a_slowed_repeat():
    # 50 inputs, input k costs k ms, five passes; one repeat of each of 20 inputs is slowed 10x
    inputs = [k for _ in range(5) for k in range(1, 51)]
    values = [float(k) for k in inputs]
    for j in range(20):
        values[j * 11] *= 10
    assert stats.repeat_tail(values, inputs) == (38.0, 75.0, 12, "inputs")
    assert stats.tail(values)[0] > 50.0  # over all ops the slowed repeats set the tail


def test_repeat_tail_with_too_few_inputs_is_the_tail_of_all_ops():
    inputs = [k % 18 for k in range(72)]
    values = [float(v) for v in range(72)]
    assert stats.repeat_tail(values, inputs) == (*stats.tail(values), "ops")
