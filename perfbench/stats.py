"""Order statistics shared by the runner, the series summary and compare mode."""

from __future__ import annotations

import bisect
import math
import statistics

# Tail percentiles tried from the highest down; the tail is the first one that
# still leaves at least TAIL_BEYOND samples above it.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of already sorted values, with its 1-based rank."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    # rounding first keeps float dust (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing the rank up by one
    rank = max(1, math.ceil(round(pct / 100.0 * len(sorted_values), 9)))
    return sorted_values[rank - 1], rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the latency tail.

    The tail is the highest grid percentile that has at least TAIL_BEYOND
    samples above it.  A run too short for even the median to qualify
    reports the median, with the smaller number of samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_GRID:
        value, rank = nearest_rank(ordered, pct)
        if n - rank >= TAIL_BEYOND:
            break
    return value, pct, n - rank


def repeat_tail(values: list[float], inputs: list) -> tuple[float, float, int, str]:
    """(value, percentile, samples beyond, over) of the tail of ops that repeat inputs.

    ``inputs[k]`` names the input of op ``k``; a run of whole passes repeats
    each input once a pass.  Where the run holds enough distinct inputs for a
    tail above the median, each input's latency is the median of its repeats
    and the tail is taken over those: a repeat that the shared machine slowed
    is outvoted by the others, so the tail shows the slow inputs and not the
    machine's hiccups.  With fewer inputs the tail is taken over all ops.
    ``over`` says which: ``"inputs"`` or ``"ops"``.
    """
    repeats: dict = {}
    for value, key in zip(values, inputs):
        repeats.setdefault(key, []).append(value)
    value, pct, beyond = tail([statistics.median(r) for r in repeats.values()])
    if pct > TAIL_GRID[-1]:
        return value, pct, beyond, "inputs"
    return (*tail(values), "ops")


def running_median(values: list[float], window: int) -> list[float]:
    """Median of each value's centred window (shorter at the ends)."""
    half = window // 2
    return [
        statistics.median(values[max(0, i - half) : i + half + 1]) for i in range(len(values))
    ]


def interpolate(x: float, xs: list[float], ys: list[float]) -> float:
    """Piecewise-linear y at x through sorted points (xs, ys), flat beyond the ends."""
    j = bisect.bisect_left(xs, x)
    if j == 0:
        return ys[0]
    if j == len(xs):
        return ys[-1]
    x0, x1, y0, y1 = xs[j - 1], xs[j], ys[j - 1], ys[j]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0) if x1 > x0 else y1


def speed_scaled(
    durations: list[float],
    mids: list[float],
    probe_times: list[float],
    probe_durations: list[float],
    reference: float,
    window: int = 5,
) -> list[float]:
    """Durations rescaled to the machine speed at which the probe takes ``reference``.

    The probe is a fixed piece of work timed between ops.  Its smoothed
    duration, interpolated at each op's midpoint, says how slow the machine
    ran then; an op that overlapped a period twice as slow as the reference
    counts half its wall time.
    """
    smooth = running_median(probe_durations, window)
    return [
        d * reference / interpolate(m, probe_times, smooth) for d, m in zip(durations, mids)
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (inf for a zero median)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
