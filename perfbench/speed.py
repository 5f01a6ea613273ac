"""Following the machine's speed while a run measures.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, so two runs of the same code can differ by more than a
change under test.  A probe times a fixed piece of work between ops; times
are reported scaled to the speed at which the probe takes
SPEED_REFERENCE_S (see ``stats.speed_scaled``).  The probe uses only the
interpreter and numpy, never the package, so a change to the package cannot
move the reference.
"""

from __future__ import annotations

from time import perf_counter

# Probe duration that defines the reference speed: the probe's duration in
# the fast state of the shared 2-core x86 virtual machine (Python 3.11,
# numpy 2.4) the benchmark was defined on, so scaled times read close to its
# wall times.
SPEED_REFERENCE_S = 0.65e-3


class SpeedProbe:
    """Times a fixed piece of work; ``times`` holds midpoints, ``durations`` lengths.

    The work mixes an interpreter loop with small numpy products, as the
    workloads do, so it slows down when they do.  It runs once untimed before
    it is timed, so the op before it, whatever memory it touched, leaves the
    timed run the same warm caches.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        import numpy

        self._x = numpy.random.default_rng(0).standard_normal((2000, 8))
        self._v = numpy.ones(8)
        self.times: list[float] = []
        self.durations: list[float] = []

    def _work(self) -> None:
        acc = 0
        for k in range(5000):
            acc += k * k
        for _ in range(25):
            self._x.T @ (self._x @ self._v)

    def sample(self) -> None:
        self._work()
        start = perf_counter()
        self._work()
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.sample()
