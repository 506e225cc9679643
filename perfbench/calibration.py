"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed one process gets drifts by tens of percent
over seconds to minutes, and the drift hits every kind of work alike. On
the 2-core machine this benchmark was built on, the run medians of a fixed
NumPy kernel spread by 26% (IQR over median) across ten 8-second runs and
by 16% across 30-second runs, while the kernel's time divided by the time
of the calibration kernel below stayed within a few percent. The speed
also flips between a fast and a slow level (about 1.7x apart) within a
single 3-second command.

So the benchmark times this fixed kernel right before and right after a
measured block of work and, every PERIOD_S seconds, inside it: a SIGALRM
handler interrupts the block between two Python bytecodes and runs the
kernel once. The block's time without those samples is cut into segments
at the samples, and each segment is scaled to a reference speed by the
two samples around it:

    scaled = sum(segment * REFERENCE_S / mean(sample before, sample after))

REFERENCE_S is the kernel's time at the reference speed, fixed here, so a
scaled second is a wall second on a machine where the kernel takes
REFERENCE_S. The kernel mixes the kinds of work kqn does: small NumPy
operations in a Python loop, a BLAS product, a fancy-index copy, and
float formatting and parsing as in the CSV and JSON files kqn writes.
Raw wall times (without the samples) stay in the run report.

Timing a 3-second paper-size DKT fit eight times, the scaled times spread
by 10% (coefficient of variation) with samples at the ends only and by 3%
with a sample every 0.25 s.
"""
from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.006
REPEATS = 3
PERIOD_S = 0.25


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(16, 100))
        self.wx = rng.normal(size=(128, 100))
        self.h = rng.normal(size=(16, 32))
        self.wh = rng.normal(size=(128, 32))
        self.a = rng.normal(size=(128, 128))
        self.b = rng.normal(size=(128, 512))
        self.square = rng.normal(size=(600, 600))
        self.rows = np.arange(0, 600, 2)
        self.values = rng.normal(size=800)
        # Segment lengths and kernel times of the block being measured;
        # None outside measure(). The handler stays installed, so a signal
        # that arrives late finds it and does nothing.
        self._segments = None
        self._samples = None
        self._mark = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _kernel(self) -> None:
        for _ in range(40):
            np.tanh(self.x @ self.wx.T + self.h @ self.wh.T)
        for _ in range(3):
            self.a @ self.b
        self.square[np.ix_(self.rows, self.rows)].sum()
        text = ",".join(repr(float(v)) for v in self.values)
        sum(float(tok) for tok in text.split(","))
        json.loads(json.dumps({"w": self.values.tolist()}))

    def _once(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def sample(self) -> float:
        """Median seconds of a few back-to-back kernel runs."""
        return statistics.median(self._once() for _ in range(REPEATS))

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking wall seconds measured between two samples to
        seconds at the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))

    def _tick(self, signum, frame) -> None:
        if self._segments is None:
            return
        self._segments.append(time.perf_counter() - self._mark)
        self._samples.append(self._once())
        self._mark = time.perf_counter()

    def measure(self, fn, inside=True):
        """Call fn() and return (result, wall seconds, scaled seconds).

        The wall seconds leave out the samples taken inside the call. With
        `inside` unset the call is bracketed by samples only, for code whose
        own timings must not include the samples (traced runs).

        Garbage that earlier work in this process left is collected first,
        outside the measurement: a command run from the shell starts in a
        fresh process, so none of it would be collected inside the command."""
        gc.collect()
        samples = [self.sample()]
        segments = []
        self._samples, self._segments = samples, segments
        if inside:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._mark = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # A tick still pending runs before this line or finds nothing.
            self._segments = None
            self._samples = None
            segments.append(time.perf_counter() - self._mark)
        samples.append(self.sample())
        scaled = sum(
            seconds * self.scale(samples[i], samples[i + 1]) for i, seconds in enumerate(segments)
        )
        return result, sum(segments), scaled
