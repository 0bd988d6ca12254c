"""Reference-speed clock for op and set-up times.

On a shared 2-core virtual machine the speed of the CPU drifts by up to 25%
within seconds and by up to 2x over tens of minutes, and the drift, not the
program, set most of the spread between runs (fit-coarse ops/s: 20%
IQR/median over six runs raw).  So a run times a fixed kernel that touches
nothing of the package: in bursts next to its ops, at most every
``EVERY_S``, and from a timer every ``EVERY_S`` while ops run, in this
process and in every child (child.py).  A measured interval loses the kernel
time spent inside it and is multiplied by ``REFERENCE_S`` over the median
kernel time of the samples in and next to it: it then reads in seconds of a
machine that runs the kernel in ``REFERENCE_S``.  A change to the package
cannot move the kernel, so the rescaling cancels between two versions of the
program.
"""

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 1.0e-3        # the kernel's median time where this was written
EVERY_S = 0.1
NEIGHBOURS = 3              # samples used on each side of an interval
_MATRIX = np.random.default_rng(0).standard_normal((6, 6)) / 3.0
_STEP = _MATRIX[:3, :3] / 4.0 + 0.1j


def kernel():
    """Small LAPACK calls, a loop of 3x3 complex products (like a simulate
    step) and plain interpreter work: the three kinds of work the package
    does, whose speeds the host's load moves by different amounts."""
    for _ in range(15):
        scipy.linalg.expm(_MATRIX)
        np.linalg.solve(_MATRIX, _MATRIX)
    y = np.ones(3, dtype=complex)
    for _ in range(250):
        y = _STEP @ y + 1.0
    total = 0
    for i in range(3500):
        total += i * i % 7


class RefClock:
    def __init__(self):
        self.times = []         # start of each kernel sample, increasing
        self.seconds = []       # its duration
        self._burst = -EVERY_S  # time of the last ``calibrate``
        self._sampling = False

    def sample(self, *_):
        if self._sampling:      # the timer fired during a burst
            return
        self._sampling = True
        start = time.monotonic()
        kernel()
        self.times.append(start)
        self.seconds.append(time.monotonic() - start)
        self._sampling = False

    def calibrate(self):
        """NEIGHBOURS samples now, next to an interval about to start or just ended."""
        for _ in range(NEIGHBOURS):
            self.sample()
        self._burst = time.monotonic()

    def tick(self):
        """``calibrate`` if the last one is older than EVERY_S; called before
        and after every op, so that the samples next to an op are recent."""
        if time.monotonic() - self._burst >= EVERY_S:
            self.calibrate()

    def start(self):
        """Sample every EVERY_S from a SIGALRM handler until ``stop``."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start, end, samples=(), sampling_s=0.0):
        """The interval [start, end] (``time.monotonic`` seconds) at reference
        speed.  A child process passes the kernel times it sampled itself and
        the time they took."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = sum(self.seconds[lo:hi]) + sampling_s
        near = self.seconds[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS] + list(samples)
        return (end - start - inside) * REFERENCE_S / statistics.median(near)
