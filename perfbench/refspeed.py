"""A fixed reference kernel, run between timed steps to measure core speed.

On a shared host a core runs a single thread at full speed while its
hyperthread sibling is idle and at about half speed while the sibling is
busy, switching every half second or so.  A run therefore mixes fast and
slow spells in a share that drifts from minute to minute, and raw times
of the same work move by up to 2x between runs.

``Meter`` times a sequence of steps (one link call, one sweep cell, one
training stage) and runs ``kernel`` before the first step and after each
step.  A step's *reference cost* is its time divided by the mean time of
the kernel runs that bracket it: a slow spell slows both by about the
same factor.  The kernel mixes what ofdmemu spends its time on: an
interpreter loop, many small NumPy calls, small matmuls and FFTs.  It is
part of the benchmark, not of ofdmemu, so a change to ofdmemu never
changes it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((48, 48))
_X = _RNG.standard_normal(1024) + 1j * _RNG.standard_normal(1024)
_M = _RNG.standard_normal(64)


def kernel() -> float:
    """Run the reference work once (about 1.25 ms on an idle core); return seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += (i * i) % 7
    m = _M.copy()
    for _ in range(200):
        m = np.minimum(m + 1.0, m[::-1]) * 0.5
    a = _A
    for _ in range(4):
        a = np.tanh(a @ _A / 48.0)
    x = _X
    for _ in range(6):
        x = np.fft.ifft(np.fft.fft(x) * 0.5) + _X
    return time.perf_counter() - t0


class Meter:
    """Wall time and reference cost of each step between ``start`` and ``tick``s."""

    def __init__(self):
        self.seconds: list[float] = []
        self.cost: list[float] = []
        self.kernel_s: list[float] = []

    def start(self) -> None:
        self.kernel_s.append(kernel())
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """End the current step and start the next one."""
        seconds = time.perf_counter() - self._t0
        before = self.kernel_s[-1]
        self.kernel_s.append(kernel())
        self.seconds.append(seconds)
        self.cost.append(seconds / ((before + self.kernel_s[-1]) / 2))
        self._t0 = time.perf_counter()
