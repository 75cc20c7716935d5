"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed moves between
levels about 1.5x apart for seconds at a time.  A run of fixed length then
measures the machine as much as loopinfo.  To take that out, the run times a
fixed reference kernel, which calls nothing of loopinfo, between ops, and
scales each op's time by

    REFERENCE_S / median(reference times within WINDOW_S of the op)

so that a timing reads as on a machine where the kernel takes REFERENCE_S.
A change to loopinfo moves the scaled times as much as the raw ones; a
change of machine speed moves the raw times and the kernel alike.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's typical time on the machine the bounds were set on (a shared
# 2-vCPU Intel Xeon VM).  It only fixes the scale of the reported figures.
REFERENCE_S = 0.005
EVERY_S = 0.06  # seconds of measured work per kernel run
WINDOW_S = 1.0  # kernel runs this close to an op set its speed

_SMALL = np.exp(-1j * np.linspace(0.0, np.pi, 4096))
_LARGE = np.exp(-1j * np.linspace(0.0, np.pi, 131072))
_COEFFS = (1.0, -0.5, 0.25, 0.1, -0.05)
MAX_PYTHON_ITERS = 10000
_SIGNAL = np.sin(np.arange(MAX_PYTHON_ITERS) * 0.37)


class _Section:
    """A first-order recursion stepped one sample at a time, the shape of
    the library's sample-by-sample simulation loop."""

    __slots__ = ("state",)

    def __init__(self):
        self.state = 0.0

    def step(self, x):
        y = x + 0.5 * self.state
        self.state = 0.9 * y
        return y


class _Buffers:
    """Preallocated arrays, so that the kernel allocates no array: how fast
    the allocator hands out memory depends on what loopinfo allocated last."""

    def __init__(self):
        self.zk = np.empty_like(_SMALL)
        self.num = np.empty_like(_SMALL)
        self.den = np.empty_like(_SMALL)
        self.mag = np.empty(_SMALL.shape)
        self.big = np.empty_like(_LARGE)
        self.big_mag = np.empty(_LARGE.shape)
        self.out = np.empty(MAX_PYTHON_ITERS)


_BUF = _Buffers()


def kernel(numpy_rounds: int, python_iters: int) -> float:
    """One run of the reference work; returns its wall time in seconds.  It
    mixes what the workloads do: rounds of numpy calls on 4096-point arrays,
    a pass over 2 MiB complex arrays and a Python-level loop over numpy
    scalars."""
    b = _BUF
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(numpy_rounds):
        np.power(_SMALL, 1 + k % 6, out=b.zk)
        b.num.fill(_COEFFS[0])
        b.den.fill(_COEFFS[-1])
        for c, r in zip(_COEFFS[1:], _COEFFS[-2::-1]):
            b.num *= b.zk
            b.num += c
            b.den *= b.zk
            b.den += r
        np.divide(b.num, b.den, out=b.num)
        np.abs(b.num, out=b.mag)
        b.mag += 1.0
        np.log(b.mag, out=b.mag)
        acc += float(b.mag.mean())
    np.multiply(_LARGE, -0.5, out=b.big)
    b.big += 1.0
    np.abs(b.big, out=b.big_mag)
    np.log(b.big_mag, out=b.big_mag)
    acc += float(b.big_mag.mean())
    section, out = _Section(), b.out
    for t in range(python_iters):
        out[t] = section.step(_SIGNAL[t])
    acc += section.state
    if acc != acc:  # keeps the work live
        raise ArithmeticError("reference kernel produced NaN")
    return time.perf_counter() - t0


class Speedometer:
    """Reference-kernel times with the moment each ended.

    python_share is the share of the kernel spent in the Python loop, about
    the share of interpreter-bound work in the workload's ops: a shared
    machine's slow spells slow the interpreter and numpy by different
    amounts.  Any share gives a kernel of about REFERENCE_S."""

    def __init__(self, python_share: float):
        self._rounds = round(24 * (1.0 - python_share))
        self._iters = round(MAX_PYTHON_ITERS * python_share)
        self.ends: list[float] = []
        self.times: list[float] = []
        self._owed = 0.0

    def sample(self, runs: int = 1) -> None:
        for _ in range(runs):
            dt = kernel(self._rounds, self._iters)
            self.ends.append(time.perf_counter())
            self.times.append(dt)

    def after(self, work_s: float) -> None:
        """Call after `work_s` seconds of measured work: runs the kernel once
        per EVERY_S of work, so its share of the run stays near 8%."""
        self._owed += work_s
        runs = int(self._owed // EVERY_S)
        self._owed -= runs * EVERY_S
        self.sample(runs)

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured over [start, end] to reference
        speed; every kernel run of the record when none is near.  The median
        leaves out kernel runs that another process interrupted."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        near = self.times[lo:hi]
        return REFERENCE_S / statistics.median(near or self.times)

    def run_scale(self) -> float:
        """The factor for a time measured at no particular moment of the run."""
        return REFERENCE_S / statistics.median(self.times)
