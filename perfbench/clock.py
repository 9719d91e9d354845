"""Drift-corrected host timing.

The shared VMs this benchmark targets change speed by tens of percent
within a second and by up to 2x between phases that last several
seconds, so a raw wall-clock interval says more about the neighbours
than about the code.  :class:`DriftClock` therefore times a short
reference loop between operations (and between slices of a long
simulation), and reports every interval between two marks twice: as
raw wall seconds and rescaled by ``NOMINAL_REF_S / measured_ref``, where
``measured_ref`` is the mean of the reference samples within ``WINDOW``
marks of it.  One sample jitters by about 20%; the window averages that
out while still following drift phases that last seconds.  The
corrected time is "seconds at the speed the reference loop had when
``NOMINAL_REF_S`` was fixed", which cancels drift that hits the
reference loop and the measured code alike.  Intervals are best
computed once the run is over, so that every window is complete.

The reference loop allocates no containers, so garbage-collector
thresholds or interpreter settings made by the code under test cannot
change its speed.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Tuple

__all__ = ["DriftClock", "reference_loop", "REF_ITERS", "NOMINAL_REF_S",
           "WINDOW", "MARK_S"]

#: Steps per reference sample: about 1.5-3 ms of host time on a 2-core
#: x86 VM running CPython 3.11, so sampling every ``MARK_S`` costs ~4%.
REF_ITERS = 4_000

#: Host seconds between marks inside a long simulation.
MARK_S = 0.06

#: The fixed nominal duration of one reference sample.  Only its
#: constancy matters (it sets the unit of corrected seconds); it is about
#: the duration measured on that VM.
NOMINAL_REF_S = 0.0015

#: Samples on each side of an interval that its reference estimate
#: averages (8 samples in all: about half a second of a sliced run).
WINDOW = 3

_perf = time.perf_counter

#: The reference loop's pending "event times": 1024 floats, small enough
#: to stay in the L1/L2 caches whatever the measured code left there.
_HEAP = [float(k) for k in range(1024)]
#: Fixed, varied increments, so pushes land at different heap depths.
_DELTAS = [1.0 + (k * 7919 % 1000) / 250.0 for k in range(1024)]


def _coroutine():
    acc = 0
    while True:
        acc = (acc + (yield acc)) & 255


_CORO = _coroutine()
next(_CORO)


def reference_loop() -> None:
    """A fixed miniature of an event engine's inner loop: pop the
    earliest time from a heap and push a later one
    (``heapq.heapreplace`` on a preallocated list), with a generator
    resumption every eighth step.

    It allocates floats and ints but never a container, so it does not
    advance the garbage collector's counts.  On the 2-core VM it tracked
    the drift of simulation, analysis and sweep work better than pure
    integer arithmetic or pointer chases through a few MB of objects,
    whose speed also depends on what the measured code left in the
    caches.
    """
    heap = _HEAP
    replace = heapq.heapreplace
    deltas = _DELTAS
    send = _CORO.send
    n = REF_ITERS
    i = 0
    while i < n:
        replace(heap, heap[0] + deltas[i & 1023])
        if i & 7 == 0:
            send(i & 255)
        i += 1


class DriftClock:
    """Reference-interleaved timer.

    Call :meth:`mark` between operations; it takes one reference sample
    and returns its index.  :meth:`interval` then reports the raw and
    the corrected seconds between two marks, excluding the time spent in
    the reference samples themselves.
    """

    def __init__(self) -> None:
        #: ``(start, end, ref_seconds)`` per sample, in perf_counter time.
        self.samples: List[Tuple[float, float, float]] = []
        #: Called with each sample's duration (the tracer uses it to keep
        #: samples out of span self times).
        self.on_mark = None

    def mark(self) -> int:
        """Take a reference sample and return its index."""
        t0 = _perf()
        reference_loop()
        t1 = _perf()
        self.samples.append((t0, t1, t1 - t0))
        if self.on_mark is not None:
            self.on_mark(_perf() - t0)
        return len(self.samples) - 1

    def interval(self, first: int, last: int) -> Tuple[float, float]:
        """``(raw_s, corrected_s)`` between marks ``first`` and ``last``."""
        samples = self.samples
        n = len(samples)
        prefix = [0.0]
        for sample in samples:
            prefix.append(prefix[-1] + sample[2])
        raw = corrected = 0.0
        for k in range(first, last):
            gap = samples[k + 1][0] - samples[k][1]
            lo = max(0, k - WINDOW)
            hi = min(n, k + 2 + WINDOW)
            ref = (prefix[hi] - prefix[lo]) / (hi - lo)
            raw += gap
            corrected += gap * NOMINAL_REF_S / ref
        return raw, corrected

    def record(self) -> dict:
        """The reference samples, for auditing the correction."""
        if not self.samples:
            return {"nominal_ref_s": NOMINAL_REF_S, "samples": 0}
        origin = self.samples[0][0]
        refs = sorted(s[2] for s in self.samples)
        return {
            "nominal_ref_s": NOMINAL_REF_S,
            "ref_iters": REF_ITERS,
            "window": WINDOW,
            "samples": len(self.samples),
            "ref_min_s": refs[0],
            "ref_median_s": refs[len(refs) // 2],
            "ref_max_s": refs[-1],
            # [start, ref] per sample; the gap before sample k+1 is
            # start[k+1] - start[k] - ref[k].
            "series": [[round(s - origin, 7), round(r, 7)]
                       for s, _, r in self.samples],
        }
