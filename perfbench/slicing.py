"""Drift-clock marks inside long simulations.

:func:`sliced` runs them in host-time slices; :func:`marked` leaves a
run whole and marks from an observer callback instead.

:func:`sliced` patches :meth:`repro.des.Simulator.run` for the duration
of a ``with`` block.  A call with an ``until`` event (the way
``FxRuntime.execute`` drives every measured run) is split into slices of
at most about ``MARK_S / 2`` host seconds, with a drift-clock mark
between slices once ``MARK_S`` has passed since the last one.  Each
slice stops at whichever comes first: its own simulated horizon or the
caller's ``until`` event.  Stopping only at the horizon would run past
``until`` and capture trailing packets.

The horizon is an ordinary ``Timeout``: it takes a sequence number, but
sequence numbers only break ties between events at one instant and stay
monotone, so the order of every other event is unchanged.  The
benchmark checks that claim on every run by comparing each sliced
trace's sha256 with the recorded or unsliced reference value.

With ``log``, every sliced ``run`` appends its raw and corrected
seconds as one line to that file.  Sweep workers forked inside the
``with`` block keep the patch, and this log is how they report the
drift they saw to the parent.
"""

from __future__ import annotations

import contextlib
import time

from repro.des import Simulator
from repro.des.events import Event, Timeout

from clock import MARK_S

__all__ = ["sliced", "marked"]

_perf = time.perf_counter


@contextlib.contextmanager
def sliced(clock, log=None):
    original = Simulator.run

    def run(self, until=None):
        if not isinstance(until, Event) or until.processed:
            return original(self, until)
        stop_on = self._stop_on
        step = 1e-4
        # Simulated seconds per host second in the densest stretch of
        # about ``MARK_S / 4`` host seconds so far.  Event density
        # changes abruptly (a quiet compute phase, then a burst of
        # traffic), so the horizon is capped by the densest rate seen
        # rather than steered by the last slice alone.
        densest = None
        stretch_sim = stretch_host = 0.0
        last_mark = _perf()
        while True:
            horizon = Timeout(self, step)
            until.callbacks.append(stop_on)
            t0 = _perf()
            sim_t0 = self.now
            try:
                # ``original`` returns (or raises) the ``until`` outcome
                # when the caller's event stops the slice, and returns
                # None at the horizon.
                result = original(self, horizon)
            finally:
                if not until.processed:
                    until.callbacks.remove(stop_on)
            if until.processed:
                return result
            if not len(self.queue) and not self._ready:
                # Out of events before ``until``: let the engine raise
                # its own error.
                return original(self, until)
            t1 = _perf()
            stretch_sim += self.now - sim_t0
            stretch_host += t1 - t0
            if stretch_host >= MARK_S / 4:
                rate = stretch_sim / stretch_host
                densest = rate if densest is None else min(densest, rate)
                stretch_sim = stretch_host = 0.0
            step = 2 * step if densest is None else min(2 * step, densest * MARK_S / 2)
            if t1 - last_mark >= MARK_S:
                clock.mark()
                last_mark = _perf()

    if log is not None:
        unlogged = run

        def run(self, until=None):
            first = clock.mark()
            result = unlogged(self, until)
            raw, corrected = clock.interval(first, clock.mark())
            with open(log, "a") as fh:
                fh.write(f"{raw!r} {corrected!r}\n")
            return result

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


@contextlib.contextmanager
def marked(clock):
    """Mark about every ``MARK_S`` host seconds from inside unsliced
    simulations: the marks ride on the capture's per-frame callback,
    which observes the bus and schedules nothing, so the run is not
    split and its event order cannot change."""
    from repro.capture.trace import TraceRecorder

    original = TraceRecorder._on_frame
    last = _perf()

    def on_frame(self, frame, now):
        nonlocal last
        original(self, frame, now)
        if _perf() - last >= MARK_S:
            clock.mark()
            last = _perf()

    TraceRecorder._on_frame = on_frame
    try:
        yield
    finally:
        TraceRecorder._on_frame = original
