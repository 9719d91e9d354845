"""Unit tests for repro.des.simulator run/step semantics."""

import pathlib
import random

import pytest

from repro.des import (EmptySchedule, Event, Interrupt, SimulationError,
                       Simulator, Timeout)
from repro.des.process import _Resume
from repro.programs import run_measured

from .golden import GOLDEN_SWITCHED_P32, legacy_digest

DES_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "des"


@pytest.fixture
def sim():
    return Simulator()


def test_step_on_empty_raises(sim):
    with pytest.raises(EmptySchedule):
        sim.step()


def test_peek_empty_is_inf(sim):
    assert sim.peek() == float("inf")


def test_peek_returns_next_time(sim):
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_run_until_time(sim):
    fired = []
    for d in [1.0, 2.0, 3.0]:
        t = sim.timeout(d)
        t.callbacks.append(lambda e, d=d: fired.append(d))
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5


def test_run_until_time_in_past_raises(sim):
    sim.timeout(5.0)
    sim.run(until=3.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_event_returns_value(sim):
    def worker(sim):
        yield sim.timeout(2.0)
        return "payload"

    proc = sim.process(worker(sim))
    sim.timeout(100.0)  # later event that should not run
    result = sim.run(until=proc)
    assert result == "payload"
    assert sim.now == 2.0


def test_run_until_event_raises_on_failure(sim):
    ev = sim.event()

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(KeyError("nope"))

    sim.process(failer(sim))
    with pytest.raises(KeyError):
        sim.run(until=ev)


def test_run_until_never_fired_event_raises(sim):
    ev = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_run_until_already_processed_event(sim):
    def worker(sim):
        yield sim.timeout(1.0)
        return 5

    proc = sim.process(worker(sim))
    sim.run()
    assert sim.run(until=proc) == 5


def test_run_until_horizon_beyond_last_event_advances_clock(sim):
    sim.timeout(1.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_schedule_at(sim):
    ev = sim.schedule_at(3.25, value="x")
    sim.run()
    assert sim.now == 3.25
    assert ev.value == "x"


def test_schedule_at_past_raises(sim):
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5)


def test_clock_monotonicity_across_many_events(sim):
    times = []

    def probe(sim, delays):
        for d in delays:
            yield sim.timeout(d)
            times.append(sim.now)

    sim.process(probe(sim, [0.5] * 10))
    sim.process(probe(sim, [0.3] * 20))
    sim.run()
    assert times == sorted(times)
    assert sim.now == pytest.approx(6.0)


# -- the three batch-pop loops ------------------------------------------

#: ``run()`` without observers, ``run()`` with one, and ``step()``: each
#: pops time batches off the heap with its own inlined loop.
_LOOPS = {
    "fast": {"sanitize": False, "telemetry": False},
    "observed": {"sanitize": False, "telemetry": True},
    "step": {"sanitize": False, "telemetry": False},
}


def _drive(sim, loop):
    if loop == "step":
        while sim.peek() != float("inf"):
            sim.step()
    else:
        sim.run()


@pytest.mark.parametrize("seed", range(8))
def test_random_schedules_pop_identically(seed):
    """Timeouts scheduled up front in shuffled order (bursts at one
    instant, small gaps, sparse stretches) fire in ``(time, seq)`` order
    through each loop."""
    rng = random.Random(seed)
    times = []
    t = 0.0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.25:
            pass  # another event at the same instant
        elif roll < 0.85:
            t += rng.choice((1e-6, 13e-6, 50e-6, 100e-6)) * rng.randint(1, 9)
        else:
            t += rng.uniform(0.01, 2.0)
        times.append(t)
    rng.shuffle(times)
    expected = sorted((t, i) for i, t in enumerate(times))
    for loop, kwargs in _LOOPS.items():
        sim = Simulator(**kwargs)
        fired = []
        for i, t in enumerate(times):
            sim.timeout(t).callbacks.append(
                lambda ev, i=i: fired.append((ev.sim.now, i)))
        _drive(sim, loop)
        assert fired == expected, loop


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_schedules_identical_across_run_loops(seed):
    """Processes that schedule while the loop runs (sleeps and timeouts,
    zero delays, same-instant bursts, sparse jumps) give one timeline
    through every loop, on a monotone clock."""
    delays = (0.0, 1e-6, 77e-6, 1e-3, 0.4)
    timelines = []
    for loop, kwargs in _LOOPS.items():
        sim = Simulator(**kwargs)
        rng = random.Random(100 + seed)
        timeline = []

        def sleeper(label):
            for _ in range(20):
                yield rng.choice(delays) * rng.randint(1, 5)
                timeline.append((sim.now, label))

        def waiter(label):
            for _ in range(10):
                yield sim.timeout(rng.choice(delays))
                timeline.append((sim.now, label))

        for p in range(6):
            sim.process(sleeper(f"s{p}"))
        for p in range(3):
            sim.process(waiter(f"w{p}"))
        _drive(sim, loop)
        times = [t for t, _ in timeline]
        assert times == sorted(times), loop
        timelines.append(timeline)
    fast, observed, step = timelines
    assert fast == observed == step


def test_clock_is_monotone_on_inexact_periods():
    """Three periodic processes with periods 0.1/0.2/0.3 land on times
    that are inexact float multiples of each other; the clock must still
    only move forward."""
    sim = Simulator()
    times = []

    def proc(d):
        for _ in range(8):
            yield sim.timeout(d)
            times.append(sim.now)

    for i in range(3):
        sim.process(proc(0.1 * (i + 1)))
    sim.run()
    assert times == sorted(times)


def test_large_pending_set_golden():
    """32 ranks on the switched fabric keep hundreds of future events
    pending at once, a regime the P=4 bus goldens never reach."""
    packets, digest = GOLDEN_SWITCHED_P32
    trace = run_measured("2dfft", scale="smoke", seed=0, nprocs=32,
                         route="switched")
    assert len(trace) == packets
    assert legacy_digest(trace) == digest


# -- scheduler-edge bugfixes ------------------------------------------


def test_interrupt_detaches_in_flight_relay():
    """Interrupting a process whose resume is already scheduled (here: a
    relay for a yield of an already-processed event) must advance the
    generator exactly once — with the interrupt, not the stale outcome."""
    sim = Simulator()
    done = sim.event()
    done.succeed("stale")
    log = []

    def victim():
        try:
            log.append(("got", (yield done)))
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))

    proc = sim.process(victim())

    def interrupter():
        proc.interrupt("boom")
        yield sim.timeout(0)

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", "boom")]
    assert not proc.is_alive


def test_interrupt_during_kickstart():
    """Same hazard at process birth: the kick-start resume is in flight
    the moment the process is created.  The detached kick-start must not
    advance the generator after the interrupt terminates it — the body
    never runs at all."""
    sim = Simulator()
    log = []

    def victim():
        log.append("started")
        yield sim.timeout(1.0)
        log.append("finished")

    proc = sim.process(victim())
    proc.interrupt("early")
    sim.run()
    assert log == []  # the interrupt landed before the first advance
    assert not proc.is_alive
    assert proc.processed and not proc.ok


def test_run_until_event_detaches_stop_callback_on_exhaustion():
    """Regression: ``run(until=ev)`` exhausting the schedule used to
    leave ``_stop_on`` attached to ``ev`` — a later trigger then raised
    a spurious StopSimulation out of an unrelated run()."""
    sim = Simulator()
    ev = sim.event()

    def ticker():
        yield sim.timeout(0.5)

    sim.process(ticker())  # something to run dry on
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=ev)
    assert not ev.callbacks  # detached
    ev.succeed("late")
    sim.run()  # must not raise StopSimulation
    assert ev.processed


def test_run_until_horizon_detaches_after_process_exception():
    sim = Simulator()

    def boom():
        yield sim.timeout(0.5)
        raise RuntimeError("boom")

    sim.process(boom())
    with pytest.raises(RuntimeError):
        sim.run(until=10.0)
    sim.run()  # drains the now-inert horizon timeout without stopping early
    assert sim.now == 10.0


def test_conditions_with_preprocessed_children():
    """AnyOf/AllOf built from events that already fired must complete
    under the batched loop (children never re-enter the schedule)."""
    sim = Simulator()
    a = sim.event()
    a.succeed("a")
    b = sim.timeout(0.0, "b")
    sim.run()  # a and b both processed now
    got = {}

    def waiter():
        got["any"] = yield sim.any_of([a, b])
        got["all"] = yield sim.all_of([a, b])

    sim.process(waiter())
    sim.run()
    assert got["any"] == {0: "a", 1: "b"}
    assert got["all"] == {0: "a", 1: "b"}


# -- engine structure guards ------------------------------------------


def test_hot_classes_have_no_dict():
    """__slots__ holds on every per-event allocation: a single __dict__
    creeping in costs ~100 bytes and a dict lookup per attribute on the
    hottest objects in the engine."""
    sim = Simulator()

    def noop():
        yield sim.timeout(0)

    proc = sim.process(noop())
    for obj in (Event(sim), Timeout(sim, 1.0), proc,
                _Resume(proc, True, None)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_inline_dispatch_covers_every_entry_shape():
    """The fast loop inlines ``entry._process()`` as a two-way branch on
    ``entry.__class__ is _Resume``.  That is only sound while exactly two
    ``_process`` definitions exist in the DES core (Event's and
    _Resume's) and no Event subclass overrides it — this guard fails the
    moment someone adds a third."""
    defs = []
    for path in sorted(DES_DIR.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("def _process("):
                defs.append(f"{path.name}:{i}")
    assert len(defs) == 2, defs
    assert {d.split(":")[0] for d in defs} == {"events.py", "process.py"}
