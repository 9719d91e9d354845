"""Simulator runtime benchmark: wall clock and events/sec per program.

Measures what ``repro profile`` reports — end-to-end wall time and DES
event throughput for the six measured programs at replication scale
(``smoke``, the scale the replication harness sweeps seeds at) — and
records the numbers in ``BENCH_runtime.json`` so the simulator's own
performance trajectory is tracked alongside the paper's reproduced
figures.

The telemetry overhead contract (docs/architecture.md, "Telemetry &
profiling") is asserted here too: with telemetry *disabled* every
instrumentation point costs a single attribute check, and the estimated
total — hooks crossed (counted by an enabled run) x the measured cost of
one check — must stay under 2% of the disabled run's wall time.

Run as a pytest module (``pytest benchmarks/bench_runtime.py``) or as a
script (``python benchmarks/bench_runtime.py``) to rewrite the JSON.

Wall time is read through the telemetry clock callable (never a direct
``time.perf_counter()`` call) so this module stays simlint-clean under
SIM001 with the rest of the benchmark suite.
"""

from __future__ import annotations

import json
import os
import platform
import timeit
from pathlib import Path

BENCH_SCHEMA_VERSION = 1

#: Replication scale: what ``repro replicate`` sweeps seeds at.
SCALE = os.environ.get("REPRO_BENCH_RUNTIME_SCALE", "smoke")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
REPS = int(os.environ.get("REPRO_BENCH_RUNTIME_REPS", "3"))

PROGRAMS = ("sor", "2dfft", "t2dfft", "seq", "hist", "airshed")

RESULT_PATH = Path(__file__).parent / "BENCH_runtime.json"

#: Counters that each mark ~one disabled-mode hook crossing.  The inner
#: event loop no longer contributes any: ``run()`` dispatches once to
#: the unobserved loop and ``Process`` binds its resume path at
#: construction, so the per-event ``is None`` checks are hoisted out
#: entirely (docs/architecture.md, "Event queue & scheduling").  What
#: remains is roughly one check per counted action in each layer.
_HOOK_COUNTERS = (
    "bus.frames_offered",
    "bus.frames_delivered",
    "net.frames_dropped",
    "nic.frames_queued",
    "nic.frames_sent",
    "tcp.segments_sent",
    "tcp.acks_sent",
    "pvm.messages_sent",
    "fx.compute_phases",
)


def runtime_meta() -> dict:
    """The measurement environment: the Python interpreter.

    Recorded in ``BENCH_runtime.json`` so a regression can be told apart
    from a changed interpreter when comparing against the committed
    baseline.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def _wall_clock():
    """The injectable wall clock telemetry itself uses."""
    from repro.telemetry import Telemetry

    return Telemetry().clock


def measure_program(name: str, scale: str = SCALE, seed: int = SEED,
                    reps: int = REPS) -> dict:
    """Best-of-``reps`` wall time and throughput for one program.

    One extra instrumented rep supplies the event/hook counts; the timed
    reps run with telemetry disabled, so the recorded wall time is the
    production configuration's.
    """
    from repro.programs import run_measured
    from repro.telemetry import profile_program

    profiled = profile_program(name, scale=scale, seed=seed)
    clock = _wall_clock()
    walls = []
    for _ in range(reps):
        t0 = clock()
        run_measured(name, scale=scale, seed=seed)
        walls.append(clock() - t0)
    wall = min(walls)
    events = profiled.events_popped
    return {
        "program": name,
        "scale": scale,
        "seed": seed,
        "reps": reps,
        "wall_seconds": round(wall, 6),
        "sim_seconds": round(profiled.cluster.sim.now, 6),
        "events_popped": events,
        "events_per_second": round(events / wall) if wall > 0 else 0,
        "packets": len(profiled.trace),
    }


def hook_crossings(counters: dict) -> int:
    """Disabled-mode ``is not None`` checks one run performs.

    The event loop itself contributes none — the observer dispatch is
    decided once per ``run()`` and once per ``Process`` construction,
    not per event — so the crossings left are the instrumented layers':
    roughly one per counted action (frame offered, segment sent,
    message sent, compute phase, ...).
    """
    return sum(int(counters.get(name, 0)) for name in _HOOK_COUNTERS)


def per_check_seconds(samples: int = 200_000) -> float:
    """Measured cost of one disabled telemetry check (attribute + is)."""
    from repro.des import Simulator

    sim = Simulator()
    assert sim.telemetry is None
    return timeit.timeit(
        "sim.telemetry is not None", globals={"sim": sim}, number=samples
    ) / samples


def disabled_overhead_estimate(name: str = "sor", scale: str = SCALE,
                               seed: int = SEED) -> dict:
    """Estimated telemetry-disabled overhead for one program run."""
    result = measure_program(name, scale=scale, seed=seed, reps=REPS)
    from repro.telemetry import profile_program

    counters = profile_program(name, scale=scale, seed=seed).telemetry.counters
    hooks = hook_crossings(counters)
    check = per_check_seconds()
    overhead = hooks * check
    share = overhead / result["wall_seconds"] if result["wall_seconds"] else 0.0
    return {
        "program": name,
        "hooks_crossed": hooks,
        "per_check_seconds": check,
        "overhead_seconds": round(overhead, 9),
        "wall_seconds": result["wall_seconds"],
        "overhead_share": round(share, 6),
    }


def qmon_hook_crossings(monitor) -> int:
    """Disabled-mode ``monitor is None`` checks one switched run performs.

    Each frame that transits an output port crosses three hook sites
    (enqueue, service start, delivery); every drop crosses the
    ``record_drop`` site once.  Token-wait crossings only occur for
    reserved flows, which the measured programs do not carry, so they
    are not counted here.
    """
    totals = 3 * sum(port.frames_enqueued
                     for port in monitor.ports.values())
    drops = sum(len(port.drops) for port in monitor.ports.values())
    return totals + drops + len(monitor.unrouted_drops)


def qmon_per_check_seconds(samples: int = 200_000) -> float:
    """Measured cost of one disabled queue-monitor check."""
    from repro.des import Simulator
    from repro.net.switched import SwitchedFabric

    fabric = SwitchedFabric(Simulator())
    assert fabric.monitor is None
    return timeit.timeit(
        "fabric.monitor is not None", globals={"fabric": fabric},
        number=samples,
    ) / samples


def qmon_overhead_estimate(name: str = "2dfft", scale: str = SCALE,
                           seed: int = SEED) -> dict:
    """Estimated monitor-disabled overhead for one switched-route run.

    Same contract as the telemetry estimate: hook crossings (counted by
    a monitored run) x the measured cost of one ``is None`` check, as a
    share of the unmonitored run's wall clock.
    """
    from repro.programs import run_measured

    clock = _wall_clock()
    walls = []
    for _ in range(REPS):
        t0 = clock()
        run_measured(name, scale=scale, seed=seed, route="switched")
        walls.append(clock() - t0)
    wall = min(walls)

    detail: dict = {}
    run_measured(name, scale=scale, seed=seed, route="switched",
                 qmon=True, detail=detail)
    hooks = qmon_hook_crossings(detail["qmon"])
    check = qmon_per_check_seconds()
    overhead = hooks * check
    share = overhead / wall if wall else 0.0
    return {
        "program": name,
        "route": "switched",
        "hooks_crossed": hooks,
        "per_check_seconds": check,
        "overhead_seconds": round(overhead, 9),
        "wall_seconds": round(wall, 6),
        "overhead_share": round(share, 6),
    }


# -- pytest entry points ----------------------------------------------


def test_all_programs_complete_and_report_throughput():
    for name in PROGRAMS:
        result = measure_program(name, reps=1)
        assert result["events_popped"] > 0, name
        assert result["events_per_second"] > 0, name
        assert result["packets"] > 0, name


def test_disabled_overhead_within_two_percent():
    """The acceptance contract: disabled-mode telemetry costs <= 2% of
    the SOR replication run's wall clock."""
    estimate = disabled_overhead_estimate("sor")
    assert estimate["overhead_share"] <= 0.02, estimate


def test_qmon_disabled_overhead_within_two_percent():
    """The switch-queue monitor acceptance contract: with no monitor
    attached, the hook checks cost <= 2% of the switched 2DFFT run."""
    estimate = qmon_overhead_estimate("2dfft")
    assert estimate["overhead_share"] <= 0.02, estimate


def test_bench_result_file_is_current_schema():
    doc = json.loads(RESULT_PATH.read_text())
    assert doc["schema"] == BENCH_SCHEMA_VERSION
    assert doc["meta"]["python"]
    assert {r["program"] for r in doc["results"]} == set(PROGRAMS)
    for row in doc["results"]:
        assert row["events_per_second"] > 0
    assert doc["overhead"]["overhead_share"] <= 0.02
    assert doc["qmon_overhead"]["route"] == "switched"
    assert doc["qmon_overhead"]["overhead_share"] <= 0.02


# -- script entry point -----------------------------------------------


def main() -> int:
    results = []
    for name in PROGRAMS:
        result = measure_program(name)
        results.append(result)
        print(f"{name:<8} wall={result['wall_seconds'] * 1e3:8.1f} ms  "
              f"events={result['events_popped']:>8}  "
              f"events/s={result['events_per_second']:>9}  "
              f"packets={result['packets']:>7}")
    overhead = disabled_overhead_estimate("sor")
    print(f"disabled-mode overhead (sor): "
          f"{overhead['overhead_share']:.4%} "
          f"({overhead['hooks_crossed']} hooks x "
          f"{overhead['per_check_seconds'] * 1e9:.1f} ns)")
    qmon_overhead = qmon_overhead_estimate("2dfft")
    print(f"qmon disabled-mode overhead (2dfft, switched): "
          f"{qmon_overhead['overhead_share']:.4%} "
          f"({qmon_overhead['hooks_crossed']} hooks x "
          f"{qmon_overhead['per_check_seconds'] * 1e9:.1f} ns)")
    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "scale": SCALE,
        "seed": SEED,
        "reps": REPS,
        "meta": runtime_meta(),
        "results": results,
        "overhead": overhead,
        "qmon_overhead": qmon_overhead,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[wrote {RESULT_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
