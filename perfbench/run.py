"""Drift-corrected benchmark of the reproduction, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bus-cold --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (``pass_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it runs the same
passes untraced and then traced, and reports the per-layer metrics
(``BENCHMARK.json`` lists both sets).  The last line of standard output
is the result as one JSON object.  Every host time is drift-corrected
(see ``clock.py``); the raw wall times, the corrected times and the
reference samples go to ``.perfbench-work/records/`` for auditing.

``--record`` instead stores the set-up's reference outputs for the
given seed in ``expected.json``; later runs at that seed check against
them as well as against their own reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from clock import DriftClock

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKDIR = ".perfbench-work"

EXPERIMENT_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "fig8", "fig9", "fig10", "fig11", "model", "twin", "qos",
                  "baseline")

#: Tracer layer -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "des": "des.self_s", "bus": "bus.self_s", "nic": "nic.self_s",
    "switch": "switch.self_s", "tcp": "tcp.self_s", "pvm": "pvm.self_s",
    "fx": "fx.self_s", "capture": "capture.self_s",
    "analysis": "analysis.self_s", "core": "core.self_s",
    "baselines": "baselines.self_s", "store_read": "store.read_s",
    "store_write": "store.write_s",
}

#: Exact counts per pass; a workload that leaves one out did no such work.
COUNT_METRICS = (
    "des.events", "des.sim_s", "bus.frames", "bus.collisions",
    "bus.backoff_rounds", "nic.frames_queued", "nic.max_queue_depth",
    "switch.frames", "switch.max_port_depth", "switch.drops",
    "tcp.segments", "tcp.acks", "tcp.retx", "pvm.messages", "pvm.bytes",
    "fx.compute_phases", "capture.packets", "store.disk_hits",
    "store.misses", "store.disk_writes", "store.bytes_read",
    "store.bytes_written", "sweep.keys", "sweep.produced", "sweep.failed",
    "sweep.respawns", "sweep.worker_busy_s", "sweep.utilization",
)


def measure(workload, seconds: float, at_least: int = 1) -> list:
    """Passes until the next one would end past ``seconds`` (at least
    ``at_least``)."""
    passes = []
    start = time.perf_counter()
    while True:
        ops, extra = workload.run_pass()
        passes.append({"ops": ops, "extra": extra})
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed + elapsed / len(passes) > seconds:
            return passes


def finalize(passes, clock) -> list:
    """Pass records with raw and corrected times, once every mark is in."""
    out = []
    for p in passes:
        ops = []
        for op in p["ops"]:
            raw, corrected = op.times(clock)
            ops.append([op.name, raw, corrected, op.ok, op.first, op.last])
        out.append({"raw_s": sum(o[1] for o in ops),
                    "corrected_s": sum(o[2] for o in ops),
                    "ops": ops, "extra": p["extra"]})
    return out


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _drift_factor(p) -> float:
    """A pass's corrected/raw ratio, for rescaling the raw seconds
    measured inside it."""
    return p["corrected_s"] / p["raw_s"] if p["raw_s"] > 0 else 1.0


def layer_metrics(base, traced, tracer_deltas, counts) -> dict:
    """Per-layer metrics, per pass, from the traced passes."""
    n = len(traced)
    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for p, deltas in zip(traced, tracer_deltas):
        for layer, metric in SELF_TIME_METRICS.items():
            out[metric] += deltas.get(layer, 0.0) * _drift_factor(p) / n
    out.update({name: 0 for name in COUNT_METRICS})
    # Counts the passes observed (cache and sweep tallies) ...
    for key in {k for p in traced for k in p["extra"]}:
        scaled = key == "sweep.worker_busy_s"
        out[key] = sum(p["extra"].get(key, 0) * (_drift_factor(p) if scaled else 1)
                       for p in traced) / n
    # ... and those of the counting run, which are exact.
    out.update(counts)
    out["store.bytes_read"] = sum(d.get("bytes_read", 0)
                                  for d in tracer_deltas) / n
    events = out["des.events"]
    out["des.us_per_event"] = 1e6 * out["des.self_s"] / events if events else 0.0
    frames = out["bus.frames"]
    out["bus.collisions_per_frame"] = (out["bus.collisions"] / frames
                                       if frames else 0.0)
    for exp_id in EXPERIMENT_IDS:
        times = [op[2] for p in traced for op in p["ops"] if op[0] == exp_id]
        out[f"exp.{exp_id}_s"] = statistics.median(times) if times else 0.0
    out["trace.overhead"] = (median_of(traced, "corrected_s")
                             / median_of(base, "corrected_s"))
    return out


def traced_passes(workload, clock, seconds, workdir):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    clock.on_mark = tracer.exclude
    try:
        if hasattr(workload, "trace_workers"):
            tracer.worker_log = os.path.join(workdir, "worker-writes.log")
            workload.trace_workers()
        passes, deltas = [], []
        start = time.perf_counter()
        while True:
            before, bytes_before = tracer.snapshot(), tracer.bytes_read
            passes.extend(measure(workload, 0))
            after = tracer.snapshot()
            delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
            delta["bytes_read"] = tracer.bytes_read - bytes_before
            deltas.append(delta)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                costs = {"call_cost_s": tracer.call_cost,
                         "resume_cost_s": tracer.resume_cost}
                return passes, deltas, costs
    finally:
        clock.on_mark = None
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's reference outputs in expected.json")
    args = parser.parse_args(argv)

    wall0 = time.perf_counter()
    clock = DriftClock()
    m_start = clock.mark()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from ./src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not ./src",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    with open(EXPECTED) as fh:
        expected = json.load(fh)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    workload = WORKLOADS[args.workload](
        args.seed, workdir, clock, expected.get(args.workload, {}))
    try:
        workload.setup()
        m_setup = clock.mark()
        if args.record:
            if workload.failed:
                print("perfbench: set-up failed; nothing recorded", file=sys.stderr)
                return 1
            expected.setdefault(args.workload, {})[str(workload.input_seed)] = \
                workload.expected
            with open(EXPECTED, "w") as fh:
                json.dump(expected, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"perfbench: recorded {args.workload} seed {workload.input_seed}")
            return 0
        passes = measure(workload, args.seconds, workload.min_passes)
        traced = deltas = wrapper_costs = None
        if args.trace:
            traced, deltas, wrapper_costs = traced_passes(
                workload, clock, args.seconds, workdir)
            counts = workload.counts()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = finalize(passes, clock)
    if traced is not None:
        traced = finalize(traced, clock)
    setup_raw, setup_s = clock.interval(m_start, m_setup)
    pass_s = median_of(passes, "corrected_s")
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if args.trace:
        values = layer_metrics(passes, traced, deltas, counts)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())}
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"},
        }
    result = {"correct": workload.failed == 0, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.perf_counter() - wall0,
        "setup": {"raw_s": setup_raw, "corrected_s": setup_s},
        "passes": passes, "traced_passes": traced,
        "tracer_wrapper_costs": wrapper_costs, "errors": workload.errors,
        "clock": clock.record(), "result": result,
    }
    records = os.path.join(WORKDIR, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"pass {pass_s:.4f} s corrected / {median_of(passes, 'raw_s'):.4f} s raw, "
          f"set-up {setup_s:.4f} s corrected / {setup_raw:.4f} s raw")
    print(json.dumps(result))
    return 0


def _units() -> dict:
    units = {name: "s" for name in SELF_TIME_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "des.sim_s": "s", "des.us_per_event": "us", "nic.max_queue_depth": "frames",
        "switch.max_port_depth": "frames", "pvm.bytes": "bytes",
        "store.bytes_read": "bytes", "store.bytes_written": "bytes",
        "sweep.worker_busy_s": "s", "sweep.utilization": "ratio",
        "bus.collisions_per_frame": "ratio", "trace.overhead": "ratio",
    })
    units.update({f"exp.{e}_s": "s" for e in EXPERIMENT_IDS})
    return units


UNITS = _units()

if __name__ == "__main__":
    sys.exit(main())
