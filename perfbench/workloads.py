"""The four benchmark workloads.

Each workload has a ``setup`` (cache filling and the expected-digest
pass), a ``run_pass`` made of checked operations, and, for the traced
run, ``counts``: exact per-layer counts from one extra run with the
program's own counters on.  Operations are timed between drift-clock
marks, so the checks after an operation stay outside its interval.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import traceback

import numpy as np

from repro.capture.io import trace_digest
from repro.harness import runner
from repro.harness.experiments import EXPERIMENTS, TRACE_PROGRAMS, run_experiment
from repro.harness.store import TraceStore
from repro.harness import sweep as sweep_mod
from repro.programs import run_measured
from repro.telemetry import Telemetry

from slicing import marked, sliced

__all__ = ["WORKLOADS", "FIGURE_SEED", "artifact_digest"]

#: The seed ``figures-warm`` runs the experiments at, whatever
#: ``--seed`` is: the one ``repro run`` and ``repro all`` use by
#: default.  Some shape checks fail at other seeds (see README.md).
FIGURE_SEED = 0


class Op:
    """One timed, checked operation between drift-clock marks ``first``
    and ``last``.  Its times are computed once the run is over; a
    ``factor`` measured elsewhere replaces the clock's correction."""

    __slots__ = ("name", "first", "last", "ok", "factor")

    def __init__(self, name, first, last, ok, factor=None):
        self.name, self.first, self.last = name, first, last
        self.ok, self.factor = ok, factor

    def times(self, clock):
        """``(raw_s, corrected_s)``."""
        raw, corrected = clock.interval(self.first, self.last)
        if self.factor is not None:
            corrected = raw * self.factor
        return raw, corrected


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def artifact_digest(art) -> str:
    """sha256 over an artifact's tables, metrics and series."""
    h = hashlib.sha256()
    h.update(json.dumps(art.tables, sort_keys=True).encode())
    h.update(json.dumps({k: repr(float(v)) for k, v in art.metrics.items()},
                        sort_keys=True).encode())
    for name in sorted(art.series):
        h.update(name.encode())
        for part in art.series[name]:
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


class Workload:
    """Shared plumbing: workdir, clock, op timing and failure accounting."""

    name = ""
    #: Fewest passes an untraced run measures, however long they take.
    min_passes = 1

    def __init__(self, seed: int, workdir: str, clock, recorded: dict):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        #: The seed the workload's outputs are recorded under.
        self.input_seed = seed
        #: Expected outputs recorded per seed (``str(seed) -> outputs``).
        self.recorded = recorded
        #: Expected outputs for the checks (recorded, else reference run).
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fresh_dir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"{tag}-", dir=self.workdir)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        print(f"perfbench: {self.name}: {message}", file=sys.stderr)

    def _timed(self, name: str, call, check):
        """Run ``call`` between two marks, then ``check`` its result
        (outside the interval).  Returns an :class:`Op`."""
        self.attempted += 1
        clock = self.clock
        first = clock.mark()
        try:
            result = call()
        except Exception:  # noqa: BLE001 - an operation failure is counted
            last = clock.mark()
            self._fail(f"{name}: {traceback.format_exc(limit=3)}")
            return Op(name, first, last, False)
        last = clock.mark()
        self.last_result = result
        problem = check(result)
        if problem:
            self._fail(f"{name}: {problem}")
        return Op(name, first, last, not problem)

    def _guarded(self, name: str, call):
        """Run a set-up or counting operation with the failure accounting
        of :meth:`_timed`, untimed.  Returns its result, or None if it
        raised."""
        self.attempted += 1
        try:
            return call()
        except Exception:  # noqa: BLE001 - an operation failure is counted
            self._fail(f"{name}: {traceback.format_exc(limit=3)}")
            return None

    def _check_reference(self, reference: dict) -> None:
        """Set-up: the reference must equal what is recorded for the
        workload's input seed."""
        self.expected = reference
        recorded = self.recorded.get(str(self.input_seed))
        if recorded is None:
            return
        for key, want in recorded.items():
            self.attempted += 1
            got = reference.get(key)
            if got != want:
                self._fail(f"set-up reference {key}: got {got}, recorded {want}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _SimWorkload(Workload):
    """Measured simulation runs, sliced, checked against sha256s."""

    programs = ()
    run_kwargs: dict = {}

    def _reference(self) -> dict:
        out = {}
        for name in self.programs:
            trace = self._guarded(f"set-up reference {name}", lambda n=name:
                                  run_measured(n, seed=self.seed, **self.run_kwargs))
            out[name] = None if trace is None else [len(trace), trace_digest(trace)]
            self.clock.mark()
        return out

    def setup(self) -> None:
        with marked(self.clock):
            self._check_reference(self._reference())

    def _check_trace(self, name):
        def check(trace):
            got = [len(trace), trace_digest(trace)]
            want = self.expected[name]
            if want is None:
                return "no reference trace"
            if got != want:
                return f"trace {got[0]} pkts {got[1][:12]} != {want[0]} {want[1][:12]}"
            return None
        return check

    def counts(self) -> dict:
        """Exact counts from one unsliced run per program with telemetry
        (and, on the switched fabric, queue monitors) attached; both
        observe only, which the sha256 check re-verifies."""
        switched = self.run_kwargs.get("route") == "switched"
        c = dict.fromkeys((
            "des.events", "des.sim_s", "medium.frames", "bus.collisions",
            "bus.backoff_rounds", "nic.frames_queued", "nic.max_queue_depth",
            "switch.max_port_depth", "switch.drops", "tcp.segments",
            "tcp.acks", "tcp.retx", "pvm.messages", "pvm.bytes",
            "fx.compute_phases", "capture.packets"), 0)
        for name in self.programs:
            tel = Telemetry(label="perfbench")
            detail: dict = {}
            kwargs = dict(self.run_kwargs)
            if switched:
                kwargs["qmon"] = True
            trace = self._guarded(f"counting run {name}", lambda n=name:
                                  run_measured(n, seed=self.seed, telemetry=tel,
                                               detail=detail, **kwargs))
            if trace is None:
                continue
            problem = self._check_trace(name)(trace)
            if problem:
                self._fail(f"counting run {name}: {problem}")
            n, g = tel.counters.get, tel.gauges.get
            c["des.events"] += n("des.events_popped", 0)
            c["des.sim_s"] += g("run.sim_seconds", 0.0)
            c["medium.frames"] += n("bus.frames_offered", 0)
            c["bus.collisions"] += n("bus.collisions", 0)
            c["bus.backoff_rounds"] += n("bus.backoff_rounds", 0)
            c["nic.frames_queued"] += n("nic.frames_queued", 0)
            c["nic.max_queue_depth"] = max(c["nic.max_queue_depth"],
                                           g("nic.max_queue_depth", 0))
            c["tcp.segments"] += n("tcp.segments_sent", 0)
            c["tcp.acks"] += n("tcp.acks_sent", 0)
            c["tcp.retx"] += n("tcp.retransmits", 0)
            c["pvm.messages"] += n("pvm.messages_sent", 0)
            c["pvm.bytes"] += n("pvm.message_bytes", 0)
            c["fx.compute_phases"] += n("fx.compute_phases", 0)
            c["capture.packets"] += len(trace)
            if switched:
                monitor = detail["qmon"]
                c["switch.max_port_depth"] = max(c["switch.max_port_depth"],
                                                 monitor.max_depth_frames())
                c["switch.drops"] += detail["frames_dropped"]
        frames = c.pop("medium.frames")
        c["switch.frames" if switched else "bus.frames"] = frames
        return c


class BusCold(_SimWorkload):
    """The paper's testbed: six programs, default scale, four ranks plus
    the monitor on the shared bus, produced through ``get_trace`` into
    an empty on-disk cache."""

    name = "bus-cold"
    programs = TRACE_PROGRAMS
    run_kwargs = {"scale": "default"}

    def run_pass(self):
        cache = self._fresh_dir("cache")
        store = runner.configure_trace_store(disk_dir=cache)
        ops = []
        with sliced(self.clock):
            for name in self.programs:
                ops.append(self._timed(
                    name, lambda n=name: runner.get_trace(n, "default", self.seed),
                    self._check_trace(name)))
        stats = store.stats
        extra = {"store.disk_writes": stats.disk_writes,
                 "store.misses": stats.misses,
                 "store.disk_hits": stats.disk_hits,
                 "store.bytes_written": _dir_bytes(cache)}
        if stats.disk_writes != len(self.programs):
            self._fail(f"{stats.disk_writes} cache writes, "
                       f"want {len(self.programs)}")
        shutil.rmtree(cache)
        return ops, extra


class SwitchedWide(_SimWorkload):
    """2DFFT, SEQ and AIRSHED at 32 ranks on the switched fabric."""

    name = "switched-wide"
    programs = ("2dfft", "seq", "airshed")
    run_kwargs = {"scale": "smoke", "nprocs": 32, "route": "switched"}

    def run_pass(self):
        ops = []
        with sliced(self.clock):
            for name in self.programs:
                ops.append(self._timed(
                    name, lambda n=name: run_measured(n, seed=self.seed,
                                                      **self.run_kwargs),
                    self._check_trace(name)))
        return ops, {}


class FiguresWarm(Workload):
    """Every registered experiment at :data:`FIGURE_SEED` from a disk
    cache filled in set-up; the in-memory layer is cleared before each
    experiment."""

    name = "figures-warm"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.input_seed = FIGURE_SEED

    def setup(self) -> None:
        self.cache = self._fresh_dir("cache")
        self.store = runner.configure_trace_store(disk_dir=self.cache)
        with marked(self.clock):
            for name in TRACE_PROGRAMS:
                self._guarded(f"set-up trace {name}", lambda n=name:
                              runner.get_trace(n, "default", FIGURE_SEED))
                self.clock.mark()
        reference = {}
        for exp_id in EXPERIMENTS:
            runner.clear_trace_cache()
            art = self._guarded(f"set-up {exp_id}", lambda e=exp_id:
                                run_experiment(e, "default", FIGURE_SEED))
            reference[exp_id] = None if art is None else artifact_digest(art)
            if art is not None and not art.all_checks_pass:
                self._fail(f"set-up {exp_id}: shape checks fail")
            self.clock.mark()
        self._check_reference(reference)

    def _check_artifact(self, exp_id, misses_before):
        def check(art):
            if self.store.stats.misses != misses_before:
                return "trace cache miss"
            if not art.all_checks_pass:
                failing = sorted(k for k, v in art.checks.items() if not v)
                return f"shape checks fail: {failing}"
            if artifact_digest(art) != self.expected[exp_id]:
                return "artifact digest differs"
            return None
        return check

    def run_pass(self):
        stats = self.store.stats
        before = (stats.disk_hits, stats.misses)
        ops = []
        for exp_id in EXPERIMENTS:
            runner.clear_trace_cache()
            ops.append(self._timed(
                exp_id, lambda e=exp_id: run_experiment(e, "default", FIGURE_SEED),
                self._check_artifact(exp_id, stats.misses)))
        extra = {"store.disk_hits": stats.disk_hits - before[0],
                 "store.misses": stats.misses - before[1]}
        return ops, extra


class SweepPooled(Workload):
    """A 24-key smoke grid (six programs x four seeds) through the
    persistent sweep pool into an empty cache.

    The parent only waits during a pooled sweep, and a reference sample
    taken there would compete with the workers for a core, so the drift
    is measured by the workers: they are forked with sliced simulations
    that log each run's raw and corrected seconds, and the sweep's wall
    time is rescaled by the workers' total corrected/raw ratio.  (A
    bracket of parent marks around the sweep alone spread 2.3 times as
    much; see README.md.)
    """

    name = "sweep-pooled"
    # Now and then a pooled sweep stalls for some 10 s (see README.md);
    # with three passes or more, one stall does not set the median.
    min_passes = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jobs = max(2, min(4, len(os.sched_getaffinity(0))))
        seeds = [4 * self.seed + k for k in range(4)]
        self.specs = [(name, "smoke", s) for s in seeds for name in TRACE_PROGRAMS]
        self.clock_log = os.path.join(self.workdir, "worker-clock.log")

    def setup(self) -> None:
        with marked(self.clock):
            serial = self._guarded("serial reference sweep", lambda: sweep_mod.run_sweep(
                self.specs, jobs=1,
                store=TraceStore(disk_dir=self._fresh_dir("serial")),
                progress=lambda progress, entry: self.clock.mark()))
        if serial is not None and serial.failed:
            self._fail(f"serial reference sweep: {len(serial.failed)} keys failed")
        self._check_reference({"manifest_sha256": None if serial is None
                               else serial.manifest_digest()})
        # Forked outside ``marked``, so the workers do not inherit it.
        self._guarded("start the sweep pool", self._start_pool)

    def _start_pool(self) -> None:
        sweep_mod.shutdown_pool()
        with sliced(self.clock, log=self.clock_log):
            sweep_mod.shared_pool(self.jobs)

    def _read_log(self) -> list:
        """The ``[raw_s, corrected_s]`` rows the workers logged, which
        are then cleared."""
        if not os.path.exists(self.clock_log):
            return []
        with open(self.clock_log) as fh:
            rows = [[float(x) for x in line.split()] for line in fh if line.strip()]
        os.unlink(self.clock_log)
        return rows

    def run_pass(self):
        cache = self._fresh_dir("cache")
        store = TraceStore(disk_dir=cache)
        respawns = sweep_mod.pool_stats()["respawns"]
        expected = self.expected["manifest_sha256"]
        self._read_log()

        def check(result):
            if result.failed:
                return f"{len(result.failed)} keys failed"
            if result.manifest_digest() != expected:
                return "manifest digest differs from the serial sweep"
            return None

        op = self._timed("sweep", lambda: sweep_mod.run_sweep(
            self.specs, jobs=self.jobs, store=store), check)
        runs = self._read_log()
        worker_raw = sum(r[0] for r in runs)
        op.factor = sum(r[1] for r in runs) / worker_raw if worker_raw > 0 else 1.0
        raw = self.clock.samples[op.last][0] - self.clock.samples[op.first][1]
        extra = {"store.bytes_written": _dir_bytes(cache),
                 "sweep.respawns": sweep_mod.pool_stats()["respawns"] - respawns}
        if op.ok:
            entries = self.last_result.entries
            busy = sum(e.wall_seconds for e in entries)
            produced = sum(1 for e in entries if e.produced)
            extra.update({
                "sweep.keys": len(entries),
                "sweep.produced": produced,
                "sweep.failed": sum(1 for e in entries if not e.ok),
                "store.disk_writes": produced,
                # Raw worker seconds; the report rescales them like the
                # sweep's interval.
                "sweep.worker_busy_s": busy,
                "sweep.utilization": busy / (raw * self.jobs),
            })
        shutil.rmtree(cache)
        return [op], extra

    def trace_workers(self) -> None:
        """Restart the pool so forked workers inherit the installed
        tracer."""
        self._start_pool()

    def close(self) -> None:
        sweep_mod.shutdown_pool()


WORKLOADS = {w.name: w for w in (BusCold, SwitchedWide, FiguresWarm, SweepPooled)}
