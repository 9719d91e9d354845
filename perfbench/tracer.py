"""Per-layer span timing, installed from the benchmark's own files.

:class:`Tracer` wraps the public entry points of each layer of ``repro``
(see :data:`LAYER_ENTRY_POINTS`) and keeps, per layer, the total time of
its spans and its *self* time: span time minus the time covered by
child spans of any layer.  Generator entry points (``transmit``, the
PVM/Fx send paths) are timed on every resumption, not at the call that
creates the generator.

A wrapper costs time outside its own clock readings: the call into it
before the span starts, and the bookkeeping after it ends.  That time
would land in the parent span's self time (``Simulator.run`` is the
parent of most wrapped calls), so :meth:`Tracer.install` first times an
empty wrapped call and an empty generator resumption, and every child
span then charges that cost to its parent's child time as well.

Wrappers are installed on the classes and rebound in every loaded
``repro`` module that imported a wrapped function by name, so callers
that hold ``from ..analysis import power_spectrum`` see them too.
Objects bind some entry points at construction (a NIC binds its bus's
``transmit``), so install before building the runs to be traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import types
from typing import Dict, List

__all__ = ["Tracer", "LAYER_ENTRY_POINTS", "LAYER_MODULES"]

_perf = time.perf_counter

#: layer -> (module, "Class.method" or "function") entry points.
LAYER_ENTRY_POINTS = {
    "des": [("repro.des.simulator", "Simulator.run")],
    "nic": [("repro.net.nic", "Nic.send")],
    "bus": [("repro.net.medium", "EthernetBus.transmit")],
    "switch": [("repro.net.switched", "SwitchedFabric.transmit")],
    "tcp": [("repro.transport.tcp", "TcpPipe.send"),
            ("repro.transport.tcp", "TcpPipe.on_data_segment"),
            ("repro.transport.tcp", "TcpPipe.on_ack")],
    "pvm": [("repro.pvm.vm", "VirtualMachine.send")],
    "fx": [("repro.fx.runtime", "FxContext.compute"),
           ("repro.fx.runtime", "FxContext.send"),
           ("repro.fx.runtime", "FxContext.recv")],
    # ``_on_frame`` is the bus listener every captured packet goes
    # through; ``trace`` assembles the capture into a PacketTrace.
    "capture": [("repro.capture.trace", "TraceRecorder.trace"),
                ("repro.capture.trace", "TraceRecorder._on_frame")],
    "store": [("repro.harness.store", "TraceStore.get"),
              ("repro.harness.store", "TraceStore.put")],
    # Disk I/O inside the store, so reads and writes get their own time.
    "store_read": [("repro.harness.store", "load_npz")],
    "store_write": [("repro.harness.store", "_write_entry")],
    "sweep": [("repro.harness.sweep", "run_sweep")],
    "exp": [("repro.harness.experiments", "run_experiment")],
}

#: Layers whose every public function and public class method is wrapped.
LAYER_MODULES = {
    "analysis": "repro.analysis",
    "core": "repro.core",
    "baselines": "repro.baselines",
}


class Tracer:
    """Span accounting per layer; :meth:`install` / :meth:`uninstall`."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        #: Open spans: ``[layer, start, time covered by children]``.
        self._stack: List[list] = []
        self._undo: list = []
        self.bytes_read = 0
        #: File that forked sweep workers log their cache writes to.
        self.worker_log = None
        self._pid = os.getpid()
        #: Wrapper seconds outside a span, per call and per generator
        #: resumption (set by :meth:`calibrate`).
        self.call_cost = 0.0
        self.resume_cost = 0.0

    # -- accounting ----------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, _perf(), 0.0])

    def _exit(self, cost: float) -> None:
        layer, start, child = self._stack.pop()
        span = _perf() - start
        self.total[layer] = self.total.get(layer, 0.0) + span
        self.self_time[layer] = self.self_time.get(layer, 0.0) + span - child
        if self._stack:
            self._stack[-1][2] += span + cost

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` (a drift-clock sample taken inside a span) out
        of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def snapshot(self) -> Dict[str, float]:
        """Self seconds per layer so far (store I/O as total time, with
        the writes logged by sweep workers)."""
        out = dict(self.self_time)
        for io in ("store_read", "store_write"):
            if io in self.total:
                out[io] = self.total[io]
        if self.worker_log is not None and os.path.exists(self.worker_log):
            with open(self.worker_log) as log:
                seconds = sum(float(line) for line in log if line.strip())
            out["store_write"] = out.get("store_write", 0.0) + seconds
        return out

    # -- wrappers ------------------------------------------------------
    def _timed_gen(self, layer: str, gen):
        """Drive ``gen``, timing each resumption as a span of ``layer``."""
        enter, exit_, cost = self._enter, self._exit, self.resume_cost
        send_value = None
        error = None
        while True:
            enter(layer)
            try:
                if error is None:
                    yielded = gen.send(send_value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                exit_(cost)
                return stop.value
            except BaseException:
                exit_(cost)
                raise
            exit_(cost)
            error = None
            try:
                send_value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # an interrupt thrown into the caller
                send_value = None
                error = exc

    def _wrap(self, layer: str, func):
        enter, exit_, timed_gen = self._enter, self._exit, self._timed_gen
        cost = self.call_cost
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                return timed_gen(layer, func(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(cost)
            if isinstance(result, types.GeneratorType):
                return timed_gen(layer, result)
            return result
        return wrapper

    def _wrap_read(self, func):
        """``load_npz`` also counts the bytes it reads."""
        wrapped = self._wrap("store_read", func)
        tracer = self

        @functools.wraps(func)
        def wrapper(path, *args, **kwargs):
            tracer.bytes_read += os.path.getsize(path)
            return wrapped(path, *args, **kwargs)
        return wrapper

    def _wrap_write(self, func):
        """``_write_entry`` also runs in forked sweep workers, whose spans
        the parent cannot see; they append their write seconds, one line
        each, to :attr:`worker_log` for the parent to read back."""
        wrapped = self._wrap("store_write", func)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer._pid or tracer.worker_log is None:
                return wrapped(*args, **kwargs)
            t0 = _perf()
            result = func(*args, **kwargs)
            with open(tracer.worker_log, "a") as log:
                log.write(f"{_perf() - t0!r}\n")
            return result
        return wrapper

    # -- installation --------------------------------------------------
    def calibrate(self) -> None:
        """Set :attr:`call_cost` and :attr:`resume_cost`: the seconds an
        empty wrapped call (generator resumption) takes beyond its span
        and beyond a plain call (``next``) of the unwrapped function.
        The fastest of five rounds of 20 000 is kept, as the one least
        slowed by other load on the host."""
        calls, rounds = 20_000, 5

        def noop():
            return None

        def ticker():
            while True:
                yield

        def excess(call, plain):
            excesses = []
            for _ in range(rounds):
                span = ["calibration", _perf(), 0.0]
                self._stack.append(span)
                t0 = _perf()
                for _ in range(calls):
                    call()
                t1 = _perf()
                for _ in range(calls):
                    plain()
                t2 = _perf()
                self._stack.pop()
                excesses.append(((t1 - t0) - span[2] - (t2 - t1)) / calls)
            return max(0.0, min(excesses))

        self.call_cost = self.resume_cost = 0.0
        self.call_cost = excess(self._wrap("calibration", noop), noop)
        wrapped_gen, plain_gen = self._wrap("calibration", ticker)(), ticker()
        next(wrapped_gen)
        next(plain_gen)
        self.resume_cost = excess(functools.partial(next, wrapped_gen),
                                  functools.partial(next, plain_gen))
        wrapped_gen.close()
        for table in (self.total, self.self_time):
            table.pop("calibration", None)

    def install(self) -> None:
        self.calibrate()
        replaced = {}
        for layer, points in LAYER_ENTRY_POINTS.items():
            for module_name, qualname in points:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._patch_attr(getattr(module, cls_name), attr, layer)
                else:
                    func = getattr(module, qualname)
                    if layer == "store_write":
                        wrapper = self._wrap_write(func)
                    elif layer == "store_read":
                        wrapper = self._wrap_read(func)
                    else:
                        wrapper = self._wrap(layer, func)
                    replaced[id(func)] = (func, wrapper)
        for layer, package in LAYER_MODULES.items():
            module = importlib.import_module(package)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if isinstance(raw, (types.FunctionType, classmethod,
                                            staticmethod)):
                            self._patch_attr(obj, attr, layer)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, obj))
        self._rebind(replaced)

    def _patch_attr(self, cls, attr: str, layer: str) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(layer, raw.__func__))
        else:
            new = self._wrap(layer, raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def _rebind(self, replaced) -> None:
        """Point every loaded ``repro`` module's name for a wrapped
        function at its wrapper."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
