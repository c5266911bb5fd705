"""Per-layer host-time attribution, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module (the :data:`TARGETS` table) with timing shims.  Every wrapped
call pushes a frame on one stack; when it returns, its elapsed host
time is charged to its layer *minus* the time of the wrapped calls
nested inside it, so each layer's number is self time and the layers
sum to the wall time of the outermost call (``Simulator.run``).

Generator functions (RPC handlers, client ops, ticks) are wrapped with
a pass-through trampoline that times every resumption of the body, so
a handler's work is charged to its layer on each step, not only when
the generator object is created.  The trampoline adds no yields and no
events; the benchmark checks that a traced run's simulated results
are identical to an untraced run's.

The tracer only reads the host clock and bumps its own counters.  It
never touches simulator state, so it cannot perturb the event
schedule.  Install it before the cluster is built (handlers are bound
at daemon construction) and always ``uninstall`` it afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

_clock = time.perf_counter_ns

#: (module, attribute path, layer).  An attribute path ``Class.method``
#: wraps the method as seen on that class (inherited methods are
#: shadowed on the class and restored on uninstall), so one base
#: method can be charged to a different layer per daemon kind.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # sim: the kernel.  Simulator.run is the outermost frame; its self
    # time is the residual not covered by any other layer.
    ("repro.sim.kernel", "Simulator.run", "sim"),
    ("repro.sim.kernel", "Simulator.run_until_complete", "sim"),
    ("repro.sim.kernel", "Simulator.schedule", "sim"),
    ("repro.sim.kernel", "Simulator.spawn", "sim"),
    # network: the message fabric.
    ("repro.sim.network", "Network.send", "network"),
    ("repro.sim.network", "Network._deliver", "network"),
    # msg: RPC send (payload deep copy included) and generic delivery.
    ("repro.msg.daemon", "Daemon.call", "msg"),
    ("repro.msg.daemon", "Daemon.cast", "msg"),
    ("repro.msg.daemon", "Daemon._post", "msg"),
    ("repro.msg.daemon", "Daemon._expire", "msg"),
    ("repro.msg.daemon", "Daemon.deliver", "msg"),
    # telemetry: counter bumps, latency observations, spans.
    ("repro.telemetry.counters", "PerfCounters.time", "telemetry"),
    ("repro.telemetry.counters", "PerfCounters.incr", "telemetry"),
    ("repro.telemetry.trace", "TraceCollector.start_span", "telemetry"),
    ("repro.telemetry.trace", "TraceCollector.finish", "telemetry"),
    # client: the client-side libraries, on whichever daemon runs them.
    ("repro.mds.client", "FsClient.seq_next", "client"),
    ("repro.mds.client", "FsClient.fs_request", "client"),
    ("repro.mds.client", "FsClient.fs_exec", "client"),
    ("repro.rados.client", "RadosClient.rados_op", "client"),
    ("repro.monitor.monitor", "MonitorClient.mon_request", "client"),
    # zlog: the shared-log service.
    ("repro.zlog.log", "ZLog.append", "zlog"),
    ("repro.zlog.log", "ZLog.read", "zlog"),
    ("repro.zlog.log", "ZLog.refresh_epoch", "zlog"),
    ("repro.zlog.recovery", "recover_log", "zlog"),
    # mds: delivery, request service, migration.
    ("repro.mds.server", "MDS.deliver", "mds"),
    ("repro.mds.server", "MDS._h_request", "mds"),
    ("repro.mds.server", "MDS.migrate_subtree", "mds"),
    ("repro.mds.server", "MDS._h_import", "mds"),
    # mantle: balancer ticks and policy evaluation.
    ("repro.mantle.balancer", "MantleBalancer.tick", "mantle"),
    ("repro.mantle.policy", "MantlePolicy.decide", "mantle"),
    # monitor: delivery, submissions, Paxos rounds.
    ("repro.monitor.monitor", "Monitor.deliver", "monitor"),
    ("repro.monitor.monitor", "Monitor._h_submit", "monitor"),
    ("repro.monitor.monitor", "Monitor._drive_instance", "monitor"),
    ("repro.monitor.monitor", "Monitor._apply_ready", "monitor"),
    # rados: OSD delivery, op service, replication, transactions.
    ("repro.rados.osd", "OSD.deliver", "rados"),
    ("repro.rados.osd", "OSD._h_osd_op", "rados"),
    ("repro.rados.osd", "OSD._h_repop", "rados"),
    ("repro.rados.osd", "OSD._replicate", "rados"),
    ("repro.rados.osd", "apply_ops", "rados"),
    # rados.clone: whole-object copies (op context, repop state).
    ("repro.rados.objects", "StoredObject.clone", "rados.clone"),
    ("repro.rados.objects", "StoredObject.to_dict", "rados.clone"),
    ("repro.rados.objects", "StoredObject.from_dict", "rados.clone"),
    # objclass: class method dispatch.
    ("repro.objclass.registry", "ClassRegistry.call", "objclass"),
    # store: the costed client plane of each backend in use.
    ("repro.store.memstore", "MemStore.fetch", "store"),
    ("repro.store.memstore", "MemStore.commit", "store"),
    ("repro.store.memstore", "MemStore.discard", "store"),
    ("repro.store.logstructured", "LogStructuredStore.fetch", "store"),
    ("repro.store.logstructured", "LogStructuredStore.commit", "store"),
    ("repro.store.logstructured", "LogStructuredStore.discard", "store"),
    ("repro.store.logstructured", "LogStructuredStore.maintenance",
     "store"),
    # observer planes (seq_roundtrip_observed).
    ("repro.analysis.sanitizers", "PaxosSanitizer.on_learn",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "PaxosSanitizer.on_epoch",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "CapabilitySanitizer.on_grant",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "CapabilitySanitizer.on_release",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "CapabilitySanitizer.on_revoke_start",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "CapabilitySanitizer.on_drop",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "ZLogEpochSanitizer.observe_ops",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "MigrationSanitizer.on_export_begin",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "MigrationSanitizer.on_import",
     "observer.sanitizers"),
    ("repro.analysis.sanitizers", "MigrationSanitizer.on_export_end",
     "observer.sanitizers"),
    ("repro.profiling.simprofiler", "SimProfiler.on_event",
     "observer.profiling"),
    ("repro.profiling.simprofiler", "SimProfiler.on_cancelled",
     "observer.profiling"),
    ("repro.profiling.simprofiler", "SimProfiler.on_handler",
     "observer.profiling"),
    ("repro.profiling.simprofiler", "SimProfiler.on_handler_done",
     "observer.profiling"),
    ("repro.profiling.wallprofiler", "WallClockProfiler.begin",
     "observer.profiling"),
    ("repro.profiling.wallprofiler", "WallClockProfiler.end_dispatch",
     "observer.profiling"),
    ("repro.profiling.wallprofiler", "WallClockProfiler.end_handler",
     "observer.profiling"),
    ("repro.mgr.daemon", "MgrDaemon.deliver", "observer.mgr"),
    ("repro.mgr.daemon", "MgrDaemon._scrape", "observer.mgr"),
    ("repro.sim.failure", "FailureInjector._should_drop", "observer.chaos"),
    ("repro.store.faults", "FaultInjectingStore.fetch", "observer.chaos"),
    ("repro.store.faults", "FaultInjectingStore.commit", "observer.chaos"),
    ("repro.store.faults", "FaultInjectingStore.discard",
     "observer.chaos"),
)

#: Every layer a target charges, plus nothing else: the report keys.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))


class LayerTracer:
    """Self-time and call-count accounting over :data:`TARGETS`.

    ``self_ns[layer]`` is host nanoseconds spent in the layer's own
    code; ``calls[target]`` counts calls per ``module:attr`` target;
    ``extra`` holds the probe counters the report needs (entries
    cloned, store delays, RPC timeouts, ...).
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, layer in TARGETS:
            owner, attr = _resolve(module_name, path)
            had_own = attr in vars(owner)
            original = inspect.getattr_static(owner, attr)
            # An inherited method may already carry a base-class
            # wrapper; wrap the plain function so layers never nest.
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            while getattr(fn, "_layer", None) is not None:
                fn = fn.__wrapped__
            key = f"{module_name}:{path}"
            wrapped: Any = self._wrap(fn, layer, key)
            if is_classmethod:
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, had_own, original))

    def uninstall(self) -> None:
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def reset(self) -> None:
        """Zero every figure (call after set-up, before measuring)."""
        self.self_ns.clear()
        self.calls.clear()
        self.extra.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copies of the figures: ``self_s`` per layer, ``calls`` per
        target, and the probe counters in ``extra``."""
        return {"self_s": {layer: self.self_ns.get(layer, 0) / 1e9
                           for layer in LAYERS},
                "calls": dict(self.calls),
                "extra": dict(self.extra)}

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], layer: str,
              key: str) -> Callable[..., Any]:
        probe = _PROBES.get(key)
        post = _POST_PROBES.get(key)
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        extra = self.extra

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args: Any, **kwargs: Any) -> Generator:
                calls[key] += 1
                if probe is not None:
                    probe(extra, args, kwargs)
                return _timed_steps(fn(*args, **kwargs), layer, stack,
                                    self_ns)
            return _copy_meta(gen_wrapper, fn, layer)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            if probe is not None:
                probe(extra, args, kwargs)
            frame = [0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(extra, result)
            return result
        return _copy_meta(wrapper, fn, layer)


def _timed_steps(body: Generator, layer: str, stack: List[List[int]],
                 self_ns: Dict[str, int]) -> Generator:
    """Drive ``body`` step for step, charging each step to ``layer``.

    Values, exceptions, return values and ``close`` pass straight
    through, so the caller cannot tell the trampoline is there.
    """
    to_send: Any = None
    to_throw: Optional[BaseException] = None
    while True:
        frame = [0]
        stack.append(frame)
        start = _clock()
        try:
            if to_throw is not None:
                err, to_throw = to_throw, None
                yielded = body.throw(err)
            else:
                yielded = body.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            elapsed = _clock() - start
            stack.pop()
            self_ns[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
        try:
            to_send = yield yielded
        except GeneratorExit:
            body.close()
            raise
        except BaseException as exc:  # re-thrown into the body next step
            to_send, to_throw = None, exc


def _copy_meta(wrapper: Callable[..., Any], fn: Callable[..., Any],
               layer: str) -> Callable[..., Any]:
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper._layer = layer  # type: ignore[attr-defined]
    return wrapper


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


# ----------------------------------------------------------------------
# Probes: extra counters read from call arguments / results
# ----------------------------------------------------------------------
def _clone_probe(extra: Dict[str, float], args: tuple,
                 kwargs: dict) -> None:
    obj = args[0]
    extra["clone_entries"] += len(obj.omap)
    extra["clone_bytes"] += len(obj.data)


def _from_dict_probe(extra: Dict[str, float], args: tuple,
                     kwargs: dict) -> None:
    state = args[-1]
    extra["clone_entries"] += len(state["omap"])
    extra["clone_bytes"] += len(state["data"])


def _commit_probe(extra: Dict[str, float], args: tuple,
                  kwargs: dict) -> None:
    extra["store_entries_committed"] += len(args[1].omap)


def _store_delay(extra: Dict[str, float], result: Any) -> None:
    delay = result[1] if isinstance(result, tuple) else result
    extra["store_delay_s"] += delay


def _expire_probe(extra: Dict[str, float], args: tuple,
                  kwargs: dict) -> None:
    daemon, msg_id = args[0], args[1]
    fut = daemon._pending.get(msg_id)
    if fut is not None and not fut.done:
        extra["rpc_timeouts"] += 1


def _fs_exec_probe(extra: Dict[str, float], args: tuple,
                   kwargs: dict) -> None:
    method = args[2] if len(args) > 2 else kwargs.get("method")
    if method == "next":
        extra["seq_next_rpcs"] += 1


_PROBES: Dict[str, Callable[[Dict[str, float], tuple, dict], None]] = {
    "repro.rados.objects:StoredObject.clone": _clone_probe,
    "repro.rados.objects:StoredObject.to_dict": _clone_probe,
    "repro.rados.objects:StoredObject.from_dict": _from_dict_probe,
    "repro.store.memstore:MemStore.commit": _commit_probe,
    "repro.store.logstructured:LogStructuredStore.commit": _commit_probe,
    "repro.msg.daemon:Daemon._expire": _expire_probe,
    "repro.mds.client:FsClient.fs_exec": _fs_exec_probe,
}

_POST_PROBES: Dict[str, Callable[[Dict[str, float], Any], None]] = {
    key: _store_delay for key in (
        "repro.store.memstore:MemStore.fetch",
        "repro.store.memstore:MemStore.commit",
        "repro.store.memstore:MemStore.discard",
        "repro.store.logstructured:LogStructuredStore.fetch",
        "repro.store.logstructured:LogStructuredStore.commit",
        "repro.store.logstructured:LogStructuredStore.discard",
    )
}
