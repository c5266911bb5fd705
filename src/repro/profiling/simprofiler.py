"""Deterministic simulation-plane profiler.

Counts what the kernel and the daemons *do* in simulated time: events
dispatched, queue-depth and ready-batch high-water marks, and
per-daemon/per-handler dispatch counts with the simulated time each
handler consumed.  Every hook only reads kernel state and bumps plain
Python integers — no RNG draws, no scheduling, no messages, no wall
clock — so a profiled run's event schedule is byte-identical to an
unprofiled one (the same contract the protocol sanitizers honor,
pinned by an integration test).

Off by default: ``Simulator.profiler`` is ``None`` and the kernel's
dispatch loop takes a single-``is``-check fast path.  Enable per
cluster with ``MalacologyCluster.build(profile=True)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class HandlerStat:
    """Dispatch count and simulated time for one (daemon, method)."""

    __slots__ = ("count", "sim_time", "errors")

    def __init__(self) -> None:
        self.count = 0
        self.sim_time = 0.0
        self.errors = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "sim_time": self.sim_time,
                "errors": self.errors}


class SimProfiler:
    """Kernel- and handler-plane counters on the simulated clock.

    Attached at ``sim.profiler``; the kernel calls :meth:`on_event`
    per dispatched event and daemons call :meth:`on_handler` /
    :meth:`on_handler_done` around RPC handler execution.
    """

    #: Record a (time, queue depth) sample every this many events; the
    #: tape feeds the Perfetto counter track and stays small even for
    #: multi-million-event runs.
    SAMPLE_EVERY = 256

    def __init__(self, sim: Any):
        self.sim = sim
        # Kernel plane.
        self.events_dispatched = 0
        self.events_cancelled = 0
        self.queue_hwm = 0
        self.ready_hwm = 0            # longest same-timestamp dispatch run
        self._ready_run = 0
        self._last_when: Optional[float] = None
        #: (sim time, queue depth) tape, sampled every SAMPLE_EVERY
        #: events — deterministic because event counts are.
        self.queue_samples: List[Tuple[float, int]] = []
        # Handler plane.
        self._handlers: Dict[Tuple[str, str], HandlerStat] = {}

    # ------------------------------------------------------------------
    # Kernel hooks (hot path: keep these tiny)
    # ------------------------------------------------------------------
    def on_event(self, when: float, depth: int) -> None:
        self.events_dispatched += 1
        if depth > self.queue_hwm:
            self.queue_hwm = depth
        if when == self._last_when:
            self._ready_run += 1
            if self._ready_run > self.ready_hwm:
                self.ready_hwm = self._ready_run
        else:
            self._last_when = when
            self._ready_run = 1
            if self.ready_hwm == 0:
                self.ready_hwm = 1
        if self.events_dispatched % self.SAMPLE_EVERY == 0:
            self.queue_samples.append((when, depth))

    def on_cancelled(self) -> None:
        self.events_cancelled += 1

    # ------------------------------------------------------------------
    # Daemon handler hooks
    # ------------------------------------------------------------------
    def on_handler(self, daemon: str, method: str) -> None:
        stat = self._handlers.get((daemon, method))
        if stat is None:
            stat = self._handlers[(daemon, method)] = HandlerStat()
        stat.count += 1

    def on_handler_done(self, daemon: str, method: str,
                        sim_elapsed: float, error: bool = False) -> None:
        stat = self._handlers.get((daemon, method))
        if stat is None:
            stat = self._handlers[(daemon, method)] = HandlerStat()
        stat.sim_time += sim_elapsed
        if error:
            stat.errors += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def event_rate_sim(self) -> float:
        """Events dispatched per simulated second (0 before time moves)."""
        now = self.sim.now
        return self.events_dispatched / now if now > 0 else 0.0

    def handler_stats(self, daemon: Optional[str] = None
                      ) -> Dict[str, Dict[str, Any]]:
        """``"daemon:method" -> stats`` (optionally one daemon's)."""
        out: Dict[str, Dict[str, Any]] = {}
        for (d, method), stat in sorted(self._handlers.items()):
            if daemon is not None and d != daemon:
                continue
            out[f"{d}:{method}"] = stat.to_dict()
        return out

    def daemon_totals(self, daemon: str) -> Dict[str, float]:
        """Aggregate handler events / simulated time for one daemon
        (feeds ``profile.status``)."""
        events = 0
        sim_time = 0.0
        for (d, _), stat in self._handlers.items():
            if d == daemon:
                events += stat.count
                sim_time += stat.sim_time
        return {"events": float(events), "sim_time": sim_time}

    def top_handlers(self, n: int = 10, by: str = "sim_time"
                     ) -> List[Dict[str, Any]]:
        """The n busiest handlers, by ``sim_time`` or ``count``."""
        if by not in ("sim_time", "count"):
            raise ValueError(f"unknown sort key {by!r}")
        ranked = sorted(self._handlers.items(),
                        key=lambda kv: (-getattr(kv[1], by), kv[0]))
        return [{"daemon": d, "method": m, **stat.to_dict()}
                for (d, m), stat in ranked[:n]]

    def status(self) -> Dict[str, Any]:
        """One-screen kernel-plane summary (``profile.status``)."""
        return {
            "time": self.sim.now,
            "events_dispatched": self.events_dispatched,
            "events_cancelled": self.events_cancelled,
            "event_rate_sim": self.event_rate_sim(),
            "queue_depth": len(self.sim._queue),
            "queue_hwm": self.queue_hwm,
            "ready_hwm": self.ready_hwm,
            "handlers": len(self._handlers),
        }

    def dump(self) -> Dict[str, Any]:
        """Full simulation-plane dump (``profile.dump``)."""
        return {
            **self.status(),
            "handler_stats": self.handler_stats(),
            "top_sim_time": self.top_handlers(10, by="sim_time"),
            "queue_samples": [list(s) for s in self.queue_samples],
        }

    def prometheus_dump(self) -> Dict[str, Any]:
        """A telemetry-dump-shaped view for the synthetic ``kernel``
        target the mgr splices into its Prometheus export."""
        return {
            "counters": {
                "kernel.events": float(self.events_dispatched),
                "kernel.events_cancelled": float(self.events_cancelled),
            },
            "gauges": {
                "kernel.event_rate_sim": self.event_rate_sim(),
                "kernel.queue_depth": float(len(self.sim._queue)),
                "kernel.queue_hwm": float(self.queue_hwm),
                "kernel.ready_hwm": float(self.ready_hwm),
            },
        }

    def reset(self) -> None:
        self.events_dispatched = 0
        self.events_cancelled = 0
        self.queue_hwm = 0
        self.ready_hwm = 0
        self._ready_run = 0
        self._last_when = None
        self.queue_samples = []
        self._handlers = {}
