"""The ``profile.*`` admin-socket surface.

Mirrors the telemetry commands: every daemon answers ``profile.status``
and ``profile.dump`` both out-of-band (``daemon.admin_command``) and
in-band as RPC handlers.  The commands are registered unconditionally —
so a profiled and an unprofiled cluster expose identical handler
tables — and simply report ``enabled: false`` when no profiler is
installed on the simulator.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Commands every daemon answers.
PROFILE_COMMANDS = ("profile.status", "profile.dump")


def install_profile_commands(daemon: Any) -> None:
    """Register the profiling commands on one daemon."""
    daemon.register_admin_command(
        "profile.status", lambda args: profile_status(daemon))
    daemon.register_admin_command(
        "profile.dump", lambda args: profile_dump(daemon, args))


def profile_status(daemon: Any) -> Dict[str, Any]:
    """Kernel-plane summary plus this daemon's handler totals."""
    prof = daemon.sim.profiler
    wall = daemon.sim.wall_profiler
    out: Dict[str, Any] = {
        "daemon": daemon.name,
        "enabled": prof is not None,
        "wall_enabled": wall is not None,
    }
    if prof is not None:
        out["kernel"] = prof.status()
        mine = prof.daemon_totals(daemon.name)
        out["handler_events"] = mine["events"]
        out["handler_sim_time"] = mine["sim_time"]
    return out


def profile_dump(daemon: Any,
                 args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Full profile dump.

    Default scope is this daemon's handler stats plus the kernel
    plane; ``{"scope": "cluster"}`` widens to every daemon's handler
    stats and the wall-clock plane (hotspots, attribution stats);
    ``{"collapsed": true}`` additionally inlines the flamegraph-ready
    collapsed-stack text.
    """
    args = args or {}
    prof = daemon.sim.profiler
    wall = daemon.sim.wall_profiler
    out: Dict[str, Any] = {
        "daemon": daemon.name,
        "enabled": prof is not None,
        "wall_enabled": wall is not None,
    }
    if prof is None:
        return out
    cluster_scope = args.get("scope") == "cluster"
    out["kernel"] = prof.status()
    out["handler_stats"] = prof.handler_stats(
        None if cluster_scope else daemon.name)
    if cluster_scope:
        out["top_sim_time"] = prof.top_handlers(10, by="sim_time")
        out["queue_samples"] = [list(s) for s in prof.queue_samples]
    if wall is not None and cluster_scope:
        out["wall"] = wall.dump()
        if args.get("collapsed"):
            out["collapsed_stacks"] = wall.collapsed_stacks()
    return out
