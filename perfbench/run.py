#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq_lease --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached:
it repeats set-up plus a fixed simulated phase (an *episode*) until
``--seconds`` of host time are used, and reports medians.  Host times
are scaled to a reference host speed by a calibration loop timed next
to each set-up and window (``workloads.host_slowness``); the detail
line also gives them as measured.  ``--trace 1`` runs an episode
twice, untraced and then with the per-layer wrappers of ``layers.py``
installed, checks that both agree, and reports the per-layer metrics
of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric with its unit, then give the full detail
(seed, tail percentiles, workload properties, problems) as JSON.  A
failed correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A seed kept out of tuning, for confirming a claimed change.
HELD_OUT_SEED = 7919
#: Set-ups timed per run at least (episodes count towards it).
SETUP_REPS = 21
#: Bounds on trace.accounted_share: the layers' self times plus the
#: kernel residual must account for the traced wall time.
ACCOUNTED_SHARE = (0.9, 1.01)

#: name -> unit, in report order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_ops_per_s": "1/s",
    "write_lat_mean_ms": "ms",
    "write_lat_tail_ms": "ms",
    "op_ok_ratio": "ratio",
}

PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.self_host_s": "s",
    "network.sent": "count",
    "network.dropped": "count",
    "network.host_us_per_send": "us",
    "msg.calls": "count",
    "msg.casts": "count",
    "msg.msgs_per_op": "ratio",
    "msg.rpc_timeouts": "count",
    "msg.host_us_per_msg": "us",
    "telemetry.observes": "count",
    "telemetry.records": "count",
    "telemetry.host_ns_per_record": "ns",
    "telemetry.retained_samples": "count",
    "client.host_s": "s",
    "mds.requests": "count",
    "mds.host_us_per_req": "us",
    "mds.req_sim_ms_mean": "ms",
    "mds.cap_grants": "count",
    "mds.cap_revokes": "count",
    "mds.cap_hit_ratio": "ratio",
    "mds.migrations": "count",
    "mantle.ticks": "count",
    "mantle.moves": "count",
    "mantle.host_us_per_tick": "us",
    "monitor.submits": "count",
    "monitor.paxos_commits": "count",
    "monitor.paxos_commit_sim_ms_mean": "ms",
    "monitor.host_s": "s",
    "rados.ops": "count",
    "rados.read_ops": "count",
    "rados.write_ops": "count",
    "rados.repops": "count",
    "rados.not_primary": "count",
    "rados.host_us_per_op": "us",
    "rados.clone_entries_per_op": "count",
    "rados.clone_host_s": "s",
    "objclass.calls": "count",
    "objclass.host_us_per_call": "us",
    "store.fetches": "count",
    "store.commits": "count",
    "store.host_us_per_call": "us",
    "store.sim_delay_ms_per_op": "ms",
    "store.compactions": "count",
    "store.garbage_ratio": "ratio",
    "store.write_amp": "ratio",
    "zlog.append_retries": "count",
    "zlog.read_stale_retries": "count",
    "zlog.seals": "count",
    "zlog.host_s": "s",
    "zlog.read_lat_mean_ms": "ms",
    "zlog.read_lat_p50_ms": "ms",
    "zlog.read_lat_tail_ms": "ms",
    "observer.sanitizers.host_s": "s",
    "observer.profiling.host_s": "s",
    "observer.mgr.host_s": "s",
    "observer.chaos.host_s": "s",
    "mgr.scrapes": "count",
    "workload.ops": "count",
    "workload.osd_ops_per_op": "ratio",
    "workload.read_share": "ratio",
    "workload.stripe_entries_start": "count",
    "workload.stripe_entries_end": "count",
    "workload.write_lat_p50_ms": "ms",
    "workload.write_lat_tail_pct": "%",
    "workload.write_lat_tail_beyond": "count",
    "workload.read_lat_tail_pct": "%",
    "workload.read_lat_tail_beyond": "count",
    "trace_overhead_ratio": "ratio",
    "trace.accounted_share": "ratio",
}


def import_program() -> None:
    """Put the program's sources on the path; fail without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float
            ) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    from workloads import (ALL_WORKLOADS, peak_rss_mib, run_episode,
                           timed_setup)

    cls = ALL_WORKLOADS[name]
    began = time.perf_counter()
    episodes = [run_episode(cls, seed)]
    while True:
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(episodes) > seconds:
            break
        episodes.append(run_episode(cls, seed))
    setups = [e.setup for e in episodes]
    while len(setups) < SETUP_REPS:
        setups.append(timed_setup(cls, seed)[1:])

    first = episodes[0]
    sim = first.sim
    problems = list(dict.fromkeys(p for e in episodes for p in e.problems))
    for e in episodes[1:]:
        if e.sim != sim or e.counts != first.counts:
            problems.append("an episode replay diverged from the first")
    windows = [w for e in episodes for w in e.windows if w[1] > 0]
    metrics = {
        "setup_s": statistics.median(raw / slow for raw, slow in setups),
        "host_ops_per_s": statistics.median(
            ops / host * slow for ops, host, slow in windows),
        "peak_rss_mib": peak_rss_mib(),
        "sim_ops_per_s": sim["sim_ops_per_s"],
        "write_lat_mean_ms": sim["write_lat_mean_ms"],
        "write_lat_tail_ms": sim["write_lat_tail_ms"],
        "op_ok_ratio": 1.0 - _per(sim["failed"], sim["attempted"]),
    }
    detail = {
        "episodes": len(episodes),
        "windows_per_episode": len(first.windows),
        "sim_seconds_per_episode": first.sim_seconds,
        "setup_samples_s_and_slowness": setups,
        "host_s_per_episode": [e.host_s for e in episodes],
        "uncalibrated": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "host_ops_per_s": statistics.median(
                ops / host for ops, host, _ in windows),
        },
        "host_slowness_median": statistics.median(
            slow for _, _, slow in windows),
        "sim": sim,
        "errors": first.errors,
        "counts": first.counts,
        "properties": first.properties,
        "attempted": sum(e.sim["attempted"] for e in episodes),
        "failed": sum(e.sim["failed"] for e in episodes),
    }
    return metrics, detail, problems


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def trace(name: str, seed: int
          ) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    from layers import LayerTracer
    from workloads import ALL_WORKLOADS, run_episode

    cls = ALL_WORKLOADS[name]
    base = run_episode(cls, seed)
    traced = run_episode(cls, seed, tracer=LayerTracer())
    problems = list(dict.fromkeys(base.problems + traced.problems))
    if traced.sim != base.sim:
        problems.append("tracing changed the simulated metrics")
    changed = sorted(k for k in base.counts
                     if traced.counts.get(k) != base.counts[k])
    if changed:
        problems.append(f"tracing changed program counts: {changed}")
    metrics = layer_metrics(base, traced)
    low, high = ACCOUNTED_SHARE
    if not low <= metrics["trace.accounted_share"] <= high:
        problems.append("layer self times account for "
                        f"{metrics['trace.accounted_share']:.3f} of the "
                        "traced wall time")
    detail = {
        "sim": base.sim,
        "sim_seconds": cls.sim_seconds,
        "untraced_host_s": base.host_s,
        "traced_host_s": traced.host_s,
        "layer_self_s": traced.layers["self_s"],
        "attempted": base.sim["attempted"],
        "failed": base.sim["failed"],
    }
    return metrics, detail, problems


def layer_metrics(base: Any, traced: Any) -> Dict[str, float]:
    """The per-layer table from an untraced and a traced episode."""
    counts = traced.counts
    sim = traced.sim
    layers = traced.layers
    self_s = layers["self_s"]
    extra = layers["extra"]

    def calls(*targets: str) -> int:
        return sum(layers["calls"].get(t, 0) for t in targets)

    ops = sim["attempted"] - sim["failed"]
    rados_ops = counts["rados.ops"]
    writes = calls("repro.rados.osd:OSD._replicate")
    observes = calls("repro.telemetry.counters:PerfCounters.time")
    records = observes + calls("repro.telemetry.counters:PerfCounters.incr")
    seq_next = calls("repro.mds.client:FsClient.seq_next")
    seq_misses = counts["client.cap_acquired"] + extra.get("seq_next_rpcs",
                                                           0)
    ticks = calls("repro.mantle.balancer:MantleBalancer.tick")
    fetches = calls("repro.store.memstore:MemStore.fetch",
                    "repro.store.logstructured:LogStructuredStore.fetch")
    commits = calls("repro.store.memstore:MemStore.commit",
                    "repro.store.logstructured:LogStructuredStore.commit")
    discards = calls("repro.store.memstore:MemStore.discard",
                     "repro.store.logstructured:LogStructuredStore.discard")
    objclass = calls("repro.objclass.registry:ClassRegistry.call")
    sent = counts["network.sent"]
    props = traced.properties
    out = {
        "sim.events": counts["sim.events"],
        "sim.host_ns_per_event": _per(base.ref_host_s * 1e9,
                                      base.counts["sim.events"]),
        "sim.self_host_s": self_s["sim"],
        "network.sent": sent,
        "network.dropped": counts["network.dropped"],
        "network.host_us_per_send": _per(self_s["network"] * 1e6, sent),
        "msg.calls": calls("repro.msg.daemon:Daemon.call"),
        "msg.casts": calls("repro.msg.daemon:Daemon.cast"),
        "msg.msgs_per_op": _per(sent, ops),
        "msg.rpc_timeouts": extra.get("rpc_timeouts", 0),
        "msg.host_us_per_msg": _per(self_s["msg"] * 1e6, sent),
        "telemetry.observes": observes,
        "telemetry.records": records,
        "telemetry.host_ns_per_record": _per(self_s["telemetry"] * 1e9,
                                             records),
        "telemetry.retained_samples": props["telemetry.retained_samples"],
        "client.host_s": self_s["client"],
        "mds.requests": counts["mds.requests"],
        "mds.host_us_per_req": _per(self_s["mds"] * 1e6,
                                    counts["mds.requests"]),
        "mds.req_sim_ms_mean": _per(counts["mds.req_sim_s"] * 1e3,
                                    counts["mds.requests"]),
        "mds.cap_grants": counts["mds.cap_grants"],
        "mds.cap_revokes": counts["mds.cap_revokes"],
        "mds.cap_hit_ratio": _per(max(0, seq_next - seq_misses), seq_next),
        "mds.migrations": counts["mds.migrations"],
        "mantle.ticks": ticks,
        "mantle.moves": calls("repro.mds.server:MDS.migrate_subtree"),
        "mantle.host_us_per_tick": _per(self_s["mantle"] * 1e6, ticks),
        "monitor.submits": counts["monitor.submits"],
        "monitor.paxos_commits": counts["monitor.paxos_commits"],
        "monitor.paxos_commit_sim_ms_mean": _per(
            counts["monitor.paxos_commit_sim_s"] * 1e3,
            counts["monitor.paxos_commits"]),
        "monitor.host_s": self_s["monitor"],
        "rados.ops": rados_ops,
        "rados.read_ops": rados_ops - writes,
        "rados.write_ops": writes,
        "rados.repops": counts["rados.repops"],
        "rados.not_primary": counts["rados.not_primary"],
        "rados.host_us_per_op": _per(self_s["rados"] * 1e6, rados_ops),
        "rados.clone_entries_per_op": _per(extra.get("clone_entries", 0),
                                           rados_ops),
        "rados.clone_host_s": self_s["rados.clone"],
        "objclass.calls": objclass,
        "objclass.host_us_per_call": _per(self_s["objclass"] * 1e6,
                                          objclass),
        "store.fetches": fetches,
        "store.commits": commits,
        "store.host_us_per_call": _per(self_s["store"] * 1e6,
                                       fetches + commits + discards),
        "store.sim_delay_ms_per_op": _per(
            extra.get("store_delay_s", 0) * 1e3, rados_ops),
        "store.compactions": counts["store.compactions"],
        "store.garbage_ratio": props["store.garbage_ratio"],
        "store.write_amp": _per(extra.get("store_entries_committed", 0),
                                sim.get("write_ops", 0)
                                if traced.appends_log_entries
                                else 0),
        "zlog.append_retries": counts["zlog.append_retries"],
        "zlog.read_stale_retries": counts.get("zlog.read_stale_retries", 0),
        "zlog.seals": counts.get("zlog.seals", 0),
        "zlog.host_s": self_s["zlog"],
        "zlog.read_lat_mean_ms": sim.get("read_lat_mean_ms", 0.0),
        "zlog.read_lat_p50_ms": sim.get("read_lat_p50_ms", 0.0),
        "zlog.read_lat_tail_ms": sim.get("read_lat_tail_ms", 0.0),
        "observer.sanitizers.host_s": self_s["observer.sanitizers"],
        "observer.profiling.host_s": self_s["observer.profiling"],
        "observer.mgr.host_s": self_s["observer.mgr"],
        "observer.chaos.host_s": self_s["observer.chaos"],
        "mgr.scrapes": counts["mgr.scrapes"],
        "workload.ops": ops,
        "workload.osd_ops_per_op": _per(rados_ops, ops),
        "workload.read_share": _per(sim.get("read_ops", 0), ops),
        "workload.stripe_entries_start":
            props.get("workload.stripe_entries_start", 0.0),
        "workload.stripe_entries_end":
            props.get("workload.stripe_entries_end", 0.0),
        "workload.write_lat_p50_ms": sim.get("write_lat_p50_ms", 0.0),
        "workload.write_lat_tail_pct": sim.get("write_lat_tail_pct", 0.0),
        "workload.write_lat_tail_beyond":
            sim.get("write_lat_tail_beyond", 0),
        "workload.read_lat_tail_pct": sim.get("read_lat_tail_pct", 0.0),
        "workload.read_lat_tail_beyond": sim.get("read_lat_tail_beyond", 0),
        "trace_overhead_ratio": _per(traced.ref_host_s, base.ref_host_s),
        "trace.accounted_share": _per(sum(self_s.values()), traced.host_s),
    }
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import ALL_WORKLOADS

    if args.workload not in ALL_WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(ALL_WORKLOADS)}")
    if args.trace:
        metrics, detail, problems = trace(args.workload, args.seed)
        units = PER_LAYER
    else:
        metrics, detail, problems = measure(args.workload, args.seed,
                                            args.seconds)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "held_out_seed": HELD_OUT_SEED, "problems": problems})
    print(json.dumps(detail, sort_keys=True, default=str))
    result = {
        "correct": not problems,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
