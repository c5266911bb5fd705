"""The benchmark's workloads and the episode that measures one of them.

A workload boots its own cluster from the seed, prepares its inputs,
and drives closed-loop clients: each client issues its next operation
only when the previous one has completed.  All clients are generators
inside the one single-threaded simulator of this process.

An *episode* is one set-up followed by a measured phase of a fixed
number of simulated seconds, cut into windows.  Every simulated figure
of an episode (``sim_*``, latencies, counts) is a pure function of the
seed; host figures (``host_*``, set-up time, RSS) are wall-clock
measurements of the host that runs the benchmark.

Workloads (see README.md for why each exists):

* ``seq_lease`` — 2 clients on one sequencer under a quota lease;
* ``seq_roundtrip`` — 3 sequencers x 4 clients, round-trip mode, 3 MDSs
  under the Mantle sequencer policy;
* ``seq_roundtrip_observed`` — the same inputs with every passive
  observer plane on;
* ``zlog_mixed`` — one ZLog: 3 appenders, 1 reader, 1 sealer.

``DEFECT_REPROS`` holds two more runs that fail a correctness check
because of a known program defect; BENCHMARK.json does not list them.
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
import statistics
import time
from array import array
from typing import Any, Dict, Generator, List, Optional, Tuple, Type

from repro.analysis import sanitizers
from repro.chaos import NemesisEngine, NemesisSchedule
from repro.core import (
    LoadBalancingInterface,
    MalacologyCluster,
    SharedResourceInterface,
)
from repro.errors import MalacologyError, StaleEpoch
from repro.mantle import attach_balancers, builtin
from repro.objclass.bundled import cls_zlog
from repro.rados.placement import locate
from repro.sim.event import Timeout
from repro.store.faults import unwrap_store
from repro.store.logstructured import LogStructuredStore
from repro.zlog import StripeLayout, ZLog
from repro.zlog import recovery as zlog_recovery
from repro.zlog.log import sequencer_path

#: Tail percentiles, highest first; the reported tail is the highest
#: one with at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0)
TAIL_MIN_BEYOND = 10

#: Idle simulated seconds between the clients' stop and the health
#: check (MDS_LATENCY_REGRESSION looks back 10 s; the mgr scrapes
#: every 2 s).
SETTLE_SECONDS = 12.0

#: Telemetry latency trackers that retain every sample (Fig. 7 CDFs).
RETAINED_TRACKERS = ("seq.next", "zlog.append")


class OpLog:
    """Outcomes of the workload's client operations in the measured phase.

    ``lat[kind]`` holds simulated seconds per completed op; kinds are
    ``write`` (the op that advances the log tail) and ``read``.
    """

    def __init__(self) -> None:
        # Compact arrays keep the benchmark's own share of RSS small.
        self.lat: Dict[str, Any] = {"write": array("d"),
                                    "read": array("d")}
        self.failed = 0
        self.errors: Dict[str, int] = {}

    @property
    def done(self) -> int:
        return len(self.lat["write"]) + len(self.lat["read"])

    def ok(self, kind: str, latency: float) -> None:
        self.lat[kind].append(latency)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


class Workload:
    """Base class: one cluster, closed-loop clients, correctness checks."""

    name = ""
    #: Simulated seconds measured per episode.
    sim_seconds = 0.0
    #: Window length: about 0.1-0.2 host seconds each, so every window
    #: gets its own calibration sample while the host's speed drifts.
    window = 1.0
    #: Whether the write op appends an entry to stored objects (ZLog).
    appends_log_entries = False
    #: The CALIBRATIONS loop whose slowdown tracks this workload's best
    #: on a loaded host; its set-ups and windows are scaled by it.
    calibration = "mixed"

    def __init__(self, seed: int):
        self.seed = seed
        self.cluster: Any = None
        self.log = OpLog()
        #: Correctness problems found while running (checked at the end).
        self.problems: List[str] = []
        self._procs: List[Any] = []

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Boot the cluster and prepare every input (timed as set-up)."""
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Cancel every client loop; ops in flight are abandoned."""
        for proc in self._procs:
            proc.cancel()
        self._procs.clear()

    def _spawn(self, client: Any, body: Generator, name: str) -> None:
        self._procs.append(client.spawn(body, name=name))

    def inputs(self, stream: str) -> random.Random:
        """A generator of workload inputs derived from the seed only."""
        return random.Random(f"{self.seed}/{self.name}/{stream}")

    # -- results --------------------------------------------------------
    def checks(self) -> List[str]:
        """Correctness problems after the measured phase ([] = correct).

        Health is read at the end of the run: after the clients stop and
        the cluster has idled for SETTLE_SECONDS, long enough for load-
        and latency-based checks to see the load gone and for a mgr to
        scrape again.
        """
        problems = list(self.problems)
        self.cluster.run(SETTLE_SECONDS)
        report = self.cluster.health()
        if report.get("status") != "HEALTH_OK":
            problems.append(f"cluster health {report.get('status')}: "
                            f"{sorted(report.get('checks', {}))}")
        return problems

    def counts(self) -> Dict[str, float]:
        """Cumulative program counters (telemetry, network, kernel).

        Deterministic for a seed; the measured phase's figures are the
        difference between a snapshot after set-up and one at the end.
        """
        c = self.cluster
        net = c.net.stats()
        out: Dict[str, float] = {
            # Consuming one sequence number keeps relative event order.
            "sim.events": next(c.sim._seq),
            "network.sent": net["messages_sent"],
            "network.dropped": net["messages_dropped"],
        }
        daemons = [*c.daemons(), *self.clients_all()]
        out["msg.rpc_tx"] = sum(d.perf.get("rpc.tx") for d in daemons)
        out["msg.rpc_rx"] = sum(d.perf.get("rpc.rx") for d in daemons)
        mds_req = [m.perf.latency("rpc.mds_req") for m in c.mdss]
        out["mds.requests"] = sum(t.count for t in mds_req)
        out["mds.req_sim_s"] = sum(t.sum for t in mds_req)
        for key, name in (("mds.cap_grants", "cap.grant"),
                          ("mds.cap_revokes", "cap.revoke"),
                          ("mds.migrations", "migrate.export")):
            out[key] = sum(m.perf.get(name) for m in c.mdss)
        commit = [m.perf.latency("paxos.commit") for m in c.mons]
        out["monitor.submits"] = sum(m.perf.get("mon.submit")
                                     for m in c.mons)
        out["monitor.paxos_commits"] = sum(t.count for t in commit)
        out["monitor.paxos_commit_sim_s"] = sum(t.sum for t in commit)
        for key, name in (("rados.ops", "op.in"),
                          ("rados.not_primary", "op.not_primary"),
                          ("rados.repops", "repop.rx")):
            out[key] = sum(o.perf.get(name) for o in c.osds)
        out["client.cap_acquired"] = sum(
            cl.perf.get("cap.acquired") for cl in self.clients_all())
        out["zlog.append_retries"] = sum(
            cl.perf.get("zlog.append.stale")
            + cl.perf.get("zlog.append.conflict")
            for cl in self.clients_all())
        out["store.compactions"] = sum(s.compactions
                                       for s in self.log_stores())
        out["mgr.scrapes"] = c.mgr.scrape_count if c.mgr else 0
        return out

    def clients_all(self) -> List[Any]:
        """Every client daemon the workload created."""
        return []

    def log_stores(self) -> List[LogStructuredStore]:
        return [store for osd in self.cluster.osds
                for store in map(unwrap_store, osd.pgs.values())
                if isinstance(store, LogStructuredStore)]

    def properties(self) -> Dict[str, float]:
        """End-of-phase state figures for the per-layer report."""
        ratios = [s.garbage_ratio() for s in self.log_stores() if len(s)]
        daemons = [*self.cluster.daemons(), *self.clients_all()]
        return {
            "telemetry.retained_samples": sum(
                len(d.perf.samples(name))
                for d in daemons for name in RETAINED_TRACKERS),
            "store.garbage_ratio": (sum(ratios) / len(ratios)
                                    if ratios else 0.0),
        }


def _seq_loop(wl: Workload, client: Any, path: str,
              positions: Any) -> Generator:
    """Closed loop of ``seq.next`` on one sequencer."""
    sim = client.sim
    while True:
        started = sim.now
        try:
            pos = yield from client.seq_next(path)
        except MalacologyError as exc:
            wl.log.fail(exc)
            continue
        wl.log.ok("write", sim.now - started)
        positions.append(pos)


def check_positions(label: str,
                    per_client: Dict[str, List[int]]) -> List[str]:
    """Sequencer invariants over the positions each client received.

    Positions are unique and increase per client.  A position missing
    below the highest one is allowed only for ops still in flight when
    the clients stopped: at most one per client, and only near the top.
    """
    problems = []
    seen: List[int] = []
    for name, got in sorted(per_client.items()):
        if any(b <= a for a, b in zip(got, got[1:])):
            problems.append(f"{label}: positions of {name} do not increase")
        seen.extend(got)
    if len(set(seen)) != len(seen):
        problems.append(f"{label}: {len(seen) - len(set(seen))} "
                        "positions issued twice")
    if seen:
        top = max(seen)
        missing = set(range(top + 1)) - set(seen)
        in_flight = len(per_client)
        if (len(missing) > in_flight
                or any(m < top - 8 * in_flight for m in missing)):
            problems.append(f"{label}: {len(missing)} gaps below {top}, "
                            f"first {sorted(missing)[:5]}")
    return problems


class SeqLease(Workload):
    """Fig. 6/7 point: 2 clients, one sequencer, quota lease."""

    name = "seq_lease"
    sim_seconds = 30.0
    window = 0.5
    # Under host load this workload slows about twice as much as the
    # mixed loop, and in step with the dispatch loop.
    calibration = "dispatch"
    PATH = "/leasebench/seq"
    CLIENTS = 2

    def setup(self) -> None:
        c = self.cluster = MalacologyCluster.build(osds=3, mdss=1,
                                                   seed=self.seed)
        c.do(SharedResourceInterface(c.admin).set_lease_policy(
            "quota", quota=1000, max_hold=0.25))
        c.do(c.admin.fs_mkdir(self.PATH.rsplit("/", 1)[0]))
        c.do(c.admin.fs_create(self.PATH, file_type="sequencer"))
        self.clients = [c.new_client(f"lease-c{i}")
                        for i in range(self.CLIENTS)]
        self.positions: Dict[str, Any] = {
            cl.name: array("q") for cl in self.clients}

    def start(self) -> None:
        for cl in self.clients:
            self._spawn(cl, _seq_loop(self, cl, self.PATH,
                                      self.positions[cl.name]),
                        f"lease:{cl.name}")

    def clients_all(self) -> List[Any]:
        return self.clients

    def checks(self) -> List[str]:
        return (super().checks()
                + check_positions(self.PATH, self.positions))


class SeqRoundtrip(Workload):
    """Fig. 9 Mantle point: 3 sequencers x 4 round-trip clients, 3 MDSs.

    Set-up places sequencer ``i`` on MDS rank ``i``: the balanced state
    the Mantle sequencer policy moves towards.  The balancer runs for
    the whole phase; with the load balanced it finds no receiver and
    moves nothing, so no subtree migrates under load (see
    :class:`SeqMantleRebalance` for the run where it does).
    """

    name = "seq_roundtrip"
    #: One balancer tick per MDS (MDS.BALANCE_INTERVAL is 10 s).
    sim_seconds = 10.0
    window = 0.5
    SEQUENCERS = 3
    CLIENTS_PER_SEQ = 4
    #: Whether set-up spreads the sequencers over the MDS ranks.
    SPREAD = True

    def build_options(self) -> Dict[str, Any]:
        return {}

    def setup(self) -> None:
        c = self.cluster = MalacologyCluster.build(
            osds=3, mdss=3, seed=self.seed, **self.build_options())
        attach_balancers(c)
        c.do(LoadBalancingInterface(c.admin).publish_policy(
            "mantle", builtin.MANTLE_SEQUENCER))
        c.do(SharedResourceInterface(c.admin).set_lease_policy(
            "round-trip"))
        c.do(c.admin.fs_mkdir("/seqbench"))
        self.paths = [f"/seqbench/seq{i}" for i in range(self.SEQUENCERS)]
        for path in self.paths:
            c.do(c.admin.fs_create(path, file_type="sequencer"))
        if self.SPREAD:
            for rank, path in enumerate(self.paths):
                owner = c.mds_of_rank(c.mons[0].store.mdsmap.owner_of(path))
                c.sim.run_until_complete(
                    owner.spawn(owner.migrate_subtree(path, rank)))
        self.clients = [(path, c.new_client(f"wl-s{i}-c{j}"))
                        for i, path in enumerate(self.paths)
                        for j in range(self.CLIENTS_PER_SEQ)]
        self.positions: Dict[str, Dict[str, Any]] = {
            path: {} for path in self.paths}
        for path, cl in self.clients:
            self.positions[path][cl.name] = array("q")

    def start(self) -> None:
        for path, cl in self.clients:
            self._spawn(cl, _seq_loop(self, cl, path,
                                      self.positions[path][cl.name]),
                        f"rt:{cl.name}")

    def clients_all(self) -> List[Any]:
        return [cl for _, cl in self.clients]

    def checks(self) -> List[str]:
        problems = super().checks()
        for path in self.paths:
            problems += check_positions(path, self.positions[path])
        return problems


class SeqMantleRebalance(SeqRoundtrip):
    """``seq_roundtrip`` with every sequencer starting on rank 0, so
    Mantle migrates sequencers while their clients run.

    Not a benchmark workload: it exposes a program defect (duplicate
    sequencer positions across a migration; README.md, Known failures).
    """

    name = "seq_mantle_rebalance"
    #: Long enough for Mantle to finish balancing (2 moves).
    sim_seconds = 45.0
    SPREAD = False


class SeqRoundtripObserved(SeqRoundtrip):
    """``seq_roundtrip`` inputs with every passive observer plane on.

    Sanitizers, both profilers, the mgr, and a chaos engine armed with
    an empty schedule.  RPC span tracing (``Daemon.traced``) is left
    out: the trace collector keeps every span for the life of the run,
    so its memory is not bounded.
    """

    name = "seq_roundtrip_observed"
    window = 0.25

    def build_options(self) -> Dict[str, Any]:
        return {"sanitize": True, "profile": True, "mgr": True}

    def setup(self) -> None:
        super().setup()
        # The program lists every sanitizer registry in
        # ``sanitizers.ACTIVE`` for the test suite's fixture, which
        # reads and then drops them; each keeps its whole cluster
        # alive.  The checks read the report from the cluster, so drop
        # the registry as the fixture does, or every set-up would keep
        # a cluster and slow the ones after it.
        sanitizers.ACTIVE.remove(self.cluster.sim.sanitizers)
        self.engine = NemesisEngine(self.cluster)
        self.engine.arm(NemesisSchedule(name="empty",
                                        duration=self.sim_seconds))

    def checks(self) -> List[str]:
        # The run is over: disarm the (empty) schedule as a chaos run's
        # end does, so the armed-nemesis warning clears before health.
        self.engine.finalize()
        problems = super().checks()
        violations = self.cluster.sanitizer_report()
        if violations:
            problems.append(f"{len(violations)} sanitizer violations: "
                            f"{violations[:2]}")
        return problems


class ZlogMixed(Workload):
    """One ZLog: round-trip appenders, random readers, a periodic sealer.

    The log's pool uses the default store (``memstore``); see
    :class:`ZlogMixedLogstructured` for the ``logstructured`` one.
    """

    name = "zlog_mixed"
    sim_seconds = 0.6
    window = 0.005
    appends_log_entries = True
    # Over repeated episodes on a loaded host, the dispatch loop held
    # this workload's calibrated speed within +-4% while the raw speed
    # moved +-25% and the mixed loop left +-14%.
    calibration = "dispatch"
    LOG = "bench"
    POOL = "zlog"
    WIDTH = 4
    PREFILL_PER_OBJECT = 400
    APPENDERS = 3
    READERS = 1
    #: Often enough (5 seals per phase, so about 15 appends retry on a
    #: new epoch) that the p99 write latency falls among the appends a
    #: seal delayed on every seed, not at the edge of that group.
    SEAL_INTERVAL = 0.05
    READ_STALE_RETRIES = 8
    #: Acked positions read back in-band after the run.
    READBACK_SAMPLE = 32
    #: Pool configuration of the log's pool.
    POOL_CONFIG: Dict[str, Any] = {"size": 2, "pg_num": 8}

    def setup(self) -> None:
        pools = dict(MalacologyCluster.DEFAULT_POOLS)
        pools[self.POOL] = dict(self.POOL_CONFIG)
        c = self.cluster = MalacologyCluster.build(
            osds=3, mdss=1, seed=self.seed, pools=pools)
        c.do(SharedResourceInterface(c.admin).set_lease_policy(
            "round-trip"))
        self.layout = StripeLayout(self.LOG, width=self.WIDTH,
                                   pool=self.POOL)
        c.do(ZLog(c.admin, self.LOG, layout=self.layout).create())
        self.acked: Dict[int, str] = {}
        self.acked_order: List[int] = []
        self._prefill()
        self.read_stale_retries = 0
        self.seals = 0
        roles = ([f"append{i}" for i in range(self.APPENDERS)]
                 + [f"read{i}" for i in range(self.READERS)] + ["seal"])
        self.handles: Dict[str, ZLog] = {}
        for role in roles:
            client = c.new_client(f"zlog-{role}")
            handle = ZLog(client, self.LOG)
            c.sim.run_until_complete(client.do(handle.open()))
            self.handles[role] = handle
        self.entries_start = self.stripe_entries()

    def _prefill(self) -> None:
        """Write PREFILL_PER_OBJECT entries per stripe object, one
        transaction per object, then move the sequencer past them."""
        c = self.cluster
        rng = self.inputs("prefill")
        total = self.WIDTH * self.PREFILL_PER_OBJECT
        payloads = [_payload(rng) for _ in range(total)]
        for i in range(self.WIDTH):
            ops = [{"op": "exec", "cls": "zlog", "method": "write",
                    "args": {"epoch": 1, "pos": pos,
                             "data": payloads[pos]}}
                   for pos in range(i, total, self.WIDTH)]
            c.do(c.admin.rados_op(self.POOL, self.layout.object_of(i),
                                  ops))
        c.do(c.admin.fs_exec(sequencer_path(self.LOG), "set_min_tail",
                             {"tail": total}))
        for pos, data in enumerate(payloads):
            self.acked[pos] = data
            self.acked_order.append(pos)

    def start(self) -> None:
        for role, handle in self.handles.items():
            if role.startswith("append"):
                body = self._append_loop(handle, self.inputs(role))
            elif role.startswith("read"):
                body = self._read_loop(handle, self.inputs(role))
            else:
                body = self._seal_loop(handle)
            self._spawn(handle.client, body, f"zlog:{role}")

    def clients_all(self) -> List[Any]:
        return [h.client for h in self.handles.values()]

    # -- client loops ---------------------------------------------------
    def _append_loop(self, log: ZLog, rng: random.Random) -> Generator:
        sim = self.cluster.sim
        while True:
            data = _payload(rng)
            started = sim.now
            try:
                pos = yield from log.append(data)
            except MalacologyError as exc:
                self.log.fail(exc)
                continue
            self.log.ok("write", sim.now - started)
            if pos in self.acked:
                self.problems.append(f"position {pos} acked twice")
            self.acked[pos] = data
            self.acked_order.append(pos)

    def _read_loop(self, log: ZLog, rng: random.Random) -> Generator:
        sim = self.cluster.sim
        while True:
            pos = self.acked_order[rng.randrange(len(self.acked_order))]
            started = sim.now
            try:
                entry = yield from self._read(log, pos)
            except MalacologyError as exc:
                self.log.fail(exc)
                continue
            self.log.ok("read", sim.now - started)
            if entry != {"state": cls_zlog.WRITTEN,
                         "data": self.acked[pos]}:
                self.problems.append(f"read of position {pos} returned "
                                     f"{entry!r}")

    def _read(self, log: ZLog, pos: int) -> Generator:
        """``ZLog.read`` that refreshes the epoch on ESTALE and retries,
        as the append path does."""
        for _ in range(self.READ_STALE_RETRIES):
            try:
                entry = yield from log.read(pos)
                return entry
            except StaleEpoch:
                self.read_stale_retries += 1
                yield from log.refresh_epoch()
        raise StaleEpoch(f"read of {pos} kept racing seals")

    def _seal_loop(self, log: ZLog) -> Generator:
        while True:
            yield Timeout(self.SEAL_INTERVAL)
            try:
                yield from zlog_recovery.recover_log(log)
            except MalacologyError as exc:
                self.problems.append(f"log recovery failed: {exc!r}")
                continue
            self.seals += 1

    # -- results --------------------------------------------------------
    def _stripe_objects(self) -> List[Tuple[str, List[Any]]]:
        """(oid, [primary object, replica objects...]) out of band."""
        c = self.cluster
        osdmap = c.osds[0].osdmap
        by_name = {o.name: o for o in c.osds}
        out = []
        for oid in self.layout.all_objects():
            pgid, acting = locate(osdmap, self.POOL, oid)
            objs = [by_name[n].pgs.get((self.POOL, pgid), {}).get(oid)
                    for n in acting]
            out.append((oid, objs))
        return out

    def stripe_entries(self) -> float:
        """Mean log entries per stripe object (on its primary)."""
        sizes = [len(objs[0].omap) if objs and objs[0] is not None else 0
                 for _, objs in self._stripe_objects()]
        return sum(sizes) / len(sizes)

    def checks(self) -> List[str]:
        problems = super().checks()
        stored = {oid: objs for oid, objs in self._stripe_objects()}
        for pos, data in sorted(self.acked.items()):
            oid = self.layout.object_of(pos)
            for obj in stored[oid]:
                entry = None if obj is None else \
                    obj.omap.get(cls_zlog._key(pos))
                if entry != {"state": cls_zlog.WRITTEN, "data": data}:
                    problems.append(f"acked position {pos} stored as "
                                    f"{entry!r} on a replica of {oid}")
                    return problems
        problems += self._read_back()
        return problems

    def _read_back(self) -> List[str]:
        """Read a sample of acked positions back through ZLog.read."""
        c = self.cluster
        rng = self.inputs("readback")
        sample = rng.sample(sorted(self.acked), self.READBACK_SAMPLE)
        reader = ZLog(c.new_client("zlog-verify"), self.LOG)

        def _verify() -> Generator:
            yield from reader.open()
            bad = []
            for pos in sample:
                entry = yield from self._read(reader, pos)
                if entry.get("data") != self.acked[pos]:
                    bad.append(pos)
            return bad

        bad = c.sim.run_until_complete(reader.client.do(_verify()))
        return [f"read-back mismatch at positions {bad[:5]}"] if bad else []

    def counts(self) -> Dict[str, float]:
        out = super().counts()
        out["zlog.read_stale_retries"] = self.read_stale_retries
        out["zlog.seals"] = self.seals
        return out

    def properties(self) -> Dict[str, float]:
        out = super().properties()
        out["workload.stripe_entries_start"] = self.entries_start
        out["workload.stripe_entries_end"] = self.stripe_entries()
        return out


class ZlogMixedLogstructured(ZlogMixed):
    """``zlog_mixed`` on a ``logstructured`` pool.

    Not a benchmark workload: it exposes a program defect (a lost
    acknowledged append on some seeds; README.md, Known failures).
    """

    name = "zlog_mixed_logstructured"
    POOL_CONFIG = {"size": 2, "pg_num": 8, "backend": "logstructured"}


def _payload(rng: random.Random) -> str:
    return f"{rng.getrandbits(96):024x}"


#: The benchmark's workloads, as BENCHMARK.json lists them.
WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (SeqLease, SeqRoundtrip, SeqRoundtripObserved,
                              ZlogMixed)
}

#: Runs that fail a correctness check because of a known program
#: defect.  The runner accepts them; BENCHMARK.json does not list them.
DEFECT_REPROS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (SeqMantleRebalance, ZlogMixedLogstructured)
}
ALL_WORKLOADS = {**WORKLOADS, **DEFECT_REPROS}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest of
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it.

    Falls back to the maximum (percentile 100, 0 beyond) when even p99
    has too few samples behind it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, int(-(-n * q // 100)))
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], q, n - rank
    return (ordered[-1] if ordered else 0.0), 100.0, 0


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
class Episode:
    """What one set-up plus one measured phase produced.

    Holds figures only, never the workload: a run keeps several
    episodes, and each cluster must be freed before the next boots.
    """

    def __init__(self, wl: Workload, setup: Tuple[float, float],
                 windows: List[Tuple[int, float, float]],
                 counts: Dict[str, float],
                 layers: Optional[Dict[str, Dict[str, float]]],
                 properties: Dict[str, float], problems: List[str]):
        #: (host seconds, host slowness) of the set-up.
        self.setup = setup
        #: (ops completed, host seconds, host slowness) per window.
        self.windows = windows
        self.counts = counts
        #: LayerTracer.snapshot() of the measured phase (traced only).
        self.layers = layers
        self.properties = properties
        self.problems = problems
        self.sim_seconds = wl.sim_seconds
        self.appends_log_entries = wl.appends_log_entries
        self.errors = dict(wl.log.errors)
        self.sim = _sim_metrics(wl.log, wl.sim_seconds)

    @property
    def host_s(self) -> float:
        """Host seconds of the measured phase, as measured."""
        return sum(host for _, host, _ in self.windows)

    @property
    def ref_host_s(self) -> float:
        """Host seconds of the measured phase at reference speed."""
        return sum(host / slow for _, host, slow in self.windows)


def _sim_metrics(log: OpLog, sim_seconds: float) -> Dict[str, Any]:
    """Every simulated figure of a measured phase (seed-deterministic)."""
    out: Dict[str, Any] = {
        "sim_ops_per_s": log.done / sim_seconds,
        "attempted": log.done + log.failed,
        "failed": log.failed,
    }
    for kind in ("write", "read"):
        lat = log.lat[kind]
        if not lat:
            continue
        value, q, beyond = tail(lat)
        out[f"{kind}_lat_mean_ms"] = statistics.fmean(lat) * 1e3
        out[f"{kind}_lat_p50_ms"] = statistics.median(lat) * 1e3
        out[f"{kind}_lat_tail_ms"] = value * 1e3
        out[f"{kind}_lat_tail_pct"] = q
        out[f"{kind}_lat_tail_beyond"] = beyond
        out[f"{kind}_ops"] = len(lat)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Host seconds the calibration loop takes on an idle reference host
#: (2 vCPUs, CPython 3.11).  Calibrated host figures are scaled to that
#: speed.  Changing the loop or this value changes their scale.
CALIBRATION_REF_S = 4.5e-3


#: Memory the calibration loop strides over: 200k ints, well past the
#: CPU caches, so the loop slows under memory contention as the
#: simulator does, not only under contention for the core.
_STRIDE_DATA = list(range(200_000))


def _calibration_loop(n: int = 2000) -> int:
    """Fixed pure-Python work shaped like the simulator's dispatch:
    heap pushes and pops, dict updates, generator resumptions, then a
    strided walk over ``_STRIDE_DATA``."""
    heap: List[Tuple[int, int, Any]] = []
    counts: Dict[int, int] = {}

    def resume() -> Generator:
        total = 0
        while True:
            total += yield total

    gen = resume()
    next(gen)
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i, counts))
        counts[i & 127] = counts.get(i & 127, 0) + gen.send(1)
        if len(heap) > 64:
            heapq.heappop(heap)
    size = len(_STRIDE_DATA)
    total = 0
    for i in range(0, size, 14):
        total += _STRIDE_DATA[(i * 7919) % size]
    return len(counts) + total


def _dispatch_calibration_loop(n: int = 3000) -> int:
    """Fixed pure-Python work shaped like a client-local op loop: a heap
    of 8 generator processes, each resumed with the current time and
    yielding its next wake-up, and a growing list of floats (a latency
    tracker's samples)."""
    heap: List[Tuple[float, int]] = []
    samples: List[float] = []

    def proc(k: int) -> Generator:
        now = 0.0
        while True:
            now = yield now + 1e-3 * (k + 1)

    gens = [proc(k) for k in range(8)]
    for i, gen in enumerate(gens):
        next(gen)
        heapq.heappush(heap, (0.0, i))
    for _ in range(n):
        now, i = heapq.heappop(heap)
        wake = gens[i].send(now)
        samples.append(wake - now)
        heapq.heappush(heap, (wake, i))
    return len(samples)


#: Calibration loops by name: (loop, host seconds it takes on the
#: reference host).  The dispatch loop's reference time is set from
#: its median time beside ``_calibration_loop`` on the same host, so
#: both read about the same slowness there.
CALIBRATIONS: Dict[str, Tuple[Any, float]] = {
    "mixed": (_calibration_loop, CALIBRATION_REF_S),
    "dispatch": (_dispatch_calibration_loop, 1.0e-3),
}


def host_slowness(calibration: str = "mixed") -> float:
    """How much slower than the reference host this one runs right now.

    Shared machines change speed by tens of percent over seconds as
    other tenants come and go.  Dividing a host time measured next to
    this sample by it gives the time at reference speed.
    """
    loop, ref_s = CALIBRATIONS[calibration]
    started = time.perf_counter()
    loop()
    return (time.perf_counter() - started) / ref_s


def timed_setup(cls: Type[Workload], seed: int
                ) -> Tuple[Workload, float, float]:
    """Set up one workload: (workload, host seconds, host slowness)."""
    gc.collect()
    slowness = host_slowness(cls.calibration)
    started = time.perf_counter()
    wl = cls(seed)
    wl.setup()
    return wl, time.perf_counter() - started, slowness


def run_episode(cls: Type[Workload], seed: int,
                tracer: Optional[Any] = None,
                sim_seconds: Optional[float] = None) -> Episode:
    """Set up, measure ``sim_seconds`` simulated seconds, check.

    With a ``tracer`` (``layers.LayerTracer``) the wrappers are live
    from before the cluster boots until the measured phase ends; its
    figures are zeroed after set-up so they cover the measured phase.
    """
    if tracer is not None:
        tracer.install()
    try:
        wl, setup_s, setup_slowness = timed_setup(cls, seed)
        if sim_seconds is not None:
            wl.sim_seconds = sim_seconds
        if tracer is not None:
            tracer.reset()
        before = wl.counts()
        wl.start()
        sim = wl.cluster.sim
        start = sim.now
        windows = []
        steps = max(1, round(wl.sim_seconds / wl.window))
        for k in range(1, steps + 1):
            slowness = host_slowness(wl.calibration)
            done = wl.log.done
            began = time.perf_counter()
            sim.run(until=start + wl.sim_seconds * k / steps)
            windows.append((wl.log.done - done,
                            time.perf_counter() - began, slowness))
        layers = tracer.snapshot() if tracer is not None else None
        wl.stop()
        after = wl.counts()
    finally:
        if tracer is not None:
            tracer.uninstall()
    counts = {k: after[k] - before[k] for k in after}
    return Episode(wl, (setup_s, setup_slowness), windows, counts, layers,
                   wl.properties(), wl.checks())
