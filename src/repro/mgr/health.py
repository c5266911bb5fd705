"""Cluster health checks (Ceph mgr's ``health`` module).

A check looks at one :class:`ClusterSample` — the most recent scrape
of every daemon's ``telemetry.dump`` plus the cluster maps and the
per-daemon time series — and either stays silent (healthy) or returns
a :class:`HealthCheckResult` with a severity and structured detail.
The overall cluster status is the worst individual result:
``HEALTH_OK`` < ``HEALTH_WARN`` < ``HEALTH_ERR``, exactly the ladder
``ceph -s`` reports.

The checks form one fixed table, :data:`CHECKS`, run in order by
:func:`evaluate_health`; their thresholds are module constants.
Checks are pure functions of the sample: no simulated time, no RNG,
no messages.  That is what lets the same table run both inside the mgr
daemon (fed by in-band scrapes) and out-of-band via
:func:`sample_cluster`; both fill the sample through the same
``ClusterSample.record_*`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DaemonDown, MalacologyError
from repro.mgr.timeseries import DaemonSeries
from repro.sim.kernel import Simulator
from repro.sim.network import Network

HEALTH_OK = "HEALTH_OK"
HEALTH_WARN = "HEALTH_WARN"
HEALTH_ERR = "HEALTH_ERR"

_RANK = {HEALTH_OK: 0, HEALTH_WARN: 1, HEALTH_ERR: 2}


def worst_status(statuses: List[str]) -> str:
    """The most severe of the given statuses (OK when empty)."""
    worst = HEALTH_OK
    for status in statuses:
        if _RANK[status] > _RANK[worst]:
            worst = status
    return worst


@dataclass
class ClusterSample:
    """Everything a health check may look at for one evaluation."""

    time: float
    #: daemon name -> its ``telemetry.dump`` payload.
    dumps: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: daemon name -> error string for daemons the scrape could not
    #: reach (crashed or unknown mid-scrape).
    failed: Dict[str, str] = field(default_factory=dict)
    #: daemon name -> role ("mon" / "osd" / "mds" / "changelog").
    roles: Dict[str, str] = field(default_factory=dict)
    #: Latest cluster maps (may be None before the first map arrives).
    osdmap: Optional[Any] = None
    mdsmap: Optional[Any] = None
    #: daemon name -> retained time series across scrapes.
    series: Dict[str, DaemonSeries] = field(default_factory=dict)
    #: Nemesis engine status (``sim.chaos.status()``) when a chaos
    #: engine is attached to the kernel; None otherwise.
    chaos: Optional[Dict[str, Any]] = None
    #: Network-plane counters (``Network.stats()``), including the
    #: cause-labeled drop counters.
    netstats: Optional[Dict[str, Any]] = None

    def named(self, role: str) -> List[str]:
        return sorted(n for n, r in self.roles.items() if r == role)

    def series_of(self, daemon: str) -> DaemonSeries:
        s = self.series.get(daemon)
        if s is None:
            s = self.series[daemon] = DaemonSeries()
        return s

    def record_dump(self, daemon: str, dump: Dict[str, Any],
                    t: float) -> None:
        """One daemon answered the scrape at simulated time ``t``."""
        self.dumps[daemon] = dump
        self.series_of(daemon).observe_dump(t, dump)

    def record_failure(self, daemon: str, exc: MalacologyError) -> None:
        """One daemon could not be scraped (crashed or timed out)."""
        self.failed[daemon] = f"{exc.code}: {exc}"

    def record_cluster(self, sim: Simulator, network: Network,
                       osdmap: Any, mdsmap: Any) -> None:
        """The cluster maps plus the chaos and network planes.

        Plain reads (no messages), so a fault-free managed run stays
        schedule-identical whether or not they are captured.
        """
        self.osdmap = osdmap
        self.mdsmap = mdsmap
        if sim.chaos is not None:
            self.chaos = sim.chaos.status()
        self.netstats = network.stats()


@dataclass(frozen=True)
class HealthCheckResult:
    """One firing check: severity plus machine-readable detail."""

    name: str
    status: str
    summary: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "summary": self.summary, "detail": dict(self.detail)}


class HealthReport:
    """The aggregate of one evaluation pass over all checks."""

    def __init__(self, time: float,
                 results: List[HealthCheckResult]):
        self.time = time
        self.results = list(results)
        self.status = worst_status([r.status for r in results])

    def check(self, name: str) -> Optional[HealthCheckResult]:
        for r in self.results:
            if r.name == name:
                return r
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "status": self.status,
            "checks": {r.name: r.to_dict() for r in self.results},
        }


# ----------------------------------------------------------------------
# Shared shapes
# ----------------------------------------------------------------------
#: Scrapes a gauge needs before a window over it means anything.
MIN_SCRAPES = 3

_NO_SERIES = DaemonSeries()

Probe = Callable[[DaemonSeries, Dict[str, Any]], Any]


def _per_daemon(sample: ClusterSample, role: str,
                probe: Probe) -> Dict[str, Any]:
    """daemon -> ``probe(series, gauges)`` for each ``role`` daemon the
    probe flags (returns non-None for).

    A daemon with no retained series or no dump is probed with empty
    ones, so a probe only has to handle a missing metric.
    """
    hits = {}
    for daemon in sample.named(role):
        gauges = sample.dumps.get(daemon, {}).get("gauges", {})
        hit = probe(sample.series.get(daemon, _NO_SERIES), gauges)
        if hit is not None:
            hits[daemon] = hit
    return hits


def _delta(series: DaemonSeries, counter: str, window: float) -> float:
    """How far ``counter`` moved over the window (0.0 when absent)."""
    readings = series.maybe(f"counter:{counter}")
    return readings.delta(window) if readings else 0.0


def _stuck_floor(series: DaemonSeries, gauge: str,
                 progress: Optional[str],
                 window: float) -> Optional[float]:
    """``gauge``'s lowest reading over the window, if nothing moved.

    None before :data:`MIN_SCRAPES` readings of the gauge, or when the
    ``progress`` counter (if any) advanced inside the window — the
    work the gauge waits on is getting done.
    """
    readings = series.maybe(f"gauge:{gauge}")
    if readings is None or len(readings) < MIN_SCRAPES:
        return None
    if progress is not None and _delta(series, progress, window) > 0:
        return None
    return readings.min_over(window)


def _number(value: Any) -> Optional[float]:
    """A numeric gauge as float; None for unset or non-numeric ones."""
    return float(value) if isinstance(value, (int, float)) else None


def _result(name: str, status: str, summary: str,
            **detail: Any) -> HealthCheckResult:
    return HealthCheckResult(name=name, status=status, summary=summary,
                             detail=detail)


# ----------------------------------------------------------------------
# The checks (run in table order; see CHECKS)
# ----------------------------------------------------------------------
def osd_down(sample: ClusterSample) -> Optional[HealthCheckResult]:
    """OSDs marked down in the OSD map (peer pings reported them)."""
    m = sample.osdmap
    if m is None:
        return None
    down = sorted(name for name, state in m.osds.items()
                  if state != "up")
    if not down:
        return None
    return _result(
        "OSD_DOWN", HEALTH_WARN,
        f"{len(down)} osd(s) down: {', '.join(down)}",
        osds=down, epoch=m.epoch)


def daemon_unreachable(sample: ClusterSample
                       ) -> Optional[HealthCheckResult]:
    """Daemons the last scrape could not reach (crashed)."""
    if not sample.failed:
        return None
    names = sorted(sample.failed)
    return _result(
        "DAEMON_UNREACHABLE", HEALTH_WARN,
        f"scrape failed for {len(names)} daemon(s): "
        f"{', '.join(names)}",
        daemons={n: sample.failed[n] for n in names})


PAXOS_WINDOW = 10.0


def paxos_stall(sample: ClusterSample) -> Optional[HealthCheckResult]:
    """A monitor sits on pending transactions but commits nothing.

    Fires when some monitor has held pending client transactions for a
    full window while its ``paxos.commit`` counter did not advance —
    consensus is wedged, which is an error, not a warning.  Reports
    each monitor's latest backlog.
    """
    def probe(series, gauges):
        floor = _stuck_floor(series, "paxos.pending_txns",
                             "paxos.commit", PAXOS_WINDOW)
        if floor is None or floor <= 0:
            return None
        return series.maybe("gauge:paxos.pending_txns").latest()[1]

    stalled = _per_daemon(sample, "mon", probe)
    if not stalled:
        return None
    return _result(
        "PAXOS_STALL", HEALTH_ERR,
        f"paxos stalled on {', '.join(sorted(stalled))}: pending "
        f"transactions but no commits for {PAXOS_WINDOW:.0f}s",
        monitors=stalled, window=PAXOS_WINDOW)


MDS_LATENCY_FACTOR = 3.0
MDS_LATENCY_RECENT = 10.0
MDS_LATENCY_MIN_OPS = 20.0


def mds_latency_regression(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """Recent MDS request latency regressed against its own history."""
    def probe(series, gauges):
        mean = series.maybe("latency:rpc.mds_req:mean")
        count = series.maybe("latency:rpc.mds_req:count")
        if mean is None or count is None or len(mean) < 4:
            return None
        if count.delta(MDS_LATENCY_RECENT) < MDS_LATENCY_MIN_OPS:
            return None  # too little recent traffic to judge
        baseline = mean.mean()
        current = mean.mean(MDS_LATENCY_RECENT)
        if baseline > 0 and current > MDS_LATENCY_FACTOR * baseline:
            return {"baseline": baseline, "recent": current}
        return None

    regressed = _per_daemon(sample, "mds", probe)
    if not regressed:
        return None
    return _result(
        "MDS_LATENCY_REGRESSION", HEALTH_WARN,
        f"mds op latency regressed >{MDS_LATENCY_FACTOR:.0f}x on "
        f"{', '.join(sorted(regressed))}",
        mds=regressed, factor=MDS_LATENCY_FACTOR)


CAP_STUCK_FOR = 6.0


def cap_revoke_stuck(sample: ClusterSample
                     ) -> Optional[HealthCheckResult]:
    """Capability revocations outstanding for longer than the window.

    A cooperative revoke that never completes means a client is dead or
    misbehaving and the Shared Resource interface is blocked on it.
    """
    def probe(series, gauges):
        floor = _stuck_floor(series, "caps.revoking", None,
                             CAP_STUCK_FOR)
        return floor if floor is not None and floor > 0 else None

    stuck = _per_daemon(sample, "mds", probe)
    if not stuck:
        return None
    return _result(
        "CAP_REVOKE_STUCK", HEALTH_WARN,
        f"cap revokes stuck >{CAP_STUCK_FOR:.0f}s on "
        f"{', '.join(sorted(stuck))}",
        mds=stuck, stuck_for=CAP_STUCK_FOR)


SEAL_MAX_RATE = 1.0
SEAL_WINDOW = 10.0


def zlog_epoch_churn(sample: ClusterSample
                     ) -> Optional[HealthCheckResult]:
    """ZLog epoch churn: sustained seal traffic on the OSDs.

    Seals are rare in steady state (log creation, sequencer failover).
    A sustained seal rate means sequencer ownership is flapping and
    every client append is paying the recovery path.
    """
    def probe(series, gauges):
        seals = series.maybe("counter:objclass.zlog.seal")
        return seals.rate(SEAL_WINDOW) if seals is not None else None

    rates = _per_daemon(sample, "osd", probe)
    total = sum(rates.values(), 0.0)
    if total <= SEAL_MAX_RATE:
        return None
    return _result(
        "ZLOG_EPOCH_CHURN", HEALTH_WARN,
        f"zlog epoch churn: {total:.1f} seals/s cluster-wide "
        f"(threshold {SEAL_MAX_RATE:.1f})",
        seal_rate=total,
        per_osd={osd: rate for osd, rate in rates.items() if rate > 0})


IMBALANCE_RATIO = 4.0
IMBALANCE_MIN_LOAD = 50.0


def mds_imbalance(sample: ClusterSample
                  ) -> Optional[HealthCheckResult]:
    """Metadata load spread across ranks beyond the tolerated ratio.

    The condition Mantle exists to fix; if it persists, either no
    balancer is installed or the policy is not moving load.
    """
    loads = _per_daemon(sample, "mds",
                        lambda series, gauges:
                        _number(gauges.get("mds.load")))
    if len(loads) < 2:
        return None
    top = max(loads.values())
    bottom = min(loads.values())
    if top < IMBALANCE_MIN_LOAD \
            or top <= IMBALANCE_RATIO * max(bottom, 1e-9):
        return None
    return _result(
        "MDS_IMBALANCE", HEALTH_WARN,
        f"mds load imbalance {top:.0f} vs {bottom:.0f} exceeds "
        f"{IMBALANCE_RATIO:.0f}x",
        loads=loads, ratio=IMBALANCE_RATIO)


CHANGELOG_MAX_LAG = 200.0
_LAG = "changelog.lag."


def changelog_consumer_lag(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """A changelog consumer has fallen too far behind the stream.

    The writer publishes one ``changelog.lag.<cursor>`` gauge per
    registered cursor (records behind, summed over shards).  A large
    lag means a consumer is slow, paused, or dead — and because trim
    cannot pass the slowest cursor, the backlog it pins only grows.
    """
    def probe(series, gauges):
        lags = {name[len(_LAG):]: _number(value)
                for name, value in gauges.items()
                if name.startswith(_LAG)}
        over = {cursor: lag for cursor, lag in lags.items()
                if lag is not None and lag > CHANGELOG_MAX_LAG}
        return over or None

    lagging = {cursor: lag
               for over in _per_daemon(sample, "changelog",
                                       probe).values()
               for cursor, lag in over.items()}
    if not lagging:
        return None
    return _result(
        "CHANGELOG_CONSUMER_LAG", HEALTH_WARN,
        f"changelog consumer(s) lagging >{CHANGELOG_MAX_LAG:.0f} "
        f"records: {', '.join(sorted(lagging))}",
        cursors=lagging, max_lag=CHANGELOG_MAX_LAG)


TRIM_MIN_RETAINED = 500.0
TRIM_WINDOW = 10.0


def changelog_trim_stalled(sample: ClusterSample
                           ) -> Optional[HealthCheckResult]:
    """Records accumulate but trim reclaims nothing.

    Fires when the writer's retained-record gauge stays above the
    threshold for a whole window during which appends happened but the
    trim counter did not move — the stream is growing without bound
    (e.g. a registered cursor stopped acking).
    """
    def probe(series, gauges):
        floor = _stuck_floor(series, "changelog.retained",
                             "changelog.trimmed", TRIM_WINDOW)
        if floor is None or floor < TRIM_MIN_RETAINED \
                or _delta(series, "changelog.appended",
                          TRIM_WINDOW) <= 0:
            return None
        return floor

    stalled = _per_daemon(sample, "changelog", probe)
    if not stalled:
        return None
    return _result(
        "CHANGELOG_TRIM_STALLED", HEALTH_WARN,
        f"changelog trim stalled: >{TRIM_MIN_RETAINED:.0f} records "
        f"retained with no reclaim for {TRIM_WINDOW:.0f}s on "
        f"{', '.join(sorted(stalled))}",
        writers=stalled, window=TRIM_WINDOW)


CACHE_FULL_RATIO = 1.0


def cache_tier_full(sample: ClusterSample
                    ) -> Optional[HealthCheckResult]:
    """A pool's cache tier is pinned over its capacity by dirty data.

    The write-back tier may exceed ``capacity`` between flusher ticks
    (dirty entries are never evicted), but a reading above the full
    ratio at scrape time means write-back is not keeping up with the
    ingest rate and every miss is landing in an already-full cache.
    OSDs hosting no cache tier report the utilization gauge as None.
    """
    def probe(series, gauges):
        util = _number(gauges.get("store.cache.utilization"))
        if util is None or util <= CACHE_FULL_RATIO:
            return None
        dirty = _number(gauges.get("store.cache.dirty"))
        return {"utilization": util,
                "dirty": dirty if dirty is not None else 0.0}

    full = _per_daemon(sample, "osd", probe)
    if not full:
        return None
    return _result(
        "CACHE_TIER_FULL", HEALTH_WARN,
        f"cache tier over capacity on {', '.join(sorted(full))}: "
        f"dirty write-back is behind",
        osds=full, full_ratio=CACHE_FULL_RATIO)


COMPACTION_MIN_RATIO = 0.5
COMPACTION_WINDOW = 6.0


def compaction_stalled(sample: ClusterSample
                       ) -> Optional[HealthCheckResult]:
    """A log-structured store carries garbage but never compacts.

    Fires when an OSD's worst eligible garbage ratio stays at or above
    the compaction threshold for a whole window during which its
    compaction counter did not move — the maintenance ticker is dead
    or wedged and read amplification only grows.
    """
    def probe(series, gauges):
        floor = _stuck_floor(series, "store.log.garbage_ratio",
                             "store.logstructured.compaction",
                             COMPACTION_WINDOW)
        return floor if floor is not None \
            and floor >= COMPACTION_MIN_RATIO else None

    stalled = _per_daemon(sample, "osd", probe)
    if not stalled:
        return None
    return _result(
        "COMPACTION_STALLED", HEALTH_WARN,
        f"log compaction stalled on {', '.join(sorted(stalled))}: "
        f"garbage ratio >={COMPACTION_MIN_RATIO:.2f} for "
        f"{COMPACTION_WINDOW:.0f}s with no compactions",
        osds=stalled, window=COMPACTION_WINDOW)


def chaos_nemesis_active(sample: ClusterSample
                         ) -> Optional[HealthCheckResult]:
    """A nemesis schedule with at least one op is armed.

    Chaos runs are deliberate, but an operator looking at a sick
    cluster should see at a glance that faults are being *injected*
    rather than organic — the same reason Ceph surfaces ``noout`` and
    friends as health warnings.  Reads the engine status the sampler
    captured out-of-band.  Clusters without an engine, or armed with
    an empty schedule (which injects nothing), never fire it.
    """
    chaos = sample.chaos
    if not chaos or not chaos.get("armed") or not chaos.get("ops"):
        return None
    return _result(
        "CHAOS_NEMESIS_ACTIVE", HEALTH_WARN,
        f"nemesis schedule {chaos.get('schedule')!r} is armed: "
        f"{chaos.get('ops', 0)} ops, "
        f"{chaos.get('injector_faults', 0)} injector faults, "
        f"{chaos.get('store_faults', 0)} store faults so far",
        **chaos)


#: Every check, in report order.  The name each one reports (its
#: ``OSD_DOWN``-style code, as in Ceph) keys the mgr's transition
#: tracking and its cluster-log messages.
CHECKS = (
    osd_down,
    daemon_unreachable,
    paxos_stall,
    mds_latency_regression,
    cap_revoke_stuck,
    zlog_epoch_churn,
    mds_imbalance,
    changelog_consumer_lag,
    changelog_trim_stalled,
    cache_tier_full,
    compaction_stalled,
    chaos_nemesis_active,
)


def evaluate_health(sample: ClusterSample) -> HealthReport:
    """Run every check against the sample; silent checks mean healthy."""
    results = [check(sample) for check in CHECKS]
    return HealthReport(time=sample.time,
                        results=[r for r in results if r is not None])


def sample_cluster(cluster: Any) -> ClusterSample:
    """Assemble a sample out-of-band from a booted cluster object.

    Uses the admin-socket path (no messages, no simulated time), so
    benchmarks can grab an end-of-run health snapshot without changing
    the run they just measured.  A crashed daemon is recorded as
    failed, as the mgr's scrape finds it, instead of being dumped.
    """
    sample = ClusterSample(time=cluster.sim.now, roles=cluster.roles())
    daemons = {d.name: d for d in cluster.daemons()}
    for name in sorted(sample.roles):
        daemon = daemons[name]
        if daemon.alive:
            sample.record_dump(
                name, daemon.admin_command("telemetry.dump"), sample.time)
        else:
            sample.record_failure(name, DaemonDown(f"{name} is down"))
    newest = attrgetter("epoch")
    sample.record_cluster(
        cluster.sim, cluster.net,
        max((m.store.osdmap for m in cluster.mons), key=newest),
        max((m.store.mdsmap for m in cluster.mons), key=newest))
    return sample
