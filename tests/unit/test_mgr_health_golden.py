"""Golden health reports: every check's exact output, pinned.

One fabricated :class:`ClusterSample` per health check, each built so
that exactly that check fires, plus one sample on which all twelve
fire.  Each sample goes through the out-of-band health path
(``MalacologyCluster.health()`` with no mgr) and the test pins the
whole report: check name, status, summary text, detail dict, and the
order of the checks in the report.  The mgr logs those summaries to
the cluster log on every transition, so a change to any of them moves
every managed run's Paxos history.
"""

from types import SimpleNamespace

import pytest

import repro.core.cluster as cluster_mod
from repro.core.cluster import MalacologyCluster
from repro.mgr.health import ClusterSample

T = 100.0


def _observe(sample, daemon, role, points):
    """Give ``daemon`` a role and feed ``(time, dump)`` scrapes into
    its series, the way the mgr does."""
    sample.roles[daemon] = role
    series = sample.series_of(daemon)
    for t, dump in points:
        series.observe_dump(t, dump)


def _osd_down(s):
    s.osdmap = SimpleNamespace(
        epoch=9, osds={"osd0": "up", "osd1": "down", "osd2": "up",
                       "osd3": "down"})


def _daemon_unreachable(s):
    s.failed["osd2"] = "EHOSTDOWN: daemon osd2 is down"
    s.failed["mds1"] = "ETIMEDOUT: rpc telemetry.dump to mds1 timed out"


def _paxos_stall(s):
    # mon0: backlog of 2 for 10 s, commit counter frozen.
    _observe(s, "mon0", "mon", [
        (float(t), {"counters": {"paxos.commit": 50},
                    "gauges": {"paxos.pending_txns": 2}})
        for t in range(90, 101)])
    # mon1: same backlog, but it commits.
    _observe(s, "mon1", "mon", [
        (float(t), {"counters": {"paxos.commit": t},
                    "gauges": {"paxos.pending_txns": 2}})
        for t in range(90, 101)])


def _mds_latency(s):
    _observe(s, "mds0", "mds", [
        (float(t), {"latency": {"rpc.mds_req": {
            "mean": 1.0 if t < 90 else 8.0, "count": t * 10}}})
        for t in range(0, 101)])


def _cap_revoke(s):
    _observe(s, "mds0", "mds", [
        (float(t), {"gauges": {"caps.revoking": v}})
        for t, v in ((92, 3), (94, 2), (96, 2), (98, 4), (100, 3))])


def _epoch_churn(s):
    for osd, per_s in (("osd0", 1), ("osd1", 2), ("osd2", 0)):
        _observe(s, osd, "osd", [
            (float(t), {"counters": {"objclass.zlog.seal": per_s * t}})
            for t in range(90, 101)])


def _mds_imbalance(s):
    for mds, load in (("mds0", 400.0), ("mds1", 10.0), ("mds2", 80.0)):
        s.roles[mds] = "mds"
        s.dumps[mds] = {"gauges": {"mds.load": load}}


def _consumer_lag(s):
    s.roles["chlog0"] = "changelog"
    s.dumps["chlog0"] = {"gauges": {
        "changelog.lag.audit": 350, "changelog.lag.tail": 10,
        "changelog.lag.backup": 201.5, "changelog.retained": 0}}


def _trim_stalled(s):
    _observe(s, "chlog1", "changelog", [
        (t, {"counters": {"changelog.appended": appended,
                          "changelog.trimmed": 120.0},
             "gauges": {"changelog.retained": appended - 120.0}})
        for t, appended in ((90.0, 700.0), (95.0, 900.0),
                            (100.0, 1000.0))])


def _cache_full(s):
    for osd, util, dirty in (("osd4", 1.5, 6), ("osd5", 0.5, 2),
                             ("osd6", None, None), ("osd7", 2.0, None)):
        s.roles[osd] = "osd"
        s.dumps[osd] = {"gauges": {"store.cache.utilization": util,
                                   "store.cache.dirty": dirty}}


def _compaction_stalled(s):
    _observe(s, "osd8", "osd", [
        (t, {"counters": {"store.logstructured.compaction": 3},
             "gauges": {"store.log.garbage_ratio": ratio}})
        for t, ratio in ((94.0, 0.75), (96.0, 0.5), (98.0, 0.625),
                         (100.0, 0.875))])


def _chaos(s):
    s.chaos = {"armed": True, "schedule": "flaky-net", "ops": 4,
               "injector_faults": 7, "store_faults": 2,
               "engine_events": 11}


GOLDEN = {
    "OSD_DOWN": (_osd_down, {
        "name": "OSD_DOWN", "status": "HEALTH_WARN",
        "summary": "2 osd(s) down: osd1, osd3",
        "detail": {"osds": ["osd1", "osd3"], "epoch": 9}}),
    "DAEMON_UNREACHABLE": (_daemon_unreachable, {
        "name": "DAEMON_UNREACHABLE", "status": "HEALTH_WARN",
        "summary": "scrape failed for 2 daemon(s): mds1, osd2",
        "detail": {"daemons": {
            "mds1": "ETIMEDOUT: rpc telemetry.dump to mds1 timed out",
            "osd2": "EHOSTDOWN: daemon osd2 is down"}}}),
    "PAXOS_STALL": (_paxos_stall, {
        "name": "PAXOS_STALL", "status": "HEALTH_ERR",
        "summary": "paxos stalled on mon0: pending transactions but "
                   "no commits for 10s",
        "detail": {"monitors": {"mon0": 2.0}, "window": 10.0}}),
    "MDS_LATENCY_REGRESSION": (_mds_latency, {
        "name": "MDS_LATENCY_REGRESSION", "status": "HEALTH_WARN",
        "summary": "mds op latency regressed >3x on mds0",
        "detail": {"mds": {"mds0": {"baseline": 1.7623762376237624,
                                    "recent": 8.0}},
                   "factor": 3.0}}),
    "CAP_REVOKE_STUCK": (_cap_revoke, {
        "name": "CAP_REVOKE_STUCK", "status": "HEALTH_WARN",
        "summary": "cap revokes stuck >6s on mds0",
        "detail": {"mds": {"mds0": 2.0}, "stuck_for": 6.0}}),
    "ZLOG_EPOCH_CHURN": (_epoch_churn, {
        "name": "ZLOG_EPOCH_CHURN", "status": "HEALTH_WARN",
        "summary": "zlog epoch churn: 3.0 seals/s cluster-wide "
                   "(threshold 1.0)",
        "detail": {"seal_rate": 3.0,
                   "per_osd": {"osd0": 1.0, "osd1": 2.0}}}),
    "MDS_IMBALANCE": (_mds_imbalance, {
        "name": "MDS_IMBALANCE", "status": "HEALTH_WARN",
        "summary": "mds load imbalance 400 vs 10 exceeds 4x",
        "detail": {"loads": {"mds0": 400.0, "mds1": 10.0,
                             "mds2": 80.0},
                   "ratio": 4.0}}),
    "CHANGELOG_CONSUMER_LAG": (_consumer_lag, {
        "name": "CHANGELOG_CONSUMER_LAG", "status": "HEALTH_WARN",
        "summary": "changelog consumer(s) lagging >200 records: "
                   "audit, backup",
        "detail": {"cursors": {"audit": 350.0, "backup": 201.5},
                   "max_lag": 200.0}}),
    "CHANGELOG_TRIM_STALLED": (_trim_stalled, {
        "name": "CHANGELOG_TRIM_STALLED", "status": "HEALTH_WARN",
        "summary": "changelog trim stalled: >500 records retained "
                   "with no reclaim for 10s on chlog1",
        "detail": {"writers": {"chlog1": 580.0}, "window": 10.0}}),
    "CACHE_TIER_FULL": (_cache_full, {
        "name": "CACHE_TIER_FULL", "status": "HEALTH_WARN",
        "summary": "cache tier over capacity on osd4, osd7: dirty "
                   "write-back is behind",
        "detail": {"osds": {"osd4": {"utilization": 1.5, "dirty": 6.0},
                            "osd7": {"utilization": 2.0,
                                     "dirty": 0.0}},
                   "full_ratio": 1.0}}),
    "COMPACTION_STALLED": (_compaction_stalled, {
        "name": "COMPACTION_STALLED", "status": "HEALTH_WARN",
        "summary": "log compaction stalled on osd8: garbage ratio "
                   ">=0.50 for 6s with no compactions",
        "detail": {"osds": {"osd8": 0.5}, "window": 6.0}}),
    "CHAOS_NEMESIS_ACTIVE": (_chaos, {
        "name": "CHAOS_NEMESIS_ACTIVE", "status": "HEALTH_WARN",
        "summary": "nemesis schedule 'flaky-net' is armed: 4 ops, "
                   "7 injector faults, 2 store faults so far",
        "detail": {"armed": True, "schedule": "flaky-net", "ops": 4,
                   "injector_faults": 7, "store_faults": 2,
                   "engine_events": 11}}),
}

#: The order checks appear in a report (the order they run in).
REPORT_ORDER = [
    "OSD_DOWN", "DAEMON_UNREACHABLE", "PAXOS_STALL",
    "MDS_LATENCY_REGRESSION", "CAP_REVOKE_STUCK", "ZLOG_EPOCH_CHURN",
    "MDS_IMBALANCE", "CHANGELOG_CONSUMER_LAG", "CHANGELOG_TRIM_STALLED",
    "CACHE_TIER_FULL", "COMPACTION_STALLED", "CHAOS_NEMESIS_ACTIVE",
]


def _health(monkeypatch, *fills):
    """``cluster.health()`` (no mgr) over a sample built by ``fills``."""
    sample = ClusterSample(time=T)
    for fill in fills:
        fill(sample)
    monkeypatch.setattr(cluster_mod, "sample_cluster",
                        lambda cluster: sample)
    return MalacologyCluster.health(SimpleNamespace(mgr=None))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_check_reports_its_golden_result(monkeypatch, name):
    fill, expected = GOLDEN[name]
    report = _health(monkeypatch, fill)
    assert report == {"time": T, "status": expected["status"],
                      "checks": {name: expected}}


def test_report_order_when_every_check_fires(monkeypatch):
    report = _health(monkeypatch,
                     *(GOLDEN[name][0] for name in REPORT_ORDER))
    assert report["status"] == "HEALTH_ERR"
    assert list(report["checks"]) == REPORT_ORDER
    for name in REPORT_ORDER:
        assert report["checks"][name] == GOLDEN[name][1]


def test_empty_sample_is_healthy(monkeypatch):
    assert _health(monkeypatch) == {"time": T, "status": "HEALTH_OK",
                                    "checks": {}}
