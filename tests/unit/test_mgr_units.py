"""Unit tests for the mgr building blocks.

Time-series rings, health checks over synthetic samples, the
Prometheus exporter/parser round trip, and the Mantle audit trail —
all pure data structures, no simulator needed.
"""

from types import SimpleNamespace

import pytest

from repro.mgr.audit import MantleAuditTrail, merge_trails
from repro.mgr.health import (
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    ClusterSample,
    HealthReport,
    evaluate_health,
    worst_status,
)
from repro.mgr.prometheus import parse_prometheus_text, prometheus_export
from repro.mgr.timeseries import DaemonSeries, MetricSeries


# ----------------------------------------------------------------------
# MetricSeries
# ----------------------------------------------------------------------
def test_series_ring_drops_oldest():
    s = MetricSeries(capacity=4)
    for i in range(7):
        s.record(float(i), float(i * 10))
    assert len(s) == 4
    assert s.samples() == [(3.0, 30.0), (4.0, 40.0), (5.0, 50.0),
                           (6.0, 60.0)]
    assert s.oldest() == (3.0, 30.0)
    assert s.latest() == (6.0, 60.0)


def test_series_rejects_time_going_backwards():
    s = MetricSeries(capacity=4)
    s.record(5.0, 1.0)
    with pytest.raises(ValueError):
        s.record(4.0, 2.0)
    s.record(5.0, 3.0)  # equal timestamps are allowed


def test_series_delta_and_rate():
    s = MetricSeries(capacity=16)
    for t in range(11):
        s.record(float(t), float(t * 3))  # 3 events/s counter
    assert s.delta() == 30.0
    assert s.rate() == pytest.approx(3.0)
    assert s.delta(window=4.0) == 12.0
    assert s.rate(window=4.0) == pytest.approx(3.0)
    # Degenerate cases answer 0.0, not crash.
    empty = MetricSeries(capacity=4)
    assert empty.delta() == 0.0 and empty.rate() == 0.0
    single = MetricSeries(capacity=4)
    single.record(1.0, 99.0)
    assert single.rate() == 0.0


def test_series_mean_and_min_over_window():
    s = MetricSeries(capacity=16)
    for t, v in [(0.0, 10.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
        s.record(t, v)
    assert s.mean() == pytest.approx(5.5)
    assert s.mean(window=2.0) == pytest.approx(4.0)  # t in [1, 3]
    assert s.min_over() == 2.0
    assert s.min_over(window=1.0) == 4.0  # t in [2, 3]


def test_series_capacity_floor():
    with pytest.raises(ValueError):
        MetricSeries(capacity=1)


# ----------------------------------------------------------------------
# DaemonSeries: dump flattening
# ----------------------------------------------------------------------
def test_daemon_series_flattens_dump():
    ds = DaemonSeries(capacity=8)
    dump = {
        "counters": {"paxos.commit": 42},
        "gauges": {"pg.count": 16, "role": "leader", "up": True},
        "rates": {"rpc.rx": 10.5},
        "latency": {"rpc.mds_req": {"mean": 0.002, "count": 7,
                                    "max": 0.01, "sum": 0.014}},
    }
    ds.observe_dump(1.0, dump)
    assert ds.maybe("counter:paxos.commit").latest() == (1.0, 42.0)
    assert ds.maybe("gauge:pg.count").latest() == (1.0, 16.0)
    # Non-numeric and boolean gauges are state, not signal.
    assert ds.maybe("gauge:role") is None
    assert ds.maybe("gauge:up") is None
    assert ds.maybe("rate:rpc.rx").latest() == (1.0, 10.5)
    assert ds.maybe("latency:rpc.mds_req:mean").latest() == (1.0, 0.002)
    assert ds.maybe("latency:rpc.mds_req:count").latest() == (1.0, 7.0)
    assert ds.maybe("latency:rpc.mds_req:max").latest() == (1.0, 0.01)


# ----------------------------------------------------------------------
# Health checks on synthetic samples
# ----------------------------------------------------------------------
def _sample(**kwargs):
    return ClusterSample(time=kwargs.pop("time", 100.0), **kwargs)


def _check(name, sample):
    """The check table's result named ``name`` on ``sample``."""
    return evaluate_health(sample).check(name)


def test_worst_status_ladder():
    assert worst_status([]) == HEALTH_OK
    assert worst_status([HEALTH_OK, HEALTH_WARN]) == HEALTH_WARN
    assert worst_status([HEALTH_WARN, HEALTH_ERR,
                         HEALTH_OK]) == HEALTH_ERR


def test_osd_down_check_names_the_osd():
    osdmap = SimpleNamespace(
        epoch=9, osds={"osd0": "up", "osd1": "down", "osd2": "up"})
    res = _check("OSD_DOWN", _sample(osdmap=osdmap))
    assert res.status == HEALTH_WARN
    assert "osd1" in res.summary
    assert res.detail["osds"] == ["osd1"]
    healthy = SimpleNamespace(epoch=9, osds={"osd0": "up"})
    assert _check("OSD_DOWN", _sample(osdmap=healthy)) is None
    assert _check("OSD_DOWN", _sample()) is None  # no map yet


def test_daemon_unreachable_check():
    res = _check("DAEMON_UNREACHABLE", _sample(
        failed={"osd2": "EHOSTDOWN: daemon osd2 is down"}))
    assert res.status == HEALTH_WARN
    assert "osd2" in res.summary
    assert _check("DAEMON_UNREACHABLE", _sample()) is None


def test_paxos_stall_check_requires_frozen_commits():
    sample = _sample(roles={"mon0": "mon"})
    series = sample.series_of("mon0")
    for t in range(90, 101):
        series.series("gauge:paxos.pending_txns").record(float(t), 2.0)
        series.series("counter:paxos.commit").record(float(t), 50.0)
    res = _check("PAXOS_STALL", sample)
    assert res is not None and res.status == HEALTH_ERR
    assert "mon0" in res.detail["monitors"]

    # Same pending backlog but commits advancing: live, not stalled.
    live = _sample(roles={"mon0": "mon"})
    s2 = live.series_of("mon0")
    for i, t in enumerate(range(90, 101)):
        s2.series("gauge:paxos.pending_txns").record(float(t), 2.0)
        s2.series("counter:paxos.commit").record(float(t), 50.0 + i)
    assert _check("PAXOS_STALL", live) is None


def test_mds_latency_regression_check():
    sample = _sample(roles={"mds0": "mds"})
    s = sample.series_of("mds0")
    # Long healthy history at 1 ms, then the recent window at 10 ms.
    for t in range(0, 90):
        s.series("latency:rpc.mds_req:mean").record(float(t), 0.001)
        s.series("latency:rpc.mds_req:count").record(float(t), t * 10.0)
    for t in range(90, 101):
        s.series("latency:rpc.mds_req:mean").record(float(t), 0.010)
        s.series("latency:rpc.mds_req:count").record(float(t), t * 10.0)
    res = _check("MDS_LATENCY_REGRESSION", sample)
    assert res is not None and res.status == HEALTH_WARN
    assert "mds0" in res.detail["mds"]

    # Without recent traffic the check refuses to judge.
    quiet = _sample(roles={"mds0": "mds"})
    q = quiet.series_of("mds0")
    for t in range(0, 101):
        q.series("latency:rpc.mds_req:mean").record(
            float(t), 0.001 if t < 90 else 0.010)
        q.series("latency:rpc.mds_req:count").record(float(t), 100.0)
    assert _check("MDS_LATENCY_REGRESSION", quiet) is None


def test_cap_revoke_stuck_check():
    sample = _sample(roles={"mds0": "mds"})
    s = sample.series_of("mds0")
    for t in range(92, 101, 2):
        s.series("gauge:caps.revoking").record(float(t), 1.0)
    res = _check("CAP_REVOKE_STUCK", sample)
    assert res is not None and res.status == HEALTH_WARN
    # A revoke that completed inside the window clears the check.
    ok = _sample(roles={"mds0": "mds"})
    s2 = ok.series_of("mds0")
    for t, v in [(92, 1.0), (94, 1.0), (96, 0.0), (98, 1.0), (100, 1.0)]:
        s2.series("gauge:caps.revoking").record(float(t), v)
    assert _check("CAP_REVOKE_STUCK", ok) is None


def test_sequencer_churn_check():
    sample = _sample(roles={"osd0": "osd", "osd1": "osd"})
    for osd in ("osd0", "osd1"):
        s = sample.series_of(osd)
        for t in range(90, 101):
            s.series("counter:objclass.zlog.seal").record(
                float(t), float(t))  # 1 seal/s each
    res = _check("ZLOG_EPOCH_CHURN", sample)
    assert res is not None and res.status == HEALTH_WARN
    assert res.detail["seal_rate"] == pytest.approx(2.0)


def test_subtree_imbalance_check():
    sample = _sample(
        roles={"mds0": "mds", "mds1": "mds"},
        dumps={"mds0": {"gauges": {"mds.load": 400.0}},
               "mds1": {"gauges": {"mds.load": 10.0}}})
    res = _check("MDS_IMBALANCE", sample)
    assert res is not None and res.status == HEALTH_WARN
    assert res.detail["loads"]["mds0"] == 400.0
    # Low absolute load never alarms, however skewed.
    tiny = _sample(
        roles={"mds0": "mds", "mds1": "mds"},
        dumps={"mds0": {"gauges": {"mds.load": 40.0}},
               "mds1": {"gauges": {"mds.load": 1.0}}})
    assert _check("MDS_IMBALANCE", tiny) is None


def test_chaos_nemesis_check_fires_only_for_ops_it_can_inject():
    def chaos(armed, ops):
        return _sample(chaos={"armed": armed, "schedule": "s", "ops": ops,
                              "injector_faults": 0, "store_faults": 0})

    res = _check("CHAOS_NEMESIS_ACTIVE", chaos(armed=True, ops=3))
    assert res is not None and res.status == HEALTH_WARN
    assert "3 ops" in res.summary
    # An empty schedule injects nothing; a disarmed one is over.
    assert _check("CHAOS_NEMESIS_ACTIVE", chaos(armed=True, ops=0)) is None
    assert _check("CHAOS_NEMESIS_ACTIVE", chaos(armed=False, ops=3)) is None
    assert _check("CHAOS_NEMESIS_ACTIVE", _sample()) is None


def test_evaluate_health_aggregates_worst():
    sample = _sample(failed={"osd0": "EHOSTDOWN: down"})
    report = evaluate_health(sample)
    assert report.status == HEALTH_WARN
    assert report.check("DAEMON_UNREACHABLE") is not None
    clean = evaluate_health(_sample())
    assert clean.status == HEALTH_OK and clean.results == []
    assert HealthReport(0.0, []).to_dict()["checks"] == {}


# ----------------------------------------------------------------------
# Prometheus round trip
# ----------------------------------------------------------------------
def test_prometheus_export_round_trips():
    dumps = {
        "mon0": {"counters": {"paxos.commit": 42},
                 "gauges": {"mon.is_leader": 1, "state": "leader"},
                 "rates": {"rpc.rx": 12.25},
                 "latency": {"rpc.mon_req": {
                     "count": 7, "sum": 0.014, "mean": 0.002,
                     "min": 0.001, "max": 0.01}}},
        "osd0": {"counters": {"op.read": 5},
                 "gauges": {"pg.count": 16}},
    }
    text = prometheus_export(dumps)
    samples = parse_prometheus_text(text)
    by_key = {(s.metric, s.labels["daemon"], s.labels["name"]): s.value
              for s in samples}
    assert by_key[("repro_counter_total", "mon0", "paxos.commit")] == 42
    assert by_key[("repro_gauge", "osd0", "pg.count")] == 16
    assert by_key[("repro_rate", "mon0", "rpc.rx")] == 12.25
    assert by_key[("repro_latency_count", "mon0", "rpc.mon_req")] == 7
    assert by_key[("repro_latency_mean", "mon0",
                   "rpc.mon_req")] == 0.002
    # Non-numeric gauges are not exported.
    assert ("repro_gauge", "mon0", "state") not in by_key
    # Every sample line sits under a TYPE declaration.
    assert text.count("# TYPE repro_counter_total counter") == 1


def test_prometheus_export_escapes_labels():
    dumps = {'we"ird\\d\naemon': {"counters": {"c": 1}}}
    text = prometheus_export(dumps)
    (sample,) = parse_prometheus_text(text)
    assert sample.labels["daemon"] == 'we"ird\\d\naemon'


def test_prometheus_parser_is_strict():
    with pytest.raises(ValueError):
        parse_prometheus_text("orphan_metric{a=\"b\"} 1\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m counter\nm{a=\"b\"} oops\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m counter\nm{a=b} 1\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE m wrongtype\n")
    assert parse_prometheus_text("") == []


# ----------------------------------------------------------------------
# Mantle audit trail
# ----------------------------------------------------------------------
def test_audit_trail_ring_and_since_seq():
    trail = MantleAuditTrail(capacity=3)
    for i in range(5):
        trail.record(float(i), rank=0, policy="v1", status="decided")
    assert len(trail) == 3
    seqs = [r["seq"] for r in trail.records()]
    assert seqs == [3, 4, 5]  # oldest dropped, seq keeps counting
    assert [r["seq"] for r in trail.records(since_seq=4)] == [5]
    trail.clear()
    assert trail.records() == []
    nxt = trail.record(9.0, rank=0, policy="v1", status="decided")
    assert nxt["seq"] == 6  # never reissues seen sequence numbers


def test_audit_trail_record_shape():
    trail = MantleAuditTrail()
    rec = trail.record(
        12.0, rank=1, policy="seq-v2", status="decided",
        load_table=[{"rank": 0, "load": 9.0}],
        decision={"when": True, "targets": [0.0, 4.5], "routing": None},
        moves={0: ["/seq/a"]},
        counter_deltas={"migrate.export": 1.0})
    assert rec["policy"] == "seq-v2"
    assert rec["moves"] == {0: ["/seq/a"]}
    assert rec["counter_deltas"] == {"migrate.export": 1.0}
    err = trail.record(13.0, rank=1, policy="seq-v2",
                       status="policy-error", error="boom")
    assert err["error"] == "boom" and "moves" not in err


def test_merge_trails_orders_by_time():
    merged = merge_trails({
        "mds1": [{"seq": 1, "time": 5.0, "rank": 1, "policy": "p",
                  "status": "decided"}],
        "mds0": [{"seq": 1, "time": 3.0, "rank": 0, "policy": "p",
                  "status": "decided"},
                 {"seq": 2, "time": 7.0, "rank": 0, "policy": "p",
                  "status": "decided"}],
    })
    assert [(r["mds"], r["time"]) for r in merged] == [
        ("mds0", 3.0), ("mds1", 5.0), ("mds0", 7.0)]
