"""Integration tests: the primary's per-object fetch -> apply -> commit section.

Stores that charge a read or write delay can suspend an op between
fetching an object and committing its new version.  Op lists that may
commit take the object's section in FIFO order, so none applies to a
version another has already replaced; pure reads skip it and overlap.
"""

from repro.core import MalacologyCluster
from repro.rados.placement import locate
from repro.sim.network import FixedLatency
from repro.store import LogStructuredStore

OID = "section"


def _logstructured_cluster(seed=11):
    pools = dict(MalacologyCluster.DEFAULT_POOLS)
    pools["data"] = {"size": 2, "pg_num": 8, "backend": "logstructured"}
    return MalacologyCluster.build(osds=3, mdss=1, seed=seed, pools=pools)


def _concurrent(c, make_ops):
    """Run each op from its own client in the same instant.

    Every message to or from the clients and the object's primary takes
    the same fixed time, so ops that do not wait for each other finish
    together.  Returns ``(result, completion time)`` per op, in issue
    order.
    """
    done = []

    def timed(gen):
        result = yield from gen
        done.append((result, c.sim.now))

    _, acting = locate(c.mons[0].store.osdmap, "data", OID)
    fixed = FixedLatency(100e-6)
    c.net.set_latency_override(acting[0], fixed)
    clients = [c.new_client(f"client{i}") for i in range(len(make_ops))]
    for cl in clients:
        c.net.set_latency_override(cl.name, fixed)
        c.do(cl.rados_stat("data", OID))  # warm up: maps and sessions
    procs = [cl.do(timed(make(cl)), name=f"op{i}")
             for i, (cl, make) in enumerate(zip(clients, make_ops))]
    for proc in procs:
        c.sim.run_until_complete(proc)
    return done


def test_concurrent_appends_on_a_delayed_store_both_land():
    c = _logstructured_cluster()
    c.do(c.admin.rados_write_full("data", OID, b""))
    _concurrent(c, [
        lambda cl: cl.rados_append("data", OID, b"first;"),
        lambda cl: cl.rados_append("data", OID, b"second;"),
    ])
    data = c.do(c.admin.rados_read("data", OID))
    assert sorted(data.split(b";")[:2]) == [b"first", b"second"]


def test_concurrent_plain_reads_do_not_queue_behind_each_other():
    c = _logstructured_cluster()
    c.do(c.admin.rados_write_full("data", OID, b"payload"))
    done = _concurrent(c, [
        lambda cl: cl.rados_read("data", OID),
        lambda cl: cl.rados_read("data", OID),
    ])
    assert [result for result, _ in done] == [b"payload", b"payload"]
    # Serialized, the second read would finish a whole read delay later.
    (_, first), (_, second) = done
    assert abs(second - first) < LogStructuredStore.READ_DELAY / 2
