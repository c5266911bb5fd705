"""Integration tests: write-set replication when repops arrive reordered.

The primary ships each transaction's write set with the version it
applies to.  Two writes to one object committed back to back can reach
a replica in the opposite order; the replica must neither apply the
later write set to the wrong base nor roll back to the earlier state
when the delayed repop finally lands.
"""

from repro.rados.placement import locate
from repro.sim.network import LatencyModel
from repro.testing import build_rados_cluster

OID = "reordered"


class HoldFirstRepop(LatencyModel):
    """Fixed-latency override that holds one primary->replica message.

    Armed, the next message from ``src`` to ``dst`` takes ``hold``
    seconds and every later one ``fast``: a second repop sent just
    after the first overtakes it.
    """

    def __init__(self, src: str, dst: str, hold: float = 2e-3,
                 fast: float = 50e-6, base: float = 100e-6):
        self.src, self.dst = src, dst
        self.hold, self.fast, self.base = hold, fast, base
        self.armed = False

    def sample(self, src, dst, rng):
        if (src, dst) != (self.src, self.dst):
            return self.base
        if self.armed:
            self.armed = False
            return self.hold
        return self.fast


def _cluster_with_held_link(seed=5):
    c = build_rados_cluster(osd_count=3, seed=seed)
    _, acting = locate(c.osds[0].osdmap, "data", OID)
    by_name = {o.name: o for o in c.osds}
    primary, replica = by_name[acting[0]], by_name[acting[1]]
    model = HoldFirstRepop(primary.name, replica.name)
    c.net.set_latency_override(replica.name, model)
    return c, primary, replica, model


def _concurrent(c, ops):
    """Issue each ``ops`` entry from its own client in the same instant."""
    clients = [c.new_client(f"writer{i}") for i in range(len(ops))]
    procs = [cl.do(op(cl)) for cl, op in zip(clients, ops)]
    for proc in procs:
        c.sim.run_until_complete(proc)
    c.run(0.05)


def _concurrent_omap_sets(c, pairs):
    _concurrent(c, [
        lambda cl, k=key, v=value: cl.rados_omap_set("data", OID, k, v)
        for key, value in pairs])


def _copies(primary, replica):
    pgid, _ = locate(primary.osdmap, "data", OID)
    return (primary.pgs[("data", pgid)].get(OID),
            replica.pgs[("data", pgid)].get(OID))


def test_reordered_repops_leave_replica_at_primary_version():
    c, primary, replica, model = _cluster_with_held_link()
    c.do(c.admin.rados_omap_set("data", OID, "k0", 0))
    model.armed = True
    _concurrent_omap_sets(c, [("k1", 1), ("k2", 2)])

    mine, theirs = _copies(primary, replica)
    assert sorted(mine.omap) == ["k0", "k1", "k2"]
    assert theirs.version == mine.version
    assert theirs.omap == {"k0": 0, "k1": 1, "k2": 2}
    assert theirs.digest() == mine.digest()
    # The overtaking write set found the replica one version behind and
    # fell back to a full-state push; the late one was then a no-op.
    assert primary.perf.get("repop.full_fallback") == 1


def test_in_order_repops_never_fall_back():
    c, primary, replica, _ = _cluster_with_held_link()
    c.do(c.admin.rados_omap_set("data", OID, "k0", 0))
    _concurrent_omap_sets(c, [("k1", 1), ("k2", 2)])

    _, theirs = _copies(primary, replica)
    assert theirs.omap == {"k0": 0, "k1": 1, "k2": 2}
    assert primary.perf.get("repop.full_fallback") == 0
    assert primary.perf.get("repop.tx") == replica.perf.get("repop.rx")


def test_late_removal_repop_spares_the_recreated_object():
    # Versions restart when an object is re-created: the old life at a
    # high version must not mask the new one, and the removal's late
    # repop must not delete it.
    c, primary, replica, model = _cluster_with_held_link()
    for i in range(10):
        c.do(c.admin.rados_omap_set("data", OID, f"old{i}", i))
    model.armed = True
    _concurrent(c, [
        lambda cl: cl.rados_remove("data", OID),
        lambda cl: cl.rados_omap_set("data", OID, "new0", 0),
        lambda cl: cl.rados_omap_set("data", OID, "new1", 1),
    ])

    mine, theirs = _copies(primary, replica)
    assert sorted(mine.omap) == ["new0", "new1"]
    assert mine.version == 2
    assert theirs is not None
    assert theirs.stamp == mine.stamp
    assert theirs.digest() == mine.digest()
    # The re-creation replaced the old life outright; the write set on
    # top of it found its base.
    assert primary.perf.get("repop.full_fallback") == 0
