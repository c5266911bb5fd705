"""Schedule transparency: every observer plane, alone and together.

Protocol sanitizers, both profilers, the mgr, the changelog, and a
chaos engine armed with an empty schedule are observers: turning any
of them on, or all five at once, must leave the network tape of a run
byte-identical to a bare run of the same seed.  The mgr's and the
changelog's own daemons are off the tape (those planes add daemons,
not perturbation).  The bare run turns every plane off explicitly, so
the outcome does not depend on ``MALACOLOGY_SANITIZE``.
"""

import pytest

from repro.chaos import NemesisEngine, NemesisSchedule
from repro.core import MalacologyCluster
from tests.tape import record_tape, run_load

PLANES = ("sanitize", "profile", "mgr", "changelog", "chaos")

#: What each plane must have observed, so a transparent plane is never
#: a plane that silently did nothing.
OBSERVED = {
    "sanitize": lambda c: c.sim.sanitizers.paxos._chosen,
    "profile": lambda c: (c.sim.profiler.events_dispatched
                          and c.sim.wall_profiler.total_ns()),
    "mgr": lambda c: c.mgr.scrape_count,
    "changelog": lambda c: c.changelog_writer.perf.get(
        "changelog.appended"),
    "chaos": lambda c: c.sim.chaos.schedule.name == "empty",
}


def _work(client):
    yield from client.fs_mkdir("/d")
    for i in range(20):
        yield from client.fs_create(f"/d/f{i}")
    yield from client.fs_create("/d/seq", file_type="sequencer")
    for _ in range(5):
        yield from client.seq_next("/d/seq")
    for i in range(8):
        yield from client.rados_write_full("data", f"obj{i}",
                                           bytes([i]) * 32)
    for i in range(8):
        got = yield from client.rados_read("data", f"obj{i}")
        assert got == bytes([i]) * 32


def _taped_run(planes):
    c = MalacologyCluster.build(
        osds=3, mdss=1, mons=3, seed=46, sanitize="sanitize" in planes,
        profile="profile" in planes, mgr="mgr" in planes,
        changelog="changelog" in planes)
    tape = record_tape(c, skip=("mgr", "chlog"))
    engine = None
    if "chaos" in planes:
        engine = NemesisEngine(c)
        engine.arm(NemesisSchedule(name="empty", duration=5.0))
    run_load(c, _work)
    if engine is not None:
        engine.finalize()
    c.run(2.0)
    return c, tape


@pytest.fixture(scope="module")
def bare_tape():
    _, tape = _taped_run(())
    assert len(tape) > 100  # the workload exercised the network
    return tape


@pytest.mark.parametrize("planes", [(p,) for p in PLANES] + [PLANES],
                         ids=[*PLANES, "all"])
def test_planes_are_schedule_transparent(bare_tape, planes):
    c, tape = _taped_run(planes)
    assert tape == bare_tape
    for plane in planes:
        assert OBSERVED[plane](c), f"{plane} observed nothing"
