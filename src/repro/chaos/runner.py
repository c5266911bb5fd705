"""One chaos case, end to end: build, arm, load, finalize, judge.

``run_case`` is the unit everything else composes: the sweep calls it
per (scenario, seed), the minimizer calls it per candidate schedule,
and CI calls it through ``python -m repro.chaos``.  The phases:

1. build the scenario's cluster with protocol sanitizers forced on;
2. generate (or accept) the nemesis schedule and arm the engine;
3. drive the workload while the schedule fires;
4. finalize — lift every fault — and let recovery settle;
5. trigger a full scrub pass so silent damage gets its chance to heal;
6. run the oracles (readbacks over the real client path, store
   inspection out-of-band) and fold in the sanitizer report.

Any exception that escapes a phase — a workload that could not make
progress, a protocol violation raised mid-run, a wedged recovery —
fails the verdict with the error recorded; the minimizer treats those
the same as oracle violations.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis import sanitizers
from repro.analysis.sanitizers import ProtocolViolation
from repro.chaos.engine import NemesisEngine
from repro.chaos.ops import NemesisSchedule
from repro.chaos.oracles import RunVerdict
from repro.chaos.scenarios import SCENARIOS, _build_oracles
from repro.core import MalacologyCluster
from repro.errors import MalacologyError

#: Recovery window after finalize, before oracles run.
SETTLE_SECONDS = 12.0
#: Additional window for triggered scrubs to repair silent damage.
SCRUB_SECONDS = 8.0
#: Absolute cap on post-schedule workload completion (sim seconds).
WORKLOAD_GRACE = 120.0


def run_case(scenario_name: str, seed: int,
             schedule: Optional[NemesisSchedule] = None,
             settle: float = SETTLE_SECONDS) -> RunVerdict:
    """Run one scenario at one seed; returns the composed verdict."""
    scenario = SCENARIOS.get(scenario_name)
    if scenario is None:
        raise ValueError(
            f"unknown scenario {scenario_name!r} "
            f"(known: {', '.join(sorted(SCENARIOS))})")
    verdict = RunVerdict(scenario=scenario_name, seed=seed)
    registered = len(sanitizers.ACTIVE)
    try:
        _run_case(scenario, seed, schedule, settle, verdict)
    except (ProtocolViolation, MalacologyError, RuntimeError,
            AssertionError, ValueError) as exc:
        verdict.ok = False
        verdict.error = f"{type(exc).__name__}: {exc}"
    finally:
        # The verdict holds the sanitizer report; drop the case's
        # registry (and with it the whole cluster) from ACTIVE, or
        # sweeps and minimization would retain every case they run.
        del sanitizers.ACTIVE[registered:]
    return verdict


def _run_case(scenario: Any, seed: int,
              schedule: Optional[NemesisSchedule], settle: float,
              verdict: RunVerdict) -> None:
    cluster = MalacologyCluster.build(seed=seed, sanitize=True,
                                      **scenario.cluster_kwargs)
    engine = NemesisEngine(cluster)
    if schedule is None:
        schedule = scenario.make_schedule(cluster)
    verdict.stats["schedule"] = schedule.to_dict()
    oracles = _build_oracles(scenario.oracle_names)
    engine.arm(schedule)
    client = cluster.new_client("chaos-client")
    proc = client.do(scenario.workload(cluster, client, oracles),
                     name="workload")
    cluster.run(schedule.duration)
    cluster.sim.run_until_complete(
        proc, limit=cluster.sim.now + WORKLOAD_GRACE)
    engine.finalize()
    cluster.run(settle)
    engine.trigger_scrubs()
    cluster.run(SCRUB_SECONDS)

    for name in sorted(oracles):
        oracle = oracles[name]
        if name == "durability":
            check = client.do(oracle.check(client, verdict),
                              name="oracle-durability")
            cluster.sim.run_until_complete(
                check, limit=cluster.sim.now + WORKLOAD_GRACE)
        elif name == "zlog-fencing":
            if oracle.log is None:
                continue  # workload never created the log
            check = client.do(oracle.check(oracle.log, verdict),
                              name="oracle-zlog")
            cluster.sim.run_until_complete(
                check, limit=cluster.sim.now + WORKLOAD_GRACE)
        else:
            oracle.check(cluster, verdict)

    report = cluster.sanitizer_report()
    if report:
        verdict.ok = False
        verdict.sanitizer_report = report
    verdict.stats["net"] = cluster.net.stats()
    verdict.stats["engine"] = engine.status()
    verdict.stats["sim_time"] = round(cluster.sim.now, 6)
