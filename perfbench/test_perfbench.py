"""The benchmark's own tests: determinism, transparency, the contract.

Run from the repository root::

    python3 -m pytest -q perfbench

Short episodes (a few simulated seconds) keep the determinism tests
quick.  The correctness and observer-transparency tests run the full
episodes the benchmark measures (a few minutes in all), because what
they check depends on the whole run: Mantle migrations, seals, and the
mgr's health transitions.  They also run the defect repros
(``workloads.DEFECT_REPROS``), which fail until the program defects
they expose are fixed (README.md, Known failures).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    ALL_WORKLOADS,
    WORKLOADS,
    SeqRoundtrip,
    SeqRoundtripObserved,
    check_positions,
    run_episode,
    tail,
)

#: Simulated seconds per workload for the quick tests.
SHORT = {"seq_lease": 2.0, "seq_roundtrip": 2.0,
         "seq_roundtrip_observed": 2.0, "zlog_mixed": 0.03}
SEED = 3


_FULL = {}


def _episode(name, tracer=None, seed=SEED):
    return run_episode(WORKLOADS[name], seed, tracer=tracer,
                       sim_seconds=SHORT[name])


def _full_episode(name):
    """The benchmark's own episode for ``name`` (computed once)."""
    if name not in _FULL:
        _FULL[name] = run_episode(ALL_WORKLOADS[name], SEED)
    return _FULL[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_is_deterministic(name):
    first, second = _episode(name), _episode(name)
    assert first.sim == second.sim
    assert first.counts == second.counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_the_schedule_alone(name):
    plain = _episode(name)
    traced_a = _episode(name, tracer=LayerTracer())
    traced_b = _episode(name, tracer=LayerTracer())
    assert traced_a.sim == plain.sim
    assert traced_a.counts == plain.counts
    # Per-layer counts repeat exactly between traced runs.
    assert traced_a.layers["calls"] == traced_b.layers["calls"]
    assert traced_a.layers["extra"] == traced_b.layers["extra"]
    assert set(traced_a.layers["self_s"]) == set(LAYERS)


def test_tracer_restores_every_patched_attribute():
    from repro.msg.daemon import Daemon
    from repro.mds.server import MDS
    from repro.rados.objects import StoredObject

    before = (Daemon.deliver, Daemon.call, StoredObject.from_dict,
              "deliver" in vars(MDS))
    tracer = LayerTracer()
    tracer.install()
    try:
        assert "deliver" in vars(MDS)
    finally:
        tracer.uninstall()
    after = (Daemon.deliver, Daemon.call, StoredObject.from_dict,
             "deliver" in vars(MDS))
    assert before == after


def test_self_times_account_for_traced_wall():
    episode = _episode("seq_roundtrip", tracer=LayerTracer())
    share = sum(episode.layers["self_s"].values()) / episode.host_s
    low, high = run.ACCOUNTED_SHARE
    assert low <= share <= high


def test_observed_matches_roundtrip_on_simulated_metrics():
    """All passive planes on together change no simulated figure."""
    plain = _full_episode(SeqRoundtrip.name)
    observed = _full_episode(SeqRoundtripObserved.name)
    assert observed.sim == plain.sim


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_correctness_checks_pass(name):
    assert _full_episode(name).problems == []


def test_check_positions_flags_duplicates_decreases_and_gaps():
    assert check_positions("s", {"a": [0, 2, 4], "b": [1, 3, 5]}) == []
    # One op per client may be in flight at stop, near the top.
    assert check_positions("s", {"a": [0, 1, 3], "b": [4]}) == []
    problems = check_positions("s", {"a": [0, 1, 2], "b": [2, 1]})
    assert any("issued twice" in p for p in problems)
    assert any("do not increase" in p for p in problems)
    assert check_positions("s", {"a": [0] + list(range(40, 60))})


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1000)])[1:] == (99.0, 10)
    assert tail([float(i) for i in range(10_000)])[1:] == (99.9, 10)
    assert tail([float(i) for i in range(100_000)])[1:] == (99.99, 10)
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq_lease",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
