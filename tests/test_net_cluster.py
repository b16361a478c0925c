"""Live loopback clusters: one OS process per replica, real kills.

Marked ``net``: these tests launch subprocess meshes over ephemeral
loopback ports (collision-safe for parallel CI) and take tens of
seconds.  Select them alone with ``-m net``.
"""

from __future__ import annotations

import pytest

from repro.net.cluster import ClusterConfig, parse_schedule, run_cluster
from repro.net.parity import (
    ParitySchedule,
    parity_problems,
    run_net_schedule,
    run_sim_schedule,
    thm3_bound,
)
from repro.util.errors import ConfigurationError

pytestmark = pytest.mark.net


def test_process_kill_restabilizes(tmp_path):
    """SIGKILL one replica; survivors re-stabilize on an active quorum."""
    config = ClusterConfig(
        n=5,
        f=1,
        duration=8.0,
        kills=((2, 2.0),),
        kill_mode="process",
        run_dir=tmp_path / "run",
    )
    result = run_cluster(config)

    assert result.nodes[2].sigkilled
    assert result.correct_pids() == [1, 3, 4, 5]
    assert result.agreement(), result.summary()
    assert result.active_quorum(), result.summary()
    assert 2 not in (result.final_quorum() or set())
    assert result.max_changes_per_epoch() <= thm3_bound(config.f)
    # The run directory captured the structured streams.
    assert (tmp_path / "run" / "cluster.json").exists()
    assert (tmp_path / "run" / "node_1.jsonl").exists()


def test_sim_net_parity_with_kills_and_recovery(tmp_path):
    """The issue's acceptance scenario, checked against the simulator.

    n=7, f=2: two kills and one recovery, scripted in heartbeat-period
    units and executed by both runtimes.  Both must agree internally,
    respect Theorem 3's f(f+1) bound, exclude the still-crashed process,
    and land on the *same* final quorum.
    """
    schedule = ParitySchedule(
        n=7,
        f=2,
        kills=((1, 6.0), (2, 10.0)),
        recovers=((1, 20.0),),
        duration_periods=40.0,
    )
    sim = run_sim_schedule(schedule)
    net, result = run_net_schedule(schedule, run_dir=tmp_path / "net")

    problems = parity_problems(sim, net, schedule)
    assert problems == [], "\n".join(problems)

    # The cluster additionally survived 2 kills + 1 recovery on an
    # active quorum (no crashed member), with the recovered replica
    # back among the correct ones.
    assert result.active_quorum(), result.summary()
    assert 1 in result.correct_pids()
    assert result.final_quorum() == frozenset({3, 4, 5, 6, 7})


class TestConfigValidation:
    def test_recovery_requires_host_mode(self):
        config = ClusterConfig(
            n=5, f=1, kills=((1, 1.0),), recovers=((1, 3.0),), kill_mode="process"
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_schedule_must_fit_run_window(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n=5, f=1, duration=5.0, kills=((1, 5.0),)).validate()

    def test_schedule_pid_must_exist(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n=5, f=1, kills=((9, 1.0),)).validate()

    def test_quorum_must_outnumber_faults(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n=4, f=2).validate()

    def test_parse_schedule(self):
        assert parse_schedule(["1@2.5", "3@0"], "kill") == ((1, 2.5), (3, 0.0))
        with pytest.raises(ConfigurationError):
            parse_schedule(["nope"], "kill")
        with pytest.raises(ConfigurationError):
            parse_schedule(["1@x"], "kill")
