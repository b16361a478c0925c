"""Validation and plumbing tests for the system builders."""

import pytest

from repro.util.errors import ConfigurationError
from repro.xpaxos.system import build_system


class TestBuildSystemValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            build_system(n=5, f=2, mode="telepathy")

    def test_rejects_negative_clients(self):
        with pytest.raises(ConfigurationError):
            build_system(n=5, f=2, clients=-1)

    def test_rejects_undersized_n(self):
        with pytest.raises(ConfigurationError):
            build_system(n=4, f=2)

    def test_selection_mode_has_qs_modules(self):
        system = build_system(n=5, f=2, mode="selection")
        assert set(system.qs_modules) == {1, 2, 3, 4, 5}

    def test_enumeration_mode_has_none(self):
        system = build_system(n=5, f=2, mode="enumeration")
        assert system.qs_modules == {}

    def test_heartbeats_can_be_disabled(self):
        system = build_system(n=5, f=2, clients=0, heartbeats=False, seed=1)
        system.run(30.0)
        assert system.sim.stats.sent_by_kind.get("heartbeat", 0) == 0

    def test_client_pids_follow_replicas(self):
        system = build_system(n=5, f=2, clients=3)
        assert sorted(system.clients) == [6, 7, 8]

    def test_adversary_budget_is_f(self):
        system = build_system(n=5, f=2)
        system.adversary.corrupt(1)
        system.adversary.corrupt(2)
        with pytest.raises(ConfigurationError):
            system.adversary.corrupt(3)


class TestSystemDiagnostics:
    def test_correct_replicas_excludes_faulty(self):
        system = build_system(n=5, f=2)
        system.adversary.corrupt(2)
        pids = [replica.pid for replica in system.correct_replicas()]
        assert pids == [1, 3, 4, 5]

    def test_inter_replica_messages_excludes_clients(self):
        system = build_system(n=5, f=2, clients=1, seed=3,
                              client_ops=[[("put", "k", 1)]])
        system.run(60.0)
        inter = system.inter_replica_messages()
        total = system.sim.stats.total_sent()
        assert 0 < inter < total  # requests/replies to the client excluded

    def test_histories_consistent_detects_forks(self):
        system = build_system(n=5, f=2, clients=1, seed=3,
                              client_ops=[[("put", "k", 1)]])
        system.run(60.0)
        assert system.histories_consistent()
        # Manually fork one replica's history: must be flagged.
        from repro.xpaxos.messages import ClientRequest

        system.replicas[2].executed[0] = ClientRequest(9, 9, ("put", "evil", 1))
        assert not system.histories_consistent()
