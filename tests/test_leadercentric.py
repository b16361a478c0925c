"""Tests for the star (leader-centric) backend on Follower Selection."""

import pytest

from repro.protocol.system import build_backend_system
from repro.util.errors import ConfigurationError
from repro.xpaxos import BankLedger

N, F = 7, 2


def build_star_system(**options):
    return build_backend_system("star", N, F, "fs", **options)


def vote_kinds(system):
    """PROPOSE, ACK, DECIDE — the normal case."""
    return system.backend.replica_kinds[:3]


class TestNormalCase:
    def test_fault_free_completes(self):
        system = build_star_system(clients=2, seed=7)
        system.run(400.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert system.current_config() == (1, (1, 2, 3, 4, 5))

    def test_no_follower_follower_traffic(self):
        # The defining property: star-protocol messages always have the
        # leader as one endpoint — followers never address each other.
        system = build_star_system(clients=1, seed=7)
        system.sim.network.trace(set(vote_kinds(system)))
        system.run(300.0)
        leader = system.current_config()[0]
        sends = system.sim.log.events(kind="net.send")
        assert len(sends) == 20 * 3 * 4
        for event in sends:
            src, dst = event.process, event.payload["dst"]
            assert leader in (src, dst), f"follower-follower message {src}->{dst}"

    def test_message_cost_is_linear(self):
        system = build_star_system(clients=1, seed=7)
        system.run(300.0)
        # 3 (q - 1) per request: PROPOSE + ACK + DECIDE on each spoke.
        costs = system.protocol_message_costs()
        assert costs["per_decision"] == 3 * (system.replicas[1].q - 1) == 12
        assert costs["per_decision"] == system.backend.analytic_messages_per_decision(5)
        assert costs["total"] == sum(costs["by_kind"][kind] for kind in vote_kinds(system))

    def test_rejects_n_not_above_3f(self):
        with pytest.raises(ConfigurationError):
            build_backend_system("star", 6, 2, "fs")
        build_backend_system("star", 6, 2, "qs")  # only Follower Selection needs it

    def test_pluggable_state_machine(self):
        ops = [("open", "a"), ("deposit", "a", 10), ("balance", "a")]
        system = build_star_system(
            clients=1, seed=7, client_ops=[ops], state_machine_factory=BankLedger
        )
        system.run(300.0)
        client = list(system.clients.values())[0]
        assert [entry[2] for entry in client.completed] == [True, 10, 10]


class TestReconfiguration:
    def test_leader_crash_single_reconfiguration(self):
        system = build_star_system(clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(900.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        leader, members = system.current_config()
        assert leader != 1 and 1 not in members
        assert max(r.view_changes for r in system.correct_replicas()) == 1

    def test_follower_crash_also_handled(self):
        system = build_star_system(clients=1, seed=11)
        system.adversary.crash(3, at=30.0)
        system.run(900.0)
        assert system.total_completed() == 20
        leader, members = system.current_config()
        assert 3 not in members

    def test_follower_crash_needs_no_client_retry(self):
        # Requests in flight at a leader that survives the crash are
        # carried into the next configuration by the replicas themselves
        # (queue kept, prepared batches re-proposed): with the clients'
        # retry timer beyond the horizon every request still completes.
        ops = [[("put", f"k{c}-{i}", i) for i in range(10)] for c in range(4)]
        system = build_star_system(
            clients=4, seed=11, client_ops=ops, client_retry=1e6,
            batch_size=4, batch_window=3.0,
        )
        system.adversary.crash(3, at=30.0)
        system.run(900.0)
        assert system.sim.host(1).running and not system.sim.host(3).running
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert not system.sim.log.events(kind="client.retry")

    def test_leader_link_omission_moves_leader(self):
        # The leader mutes its DECIDEs to one follower: that single bad
        # link is detected (follower's DECIDE expectation) and the leader
        # changes — the per-link story on the star topology.
        system = build_star_system(clients=1, seed=13)
        system.adversary.omit_links(1, dsts={3}, kinds={"st.decide"}, start=20.0)
        system.run(1200.0)
        assert system.total_completed() == 20
        leader, _ = system.current_config()
        assert leader != 1

    def test_new_replica_catches_up_via_adopt(self):
        system = build_star_system(clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(900.0)
        # A spare joined the configuration after the crash and must hold
        # the full, certified history.
        leader, members = system.current_config()
        joiners = [m for m in members if m >= 6]
        assert joiners
        for pid in joiners:
            replica = system.replicas[pid]
            assert len(replica.executed) == 20
            for index, certificate in enumerate(replica.executed_certs):
                assert replica.certificate_is_valid(
                    certificate, index, replica.selector, replica._verify
                )
