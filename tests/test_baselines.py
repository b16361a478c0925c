"""Tests for the PBFT-style pattern (``ibft`` on ``all`` / ``qs``) and BChain."""

import pytest

from repro.baselines.bchain import build_bchain_cluster
from repro.failures.adversary import Adversary
from repro.protocol.system import build_backend_system
from repro.util.errors import ConfigurationError


def build_pattern(n, f, selector, requests, clients=1, seed=2, **options):
    """PRE-PREPARE / PREPARE / COMMIT among all ``n`` or the active quorum."""
    ops = [[("put", f"k{c}-{i}", i) for i in range(requests)] for c in range(clients)]
    return build_backend_system(
        "ibft", n, f, selector, clients=clients, client_ops=ops, seed=seed, **options
    )


def vote_messages(system):
    costs = system.protocol_message_costs()["by_kind"]
    return sum(costs[kind] for kind in system.backend.replica_kinds[:3])


class TestPbftFullBroadcast:
    def test_completes_workload(self):
        system = build_pattern(4, 1, "all", requests=10)
        system.run(300.0)
        assert system.total_completed() == 10

    def test_all_replicas_execute(self):
        system = build_pattern(4, 1, "all", requests=5)
        system.run(200.0)
        assert all(len(r.executed) == 5 for r in system.replicas.values())

    def test_message_count_matches_pattern(self):
        # Per request: PP (n-1) + PREPARE (n-1)^2 + COMMIT (n-1)^2 — the
        # leader's PRE-PREPARE is its vote in both phases.
        n, requests = 4, 10
        system = build_pattern(n, 1, "all", requests=requests)
        system.run(300.0)
        assert vote_messages(system) == requests * (n - 1) * (2 * n - 1)
        assert system.backend.analytic_messages_per_decision(n) == (n - 1) * (2 * n - 1)

    def test_histories_identical(self):
        system = build_pattern(4, 1, "all", requests=5, clients=2, seed=3)
        system.run(300.0)
        digests = {r.kv.state_digest() for r in system.replicas.values()}
        assert len(digests) == 1


class TestPbftActiveQuorum:
    def test_completes_with_active_quorum(self):
        system = build_pattern(7, 2, "qs", requests=10)
        system.run(300.0)
        assert system.total_completed() == 10

    def test_passive_replicas_send_nothing(self):
        system = build_pattern(7, 2, "qs", requests=5, heartbeats=False)
        system.run(200.0)
        assert system.total_completed() == 5
        for passive in (6, 7):
            sent = sum(
                count
                for (src, _), count in system.sim.stats.sent_by_link.items()
                if src == passive
            )
            assert sent == 0

    def test_message_count_matches_restricted_pattern(self):
        # Active size a = n - f: PP (a-1) + PREPARE (a-1)^2 + COMMIT (a-1)^2.
        a, requests = 5, 10
        system = build_pattern(7, 2, "qs", requests=requests)
        system.run(300.0)
        assert vote_messages(system) == requests * (a - 1) * (2 * a - 1)

    def test_small_group_needs_no_thresholds(self):
        # n = 2f + 1 (the trusted-component / XFT family): the one vote
        # rule — n - f matching votes — covers it, full broadcast or active.
        for selector in ("all", "qs"):
            system = build_pattern(5, 2, selector, requests=5)
            system.run(200.0)
            assert system.total_completed() == 5
        with pytest.raises(ConfigurationError):
            build_pattern(4, 2, "all", requests=1)  # n <= 2f


class TestBChain:
    def test_fault_free_chain(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=10, seed=5)
        cluster.run(400.0)
        assert cluster.total_completed() == 10
        assert cluster.total_rechains() == 0

    def test_chain_message_count(self):
        # Per request: CHAIN down (len-1) + ACK up (len-1).
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=10, seed=5)
        cluster.run(400.0)
        chain_len = 2 * 2 + 1
        assert cluster.inter_replica_messages() == 10 * 2 * (chain_len - 1)

    def test_mute_member_ejected_within_two_rechains(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=10, seed=5)
        adversary = Adversary(cluster.sim)
        adversary.omit_links(3, kinds={"bc.chain"}, start=20.0)
        cluster.run(900.0)
        assert cluster.total_completed() == 10
        assert cluster.total_rechains() <= 2
        assert 3 not in cluster.replicas[1].chain

    def test_rechain_uses_standby(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=10, seed=5)
        adversary = Adversary(cluster.sim)
        adversary.omit_links(3, kinds={"bc.chain"}, start=20.0)
        cluster.run(900.0)
        chain = cluster.replicas[1].chain
        # A standby (6 or 7) was promoted into the chain.
        assert set(chain) & {6, 7}

    def test_tail_mute_ejected(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=10, seed=6)
        adversary = Adversary(cluster.sim)
        adversary.omit_links(5, kinds={"bc.ack"}, start=20.0)
        cluster.run(900.0)
        assert cluster.total_completed() == 10
        assert 5 not in cluster.replicas[1].chain

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            build_bchain_cluster(n=6, f=2)
