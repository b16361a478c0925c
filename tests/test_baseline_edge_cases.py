"""Edge-case tests for the PBFT-style pattern (``ibft`` on ``all``) and BChain."""

from repro.baselines.bchain import build_bchain_cluster
from repro.failures.adversary import Adversary
from repro.ibft.messages import KIND_PREPARE, KIND_PREPREPARE, IbftPreparePayload, PrePreparePayload
from repro.xpaxos.messages import KIND_REPLY, KIND_REQUEST, ClientRequest
from tests.test_baselines import build_pattern


class TestPbftEdgeCases:
    def test_request_to_non_leader_is_forwarded(self):
        system = build_pattern(4, 1, "all", requests=3)
        # Point the client at a non-leader replica.
        client = list(system.clients.values())[0]
        client.leader_of = lambda view: 3
        system.run(200.0)
        assert system.total_completed() == 3
        assert not system.sim.log.events(kind="client.retry")

    def test_duplicate_request_not_reexecuted(self):
        system = build_pattern(4, 1, "all", requests=3)
        system.run(200.0)
        replica = system.replicas[1]
        executed_before = len(replica.executed)
        # Replay the client's first signed request directly at the leader:
        # answered from the reply cache, with the result it had.
        client_host = system.sim.host(5)
        replies = []
        client_host.subscribe(KIND_REPLY, lambda kind, payload, src: replies.append(payload))
        replay = client_host.authenticator.sign(
            ClientRequest(client=5, sequence=0, op=("put", "k0-0", 0))
        )
        client_host.send(1, KIND_REQUEST, replay)
        system.run(300.0)
        assert len(replica.executed) == executed_before
        first = next(entry for entry in system.clients[5].completed if entry[0] == 0)
        assert [(r.payload.sequence, r.payload.result) for r in replies] == [(0, first[2])]

    def test_forged_request_ignored(self):
        system = build_pattern(4, 1, "all", requests=0)
        system.sim.start()
        replica_host = system.sim.host(2)  # signs as itself, claims client 5
        forged = replica_host.authenticator.sign(
            ClientRequest(client=5, sequence=0, op=("put", "evil", 1))
        )
        replica_host.send(1, KIND_REQUEST, forged)
        system.run(100.0)
        assert all(len(r.executed) == 0 for r in system.replicas.values())

    def test_conflicting_phase_votes_ignored(self):
        # A vote whose digest conflicts with the accepted request must not
        # count towards any threshold: p3 and p4 vote for another digest,
        # so p2 holds 2 of the q = 3 matching PREPAREs and stays unprepared.
        system = build_pattern(4, 1, "all", requests=0)
        system.sim.start()
        replica = system.replicas[2]
        for voter in (3, 4):
            vote = system.sim.host(voter).authenticator.sign(
                IbftPreparePayload(0, 0, "deadbeef")
            )
            system.sim.host(2).deliver(KIND_PREPARE, vote, voter)
        request = system.sim.host(5).authenticator.sign(
            ClientRequest(client=5, sequence=0, op=("put", "k", 1))
        )
        proposal = system.sim.host(1).authenticator.sign(PrePreparePayload(0, 0, (request,)))
        system.sim.host(2).deliver(KIND_PREPREPARE, proposal, 1)
        state = replica.slots[0]
        assert set(state.prepare_votes) == {2, 3, 4}
        assert not state.prepared and not state.committed
        # One matching vote more and the rule is met.
        matching = system.sim.host(3).authenticator.sign(
            IbftPreparePayload(0, 0, state.request_digest)
        )
        state.prepare_votes[3] = matching
        replica._maybe_prepared(0)
        assert state.prepared


class TestBChainEdgeCases:
    def test_client_retry_after_rechain(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=5,
                                       seed=5, ack_timeout=6.0)
        adversary = Adversary(cluster.sim)
        adversary.omit_links(2, kinds={"bc.chain"}, start=5.0)
        cluster.run(900.0)
        # In-flight requests at re-chain time were recovered by client
        # retransmission.
        assert cluster.total_completed() == 5

    def test_duplicate_request_replies_from_cache(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=3, seed=5)
        cluster.run(200.0)
        head = cluster.replicas[1]
        executed_before = len(head.executed)
        from repro.baselines.bchain import KIND_BC_REQUEST
        from repro.xpaxos.messages import ClientRequest

        client_host = cluster.sim.host(8)
        replay = client_host.authenticator.sign(
            ClientRequest(client=8, sequence=0, op=("put", "k0-0", 0))
        )
        client_host.send(1, KIND_BC_REQUEST, replay)
        cluster.run(300.0)
        assert len(head.executed) == executed_before

    def test_rechain_from_non_head_rejected(self):
        cluster = build_bchain_cluster(n=7, f=2, clients=1, requests_per_client=1, seed=5)
        cluster.sim.start()
        from repro.baselines.bchain import KIND_BC_RECHAIN, RechainPayload

        impostor = cluster.sim.host(4)
        bogus = impostor.authenticator.sign(
            RechainPayload(epoch=5, chain=(4, 5, 6, 7, 1))
        )
        for pid in range(1, 8):
            if pid != 4:
                impostor.send(pid, KIND_BC_RECHAIN, bogus)
        cluster.run(100.0)
        assert cluster.replicas[2].chain == (1, 2, 3, 4, 5)
        assert cluster.replicas[2].epoch == 0
