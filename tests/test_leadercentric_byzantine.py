"""Byzantine-input tests for the star backend (on Follower Selection)."""

from repro.leadercentric.star import (
    KIND_DECIDE,
    KIND_PROPOSE,
    KIND_RECONFIGURE,
    AckPayload,
    DecidePayload,
    ProposePayload,
)
from repro.protocol.system import build_backend_system
from repro.xpaxos.messages import ClientRequest, ViewChangePayload

N, F, CLIENT = 7, 2, 8


def started_system(seed=7, **options):
    options.setdefault("client_ops", [[]])
    system = build_backend_system("star", N, F, "fs", clients=1, seed=seed, **options)
    system.sim.start()
    return system


def sign(system, pid, body):
    return system.sim.host(pid).authenticator.sign(body)


def signed_request(system, sequence=0, signer=CLIENT):
    return sign(system, signer, ClientRequest(CLIENT, sequence, ("put", "k", sequence)))


def decide(system, view, slot, leader, followers, request=None, ackers=None):
    """A DECIDE as ``leader`` would sign it, ACKed by ``ackers``."""
    request = request or signed_request(system, slot)
    propose = sign(system, leader, ProposePayload(view, slot, (request,)))
    ack = AckPayload(view, slot, propose.payload.request_digest())
    acks = tuple(sign(system, pid, ack) for pid in (followers if ackers is None else ackers))
    return sign(system, leader, DecidePayload(view, slot, propose, acks))


class TestByzantineInputs:
    def test_forged_request_in_propose_detected(self):
        # The leader proposes an operation no client ever signed: every
        # follower detects it permanently.
        system = started_system()
        forged = signed_request(system, signer=1)  # signer != claimed client
        propose = sign(system, 1, ProposePayload(0, 0, (forged,)))
        system.sim.host(1).send(2, KIND_PROPOSE, propose)
        system.run(50.0)
        assert 1 in system.sim.host(2).fd.suspected
        assert system.replicas[2].detected_events[0][1:] == (1, "forged-client-request")
        assert len(system.replicas[2].executed) == 0

    def test_propose_from_non_leader_ignored(self):
        system = started_system()
        propose = sign(system, 3, ProposePayload(0, 0, (signed_request(system),)))
        system.sim.host(3).send(2, KIND_PROPOSE, propose)
        system.run(50.0)
        assert len(system.replicas[2].executed) == 0
        assert system.replicas[2].slots == {}
        assert 3 not in system.sim.host(2).fd.suspected  # silently dropped

    def test_stale_config_decide_ignored(self):
        # p1 led view 0 and crashed; a DECIDE of that view, certificate
        # and all, means nothing in the configuration that replaced it.
        system = started_system(seed=9, client_ops=[[("put", "a", 1)]])
        system.adversary.crash(1, at=30.0)
        system.run(300.0)
        replica = system.replicas[2]
        assert replica.view > 0 and replica.status == "normal"
        before = len(replica.executed)
        stale = decide(system, view=0, slot=replica.total_slots, leader=1,
                       followers=(2, 3, 4, 5))
        system.sim.host(2).deliver(KIND_DECIDE, stale, 1)
        system.run(350.0)
        assert len(replica.executed) == before and replica.detected_events == []

    def test_direct_decide_executes_without_propose(self):
        # A DECIDE from the current leader carries the slot's certificate
        # (PROPOSE + every follower's ACK): a follower that missed the
        # PROPOSE checks it and executes consistently.
        system = started_system()
        system.sim.host(1).send(2, KIND_DECIDE, decide(system, 0, 0, 1, (2, 3, 4, 5)))
        system.run(50.0)
        assert len(system.replicas[2].executed) == 1
        assert system.replicas[2].detected_events == []

    def test_decide_without_enough_acks_indicts_the_leader(self):
        # ...but the leader's word alone decides nothing: q - 1 ACKs of
        # members must be inside, whoever signs the envelope.
        system = started_system()
        for slot, ackers in enumerate([(2, 3, 4), (2, 3, 4, 6), (2, 2, 3, 4)]):
            short = decide(system, 0, slot, 1, (), ackers=ackers)
            system.sim.host(1).send(2, KIND_DECIDE, short)
        system.run(50.0)
        replica = system.replicas[2]
        assert len(replica.executed) == 0
        assert [reason for _, _, reason in replica.detected_events] == [
            "invalid-decide-certificate"
        ] * 3
        assert 1 in system.sim.host(2).fd.suspected


class TestCertifiedReconfiguration:
    """What the star inherits from the core's decision change."""

    def test_report_for_the_initial_view_changes_nothing(self):
        # A member-signed history report for view 0, before any
        # reconfiguration: nothing to join, nothing to merge, no error.
        system = started_system(client_ops=[[("put", "a", 1), ("put", "b", 2)]])
        report = sign(system, 2, ViewChangePayload(new_view=0, committed=(), prepared=()))
        system.sim.host(2).send(1, KIND_RECONFIGURE, report)
        system.run(200.0)
        leader = system.replicas[1]
        assert (leader.view, leader.status, leader.view_changes) == (0, "normal", 0)
        assert system.total_completed() == 2

    def test_longer_uncertified_history_is_not_adopted(self):
        # p5 (Byzantine) pads its reported history with a slot it decided
        # alone.  The merged history is the longest one whose every entry
        # verifies — the five real slots — and nobody diverges.
        ops = [[("put", f"k{i}", i) for i in range(5)]]
        system = started_system(seed=9, client_ops=ops)
        system.adversary.corrupt(5)
        liar = system.replicas[5]

        def pad_history():
            assert len(liar.executed_certs) == 5
            invented = decide(system, 0, 5, leader=5, followers=(), ackers=(5,),
                              request=signed_request(system, 99))
            liar.executed_certs.append(invented.payload)

        system.sim.at(25.0, pad_history)
        system.adversary.crash(1, at=30.0)
        system.run(600.0)
        members = [r for r in system.correct_replicas() if r.host.running and r.in_quorum]
        assert 5 in members[0].quorum and len(members) == 4
        new_leader = system.replicas[members[0].leader]
        assert len(new_leader._vc_received[5].committed) == 6  # the lie arrived
        for replica in members:
            assert replica.status == "normal" and replica.view > 0
            assert [r.request_id() for r in replica.executed] == [(CLIENT, i) for i in range(5)]
        kinds = {event.kind for event in system.sim.log}
        assert "st.newconfig" in kinds and "st.divergence" not in kinds
