"""Tests for the XPaxos replica: normal case, Fig. 2/3, detection, views."""

import hashlib

import pytest

from repro.crypto.authenticator import SignedMessage
from repro.xpaxos.messages import (
    KIND_COMMIT,
    KIND_PREPARE,
    ClientRequest,
    CommitPayload,
    PreparePayload,
    commit_is_malformed,
)
from repro.xpaxos.state_machine import KeyValueStore
from repro.xpaxos.system import build_system


class TestStateMachine:
    def test_put_get_del(self):
        kv = KeyValueStore()
        assert kv.apply(("put", "a", 1)) is None
        assert kv.apply(("get", "a")) == 1
        assert kv.apply(("put", "a", 2)) == 1
        assert kv.apply(("del", "a")) == 2
        assert kv.apply(("get", "a")) is None

    def test_noop_and_unknown(self):
        kv = KeyValueStore()
        assert kv.apply(("noop",)) is None
        assert kv.apply(("explode", 1)) == ("rejected", "explode")
        assert kv.apply(()) is None

    def test_digest_tracks_history_order(self):
        a, b = KeyValueStore(), KeyValueStore()
        a.apply(("put", "x", 1))
        a.apply(("put", "y", 2))
        b.apply(("put", "y", 2))
        b.apply(("put", "x", 1))
        assert a.state_digest() != b.state_digest()  # order matters

    def test_digest_equal_for_equal_histories(self):
        a, b = KeyValueStore(), KeyValueStore()
        for kv in (a, b):
            kv.apply(("put", "x", 1))
        assert a.state_digest() == b.state_digest()


class TestCommitValidation:
    def setup_method(self):
        self.system = build_system(n=5, f=2, clients=1, seed=1)
        self.leader = self.system.sim.host(1)
        self.member = self.system.sim.host(2)
        client = self.system.sim.host(6)
        request = ClientRequest(client=6, sequence=0, op=("noop",))
        signed_request = client.authenticator.sign(request)
        self.prepare_body = PreparePayload(view=0, slot=0, signed_requests=(signed_request,))
        self.prepare = self.leader.authenticator.sign(self.prepare_body)

    def test_valid_commit(self):
        commit = CommitPayload(view=0, slot=0, prepare=self.prepare)
        assert commit_is_malformed(commit, self.member.authenticator.verify) is None

    def test_missing_prepare(self):
        commit = CommitPayload(view=0, slot=0, prepare="garbage")
        assert commit_is_malformed(commit, self.member.authenticator.verify)

    def test_bad_signature(self):
        tampered = SignedMessage(self.prepare_body, self.member.authenticator.sign("x").signature)
        commit = CommitPayload(view=0, slot=0, prepare=tampered)
        reason = commit_is_malformed(commit, self.member.authenticator.verify)
        assert reason == "bad-prepare-signature"

    def test_view_slot_mismatch(self):
        commit = CommitPayload(view=0, slot=1, prepare=self.prepare)
        reason = commit_is_malformed(commit, self.member.authenticator.verify)
        assert reason == "view-slot-mismatch"

    def test_embedded_not_a_prepare(self):
        not_prepare = self.leader.authenticator.sign(("something",))
        commit = CommitPayload(view=0, slot=0, prepare=not_prepare)
        reason = commit_is_malformed(commit, self.member.authenticator.verify)
        assert reason == "embedded-not-a-prepare"


class TestNormalCase:
    def test_fault_free_run_commits_everything(self):
        system = build_system(n=5, f=2, clients=2, seed=7)
        system.run(400.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert all(r.view_changes == 0 for r in system.replicas.values())
        # Only the active quorum executed (passive replicas stay dark).
        active = {1, 2, 3}
        for pid, replica in system.replicas.items():
            expected = 40 if pid in active else 0
            assert len(replica.executed) == expected

    def test_no_false_suspicions_fault_free(self):
        system = build_system(n=5, f=2, clients=1, seed=8)
        system.run(300.0)
        assert system.sim.log.count("fd.timeout") == 0

    def test_figure3_commit_before_prepare_handled(self):
        # Delay the leader's PREPAREs to p3 so COMMITs from p2 overtake
        # them (Figure 3): p3 must adopt the embedded PREPARE, commit,
        # and not suspect anyone.
        system = build_system(n=5, f=2, clients=1, seed=9)
        system.adversary.delay_links(
            1, extra_delay=3.0, dsts={3}, kinds={KIND_PREPARE}
        )
        system.run(400.0)
        assert system.total_completed() == 20
        assert len(system.replicas[3].executed) == 20
        assert system.histories_consistent()
        # The delay stays under the FD timeout: no suspicion of the leader.
        assert 1 not in system.sim.host(3).fd.suspected

    def test_prepare_omission_on_one_link_detected_and_survived(self):
        # Leader's PREPAREs to p3 are dropped entirely.  p3 adopts the
        # first request from embedded COMMITs (Figure 3) but its
        # expectation for the leader's PREPARE times out — the per-link
        # omission is *detected* (the paper's headline capability) and
        # the quorum moves to one avoiding the (1,3) link; the workload
        # still completes.
        system = build_system(n=5, f=2, clients=1, seed=10)
        system.adversary.omit_links(1, dsts={3}, kinds={KIND_PREPARE})
        system.run(900.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        # p3 suspected the leader for the omitted link...
        assert any(
            e.payload.get("target") == 1
            for e in system.sim.log.events(kind="fd.suspect", process=3)
        )
        # ...and the final quorum avoids putting 1 and 3 together.
        final_quorum = system.replicas[2].quorum
        assert not {1, 3} <= final_quorum


class TestEquivocationDetection:
    def test_leader_equivocation_detected(self):
        # A Byzantine leader sends two different PREPAREs for one slot:
        # members exchange COMMITs embedding them and detect the leader.
        system = build_system(n=5, f=2, clients=1, seed=11,
                              client_ops=[[]])
        system.sim.start()
        leader = system.sim.host(1)
        client = system.sim.host(6)
        request_a = client.authenticator.sign(
            ClientRequest(client=6, sequence=0, op=("put", "k", "a"))
        )
        request_b = client.authenticator.sign(
            ClientRequest(client=6, sequence=0, op=("put", "k", "b"))
        )
        prepare_a = leader.authenticator.sign(PreparePayload(0, 0, (request_a,)))
        prepare_b = leader.authenticator.sign(PreparePayload(0, 0, (request_b,)))
        leader.send(2, KIND_PREPARE, prepare_a)
        leader.send(3, KIND_PREPARE, prepare_b)
        system.run(100.0)
        detected = [
            reason
            for replica in (system.replicas[2], system.replicas[3])
            for _, culprit, reason in replica.detected_events
            if culprit == 1
        ]
        assert any("equivocation" in reason for reason in detected)

    def test_malformed_commit_detects_sender(self):
        system = build_system(n=5, f=2, clients=0, seed=12)
        system.sim.start()
        byz = system.sim.host(2)
        bogus_commit = byz.authenticator.sign(
            CommitPayload(view=0, slot=0, prepare="not-a-prepare")
        )
        byz.send(3, KIND_COMMIT, bogus_commit)
        system.run(50.0)
        assert any(
            culprit == 2 and reason.startswith("malformed-commit")
            for _, culprit, reason in system.replicas[3].detected_events
        )


class TestViewChanges:
    @pytest.mark.parametrize("mode", ["selection", "enumeration"])
    def test_leader_crash_recovers(self, mode):
        system = build_system(n=5, f=2, mode=mode, clients=2, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        views = {r.view for r in system.correct_replicas()}
        assert len(views) == 1
        final_quorum = system.replicas[2].quorum
        assert 1 not in final_quorum

    def test_selection_mode_skips_to_target_view(self):
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        # Selection jumps straight past every quorum containing p1:
        # far fewer view-change events than the enumeration walk.
        changes = max(r.view_changes for r in system.correct_replicas())
        assert changes <= 3

    def test_passive_replica_crash_is_free(self):
        # Crash outside the active quorum: no view change at all.
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=13)
        system.adversary.crash(5, at=30.0)
        system.run(500.0)
        assert system.total_completed() == 20
        assert all(r.view_changes == 0 for r in system.correct_replicas())

    def test_two_crashes_still_recovers(self):
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=14)
        system.adversary.crash(1, at=30.0)
        system.adversary.crash(2, at=40.0)
        system.run(900.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        assert system.replicas[3].quorum == frozenset({3, 4, 5})


class TestEventSequencePins:
    """SHA-256 of the ``xp.*`` event sequence, recorded before the replica
    was split into the shared core plus a vote phase (ISSUE 14): same
    events, same order, same times, same payloads."""

    SCENARIOS = {
        "fault-free": (
            dict(n=5, f=2, clients=2, seed=7), None, 600.0,
            "cbc41431b2cadda7eba632bf163457356b5288df7a73d2357407c240bfd28db5",
        ),
        "leader-kill": (
            dict(n=5, f=2, mode="selection", clients=2, seed=9, client_think_time=3.0),
            60.0, 1200.0,
            "a21b9ca4d7c962573dcd27e079638b00443de29f7013e308cea6890944fd413f",
        ),
        "checkpoint-and-state-transfer": (
            dict(n=5, f=2, mode="selection", clients=2, seed=9,
                 checkpoint_interval=5, client_think_time=3.0),
            60.0, 1200.0,
            "926ec7f669cd806f036f7a72cd9642497614f9bb5c25c2a434a5793360ab8c52",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_event_sequence_unchanged(self, name):
        kwargs, kill_leader_at, until, pinned = self.SCENARIOS[name]
        system = build_system(batch_window=0.0, **kwargs)
        if kill_leader_at is not None:
            system.adversary.crash(1, at=kill_leader_at)
        system.run(until)
        sequence = hashlib.sha256()
        for event in system.sim.log:
            if event.kind.startswith("xp."):
                sequence.update(repr(
                    (event.time, event.process, event.kind, sorted(event.payload.items()))
                ).encode())
        assert sequence.hexdigest() == pinned
