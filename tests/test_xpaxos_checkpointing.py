"""Checkpointing / log compaction tests."""

import pytest

from repro.crypto.digests import digest
from repro.util.errors import ConfigurationError
from repro.xpaxos.messages import (
    CheckpointCertificate,
    CheckpointPayload,
    checkpoint_certificate_is_valid,
)
from repro.xpaxos.system import build_system


class TestCheckpointFormation:
    def test_certificates_truncated_at_interval(self):
        system = build_system(n=5, f=2, clients=2, seed=7, checkpoint_interval=10)
        system.run(600.0)
        assert system.total_completed() == 40
        for pid in (1, 2, 3):  # the active quorum
            replica = system.replicas[pid]
            assert replica.checkpoints_made >= 3
            assert replica.checkpoint_slot >= 30
            # The live certificate log stays bounded by the interval.
            assert len(replica.executed_certs) < 10 + 1
            # ...while the flat history is complete.
            assert len(replica.executed) == 40

    def test_no_checkpoints_when_disabled(self):
        system = build_system(n=5, f=2, clients=1, seed=7)
        system.run(300.0)
        replica = system.replicas[1]
        assert replica.checkpoints_made == 0
        assert replica.checkpoint is None
        assert len(replica.executed_certs) == len(replica.executed)

    def test_checkpoint_digest_matches_snapshot(self):
        system = build_system(n=5, f=2, clients=1, seed=7, checkpoint_interval=5)
        system.run(400.0)
        replica = system.replicas[2]
        assert replica.checkpoint is not None
        certificate, snapshot = replica.checkpoint
        assert digest(snapshot) == certificate.payload.state_digest
        assert checkpoint_certificate_is_valid(
            certificate, replica.selector, system.sim.host(2).authenticator.verify
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            build_system(n=5, f=2, checkpoint_interval=0)


class TestCheckpointAcrossViewChange:
    def test_crash_recovery_with_checkpoints(self):
        system = build_system(
            n=5, f=2, mode="selection", clients=2, seed=9,
            checkpoint_interval=5, client_think_time=3.0,
        )
        system.adversary.crash(1, at=60.0)
        system.run(1200.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert system.sim.log.count("xp.divergence") == 0

    def test_passive_replica_adopts_snapshot(self):
        # p4/p5 were passive all through view 0; after the view change
        # they join a quorum and must catch up — with checkpointing the
        # catch-up goes through snapshot adoption for the stable prefix.
        system = build_system(
            n=5, f=2, mode="selection", clients=2, seed=9,
            checkpoint_interval=5, client_think_time=3.0,
        )
        system.adversary.crash(1, at=60.0)
        system.run(1200.0)
        adopted = system.sim.log.count("xp.snapshot-adopted")
        assert adopted >= 1
        # The adopting replicas ended with the full flat history.
        for replica in system.correct_replicas():
            if replica.pid in replica.quorum:
                assert len(replica.executed) == 40

    def test_kv_state_identical_after_snapshot_adoption(self):
        system = build_system(
            n=5, f=2, mode="selection", clients=2, seed=9,
            checkpoint_interval=5, client_think_time=3.0,
        )
        system.adversary.crash(1, at=60.0)
        system.run(1200.0)
        digests = {
            replica.kv.state_digest()
            for replica in system.correct_replicas()
            if len(replica.executed) == 40
        }
        assert len(digests) == 1


class TestCheckpointCertificateValidation:
    def setup_method(self):
        self.system = build_system(n=5, f=2, clients=1, seed=7, checkpoint_interval=5)
        self.system.run(400.0)
        self.replica = self.system.replicas[2]
        self.certificate, self.snapshot = self.replica.checkpoint
        self.verify = self.system.sim.host(2).authenticator.verify
        self.selector = self.replica.selector

    def test_genuine_validates(self):
        assert checkpoint_certificate_is_valid(
            self.certificate, self.selector, self.verify
        )

    def test_missing_vote_rejected(self):
        truncated = CheckpointCertificate(votes=self.certificate.votes[:-1])
        assert not checkpoint_certificate_is_valid(truncated, self.selector, self.verify)

    def test_mixed_payloads_rejected(self):
        # Replace one vote with a vote for a different slot count.
        host = self.system.sim.host(1)
        rogue = host.authenticator.sign(
            CheckpointPayload(view=0, slot_count=999, state_digest="beef")
        )
        mixed = CheckpointCertificate(votes=(rogue, *self.certificate.votes[1:]))
        assert not checkpoint_certificate_is_valid(mixed, self.selector, self.verify)

    def test_empty_or_garbage_rejected(self):
        assert not checkpoint_certificate_is_valid(
            CheckpointCertificate(votes=()), self.selector, self.verify
        )
        assert not checkpoint_certificate_is_valid("junk", self.selector, self.verify)

    def test_snapshot_tamper_detected_via_digest(self):
        tampered = (*self.snapshot[:3], (("stolen-key", 1),), self.snapshot[4])
        assert digest(tampered) != self.certificate.payload.state_digest
