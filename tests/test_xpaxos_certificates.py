"""Commit certificates: view-change state transfer cannot be poisoned.

The simplified view change exchanges committed histories; without
certificates a Byzantine participant could fabricate "committed"
requests or invent leader PREPAREs.  These tests pin the verifier
(:func:`certificate_is_valid`) and demonstrate the attack failing end to
end.
"""

import pytest

from repro.crypto.authenticator import SignedMessage
from repro.protocol.enumeration import quorum_for_view
from repro.xpaxos.messages import (
    KIND_VIEWCHANGE,
    ClientRequest,
    CommitCertificate,
    CommitPayload,
    PreparePayload,
    ViewChangePayload,
    certificate_is_valid,
)
from repro.xpaxos.system import build_system


def make_world():
    system = build_system(n=5, f=2, clients=1, seed=1, client_ops=[[]])
    system.sim.start()
    return system


def quorum_of(view):
    return quorum_for_view(view, 5, 3)


def build_valid_certificate(system, view=0, slot=0, op=("put", "k", 1)):
    """Manufacture a genuine certificate using the real keys."""
    client = system.sim.host(6)
    leader_pid = min(quorum_of(view))
    leader = system.sim.host(leader_pid)
    signed_request = client.authenticator.sign(
        ClientRequest(client=6, sequence=slot, op=op)
    )
    prepare = leader.authenticator.sign(
        PreparePayload(view=view, slot=slot, signed_requests=(signed_request,))
    )
    commits = tuple(
        system.sim.host(member).authenticator.sign(
            CommitPayload(view=view, slot=slot, prepare=prepare)
        )
        for member in sorted(quorum_of(view) - {leader_pid})
    )
    return CommitCertificate(prepare=prepare, commits=commits)


class TestCertificateVerifier:
    def setup_method(self):
        self.system = make_world()
        self.verify = self.system.sim.host(4).authenticator.verify

    def test_genuine_certificate_validates(self):
        cert = build_valid_certificate(self.system)
        assert certificate_is_valid(cert, 0, quorum_of, self.verify)

    def test_wrong_slot_rejected(self):
        cert = build_valid_certificate(self.system, slot=0)
        assert not certificate_is_valid(cert, 1, quorum_of, self.verify)

    def test_missing_commit_rejected(self):
        cert = build_valid_certificate(self.system)
        truncated = CommitCertificate(prepare=cert.prepare, commits=cert.commits[:1])
        assert not certificate_is_valid(truncated, 0, quorum_of, self.verify)

    def test_duplicate_commit_does_not_substitute(self):
        cert = build_valid_certificate(self.system)
        padded = CommitCertificate(
            prepare=cert.prepare, commits=(cert.commits[0], cert.commits[0])
        )
        assert not certificate_is_valid(padded, 0, quorum_of, self.verify)

    def test_prepare_not_from_view_leader_rejected(self):
        # p2 (a follower) signs the PREPARE instead of the view-0 leader.
        system = self.system
        client = system.sim.host(6)
        impostor = system.sim.host(2)
        signed_request = client.authenticator.sign(
            ClientRequest(client=6, sequence=0, op=("noop",))
        )
        prepare = impostor.authenticator.sign(
            PreparePayload(view=0, slot=0, signed_requests=(signed_request,))
        )
        commits = tuple(
            system.sim.host(member).authenticator.sign(
                CommitPayload(view=0, slot=0, prepare=prepare)
            )
            for member in (2, 3)
        )
        cert = CommitCertificate(prepare=prepare, commits=commits)
        assert not certificate_is_valid(cert, 0, quorum_of, self.verify)

    def test_unsigned_client_request_rejected(self):
        # The leader fabricates a request the client never signed.
        system = self.system
        leader = system.sim.host(1)
        forged_request = leader.authenticator.sign(  # wrong signer
            ClientRequest(client=6, sequence=0, op=("put", "stolen", 1))
        )
        prepare = leader.authenticator.sign(
            PreparePayload(view=0, slot=0, signed_requests=(forged_request,))
        )
        commits = tuple(
            system.sim.host(member).authenticator.sign(
                CommitPayload(view=0, slot=0, prepare=prepare)
            )
            for member in (2, 3)
        )
        cert = CommitCertificate(prepare=prepare, commits=commits)
        assert not certificate_is_valid(cert, 0, quorum_of, self.verify)

    def test_commit_digest_mismatch_rejected(self):
        # Commits refer to a different request than the certificate's
        # PREPARE: mix-and-match across slots must fail.
        cert_a = build_valid_certificate(self.system, slot=0, op=("put", "a", 1))
        cert_b = build_valid_certificate(self.system, slot=0, op=("put", "b", 2))
        frankenstein = CommitCertificate(
            prepare=cert_a.prepare, commits=cert_b.commits
        )
        assert not certificate_is_valid(frankenstein, 0, quorum_of, self.verify)

    def test_commit_from_outside_quorum_rejected(self):
        system = self.system
        cert = build_valid_certificate(system)
        outsider_commit = system.sim.host(5).authenticator.sign(  # 5 not in {1,2,3}
            CommitPayload(view=0, slot=0, prepare=cert.prepare)
        )
        cert2 = CommitCertificate(
            prepare=cert.prepare, commits=(cert.commits[0], outsider_commit)
        )
        assert not certificate_is_valid(cert2, 0, quorum_of, self.verify)


class TestForgedViewChangeEndToEnd:
    def test_byzantine_vc_cannot_inject_history(self):
        # p5 sends a VIEW-CHANGE claiming a long "committed" history with
        # uncertified entries; the new leader must ignore it — no replica
        # ever executes the fabricated operation.
        system = build_system(n=5, f=2, mode="enumeration", clients=1, seed=13)
        system.sim.start()
        byz = system.sim.host(5)
        # Fabricated entries: not even certificate-shaped.
        forged = ViewChangePayload(
            new_view=1,
            committed=("fake-entry-1", "fake-entry-2"),
            prepared=(),
        )
        signed = byz.authenticator.sign(forged)
        for dst in (1, 2, 3, 4):
            byz.send(dst, KIND_VIEWCHANGE, signed)
        system.run(600.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        for pid in (1, 2, 3, 4):
            for op in system.replicas[pid].kv.history:
                assert op[0] in ("put", "get", "del", "noop")
        assert system.sim.log.count("xp.divergence") == 0

    def test_real_certificates_travel_through_view_change(self):
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        assert system.total_completed() == 20
        # A replica that joined via NEW-VIEW holds verifiable certificates
        # for its whole history.
        replica = system.replicas[4]
        assert len(replica.executed_certs) == len(replica.executed)
        verify = system.sim.host(4).authenticator.verify
        for index, cert in enumerate(replica.executed_certs):
            assert certificate_is_valid(
                cert, index, replica.policy.quorum_of, verify
            )
