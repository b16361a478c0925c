"""Commit certificates: view-change state transfer cannot be poisoned.

The simplified view change exchanges committed histories; without
certificates a Byzantine participant could fabricate "committed"
requests or invent leader PREPAREs.  These tests pin the verifier
(:func:`certificate_is_valid`) and demonstrate the attack failing end to
end.
"""

import pytest

from repro.crypto.authenticator import SignedMessage
from repro.protocol.selector import make_selector
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


SELECTOR = make_selector("qs", 5, 2)
quorum_of = SELECTOR.quorum_of


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
        assert certificate_is_valid(cert, 0, SELECTOR, self.verify)

    def test_wrong_slot_rejected(self):
        cert = build_valid_certificate(self.system, slot=0)
        assert not certificate_is_valid(cert, 1, SELECTOR, self.verify)

    def test_missing_commit_rejected(self):
        cert = build_valid_certificate(self.system)
        truncated = CommitCertificate(prepare=cert.prepare, commits=cert.commits[:1])
        assert not certificate_is_valid(truncated, 0, SELECTOR, self.verify)

    def test_duplicate_commit_does_not_substitute(self):
        cert = build_valid_certificate(self.system)
        padded = CommitCertificate(
            prepare=cert.prepare, commits=(cert.commits[0], cert.commits[0])
        )
        assert not certificate_is_valid(padded, 0, SELECTOR, self.verify)

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
        assert not certificate_is_valid(cert, 0, SELECTOR, self.verify)

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
        assert not certificate_is_valid(cert, 0, SELECTOR, self.verify)

    def test_commit_digest_mismatch_rejected(self):
        # Commits refer to a different request than the certificate's
        # PREPARE: mix-and-match across slots must fail.
        cert_a = build_valid_certificate(self.system, slot=0, op=("put", "a", 1))
        cert_b = build_valid_certificate(self.system, slot=0, op=("put", "b", 2))
        frankenstein = CommitCertificate(
            prepare=cert_a.prepare, commits=cert_b.commits
        )
        assert not certificate_is_valid(frankenstein, 0, SELECTOR, self.verify)

    def test_commit_from_outside_quorum_rejected(self):
        system = self.system
        cert = build_valid_certificate(system)
        outsider_commit = system.sim.host(5).authenticator.sign(  # 5 not in {1,2,3}
            CommitPayload(view=0, slot=0, prepare=cert.prepare)
        )
        cert2 = CommitCertificate(
            prepare=cert.prepare, commits=(cert.commits[0], outsider_commit)
        )
        assert not certificate_is_valid(cert2, 0, SELECTOR, self.verify)


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
                cert, index, replica.selector, verify
            )


class TestValidatorsAskTheSelector:
    """Who leads a view is the selector's call, not ``min(quorum)``."""

    N, F, LEADER, QUORUM = 7, 2, 4, frozenset({1, 2, 3, 4, 5})

    def certificates(self, system, view, leader):
        """One certificate per backend for ``view``, proposals signed by ``leader``."""
        from repro.ibft.messages import IbftCommitCertificate, IbftCommitPayload, PrePreparePayload
        from repro.leadercentric.star import AckPayload, DecidePayload, ProposePayload

        def sign(pid, body):
            return system.sim.host(pid).authenticator.sign(body)

        batch = (sign(8, ClientRequest(client=8, sequence=0, op=("put", "k", 1))),)
        voters = sorted(self.QUORUM - {leader})
        prepare = sign(leader, PreparePayload(view, 0, batch))
        preprepare = sign(leader, PrePreparePayload(view, 0, batch))
        propose = sign(leader, ProposePayload(view, 0, batch))
        commit = IbftCommitPayload(view, 0, preprepare.payload.request_digest())
        ack = AckPayload(view, 0, propose.payload.request_digest())
        return {
            "xpaxos": CommitCertificate(
                prepare, tuple(sign(p, CommitPayload(view, 0, prepare)) for p in voters)),
            "ibft": IbftCommitCertificate(preprepare, tuple(sign(p, commit) for p in voters)),
            "star": DecidePayload(view, 0, propose, tuple(sign(p, ack) for p in voters)),
        }

    def test_proposal_signed_by_lowest_id_but_not_the_fs_leader_is_rejected(self):
        from repro.protocol.backend import get_backend
        from repro.protocol.system import build_backend_system

        system = build_backend_system("xpaxos", self.N, self.F, "fs", clients=1, client_ops=[[]])
        system.sim.start()
        verify = system.sim.host(6).authenticator.verify
        fs = make_selector("fs", self.N, self.F)
        view = fs.view_on_selected(
            type("Selected", (), {"leader": self.LEADER, "quorum": self.QUORUM}), 0
        )
        assert fs.leader_of(view) == self.LEADER != min(fs.quorum_of(view))
        by_lowest = self.certificates(system, view, leader=min(self.QUORUM))
        by_leader = self.certificates(system, view, leader=self.LEADER)
        for protocol in ("xpaxos", "ibft", "star"):
            is_valid = get_backend(protocol).replica_class.certificate_is_valid
            assert is_valid(by_leader[protocol], 0, fs, verify), protocol
            assert not is_valid(by_lowest[protocol], 0, fs, verify), protocol
