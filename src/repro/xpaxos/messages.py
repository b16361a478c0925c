"""XPaxos wire payloads.

Every inter-replica payload is wrapped in a
:class:`~repro.crypto.authenticator.SignedMessage`.  Per Section V-A of
the paper, a ``COMMIT`` embeds the full signed ``PREPARE`` it refers to,
so a receiver can (a) adopt the request when the COMMIT overtakes the
PREPARE (Figure 3) and (b) *prove* leader equivocation when two embedded
PREPAREs for the same view/slot differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.crypto.digests import digest
from repro.util.wire_schema import (
    INT, STR, VALUE, pair, register_kind_ids, tuple_of, value, wire_message,
)

KIND_REQUEST = "xp.request"
KIND_PREPARE = "xp.prepare"
KIND_COMMIT = "xp.commit"
KIND_VIEWCHANGE = "xp.viewchange"
KIND_NEWVIEW = "xp.newview"
KIND_REPLY = "xp.reply"
KIND_CHECKPOINT = "xp.checkpoint"
register_kind_ids({
    KIND_REQUEST: 8, KIND_PREPARE: 9, KIND_COMMIT: 10, KIND_REPLY: 11,
    KIND_VIEWCHANGE: 12, KIND_NEWVIEW: 13, KIND_CHECKPOINT: 14,
})

_SNAPSHOT = value(tuple, type(None))


@wire_message(0x12, "__xreq__", client=INT, sequence=INT, op=value(tuple))
@dataclass(frozen=True)
class ClientRequest:
    """One client operation (op is a small tuple, e.g. ('put', k, v))."""

    client: int
    sequence: int
    op: Tuple[Any, ...]

    def canonical(self):
        return ("request", self.client, self.sequence, self.op)

    def request_id(self) -> Tuple[int, int]:
        return (self.client, self.sequence)


def is_client_request(signed: Any, verify) -> bool:
    """A request envelope correctly signed by the client it names."""
    return (
        isinstance(signed, SignedMessage)
        and verify(signed)
        and isinstance(signed.payload, ClientRequest)
        and signed.signer == signed.payload.client
    )


@wire_message(0x13, "__xprep__", view=INT, slot=INT, signed_requests=tuple_of(VALUE))
@dataclass(frozen=True)
class PreparePayload:
    """``PREPARE(view, slot, signed_requests)`` from the view's leader.

    ``signed_requests`` is a *batch* of client-signed request envelopes
    (a singleton tuple when batching is off).  A leader cannot fabricate
    operations out of thin air — members verify every client signature
    before accepting the PREPARE, and a PREPARE carrying a forged request
    is a provable commission failure of the leader.
    """

    view: int
    slot: int
    signed_requests: Tuple[SignedMessage, ...]  # client-signed ClientRequests

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return tuple(sm.payload for sm in self.signed_requests)

    def canonical(self):
        def enc(value):
            return value.canonical() if hasattr(value, "canonical") else value

        return (
            "prepare", self.view, self.slot,
            tuple(enc(sm) for sm in self.signed_requests),
        )

    def request_digest(self) -> str:
        return digest(self.canonical())


@wire_message(0x14, "__xcommit__", view=INT, slot=INT, prepare=VALUE)
@dataclass(frozen=True)
class CommitPayload:
    """``COMMIT(view, slot, prepare)`` — carries the signed PREPARE."""

    view: int
    slot: int
    prepare: SignedMessage  # the leader-signed PreparePayload

    def canonical(self):
        # A Byzantine sender may put a non-PREPARE here; it must still be
        # signable/encodable so that receivers can authenticate the COMMIT
        # and then *detect* the sender (Section V-A).
        embedded = (
            self.prepare.canonical()
            if hasattr(self.prepare, "canonical")
            else self.prepare
        )
        return ("commit", self.view, self.slot, embedded)


@wire_message(0x15, "__xcert__", prepare=VALUE, commits=tuple_of(VALUE))
@dataclass(frozen=True)
class CommitCertificate:
    """Proof that one request committed at one (view, slot).

    ``prepare`` is the leader-signed PREPARE; ``commits`` are the signed
    COMMITs of every non-leader member of that view's quorum (the
    collector signs its own).  Anyone can verify the certificate against
    the public view -> quorum mapping, so view-change state transfer
    cannot be poisoned by a Byzantine participant inventing history.
    """

    prepare: SignedMessage
    commits: Tuple[SignedMessage, ...]

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return self.prepare.payload.requests

    def canonical(self):
        return (
            "commit-certificate",
            self.prepare.canonical(),
            tuple(c.canonical() for c in self.commits),
        )


def certificate_is_valid(
    certificate: CommitCertificate,
    expected_slot: int,
    quorum_of,
    verify,
) -> bool:
    """Check a commit certificate.

    ``quorum_of(view)`` returns the view's quorum; ``verify`` checks
    signatures.  Valid iff: the PREPARE is signed by the view's leader
    for ``expected_slot`` and carries a client-signed request; every
    non-leader quorum member contributed a signed COMMIT embedding a
    PREPARE with the same request digest.
    """
    if not isinstance(certificate, CommitCertificate):
        return False
    prepare = certificate.prepare
    if not isinstance(prepare, SignedMessage) or not verify(prepare):
        return False
    body = prepare.payload
    if not isinstance(body, PreparePayload) or body.slot != expected_slot:
        return False
    if not body.signed_requests:
        return False
    if not all(is_client_request(inner, verify) for inner in body.signed_requests):
        return False
    quorum = quorum_of(body.view)
    if prepare.signer != min(quorum):
        return False
    wanted_digest = body.request_digest()
    signers = set()
    for commit in certificate.commits:
        if not isinstance(commit, SignedMessage) or not verify(commit):
            return False
        commit_body = commit.payload
        if not isinstance(commit_body, CommitPayload):
            return False
        if commit_body.view != body.view or commit_body.slot != body.slot:
            return False
        embedded = commit_body.prepare
        if not isinstance(embedded, SignedMessage) or not verify(embedded):
            return False
        embedded_body = embedded.payload
        if not isinstance(embedded_body, PreparePayload):
            return False
        if embedded_body.request_digest() != wanted_digest:
            return False
        if commit.signer not in quorum or commit.signer == prepare.signer:
            return False
        signers.add(commit.signer)
    return signers == quorum - {prepare.signer}


@wire_message(0x16, "__xckpt__", view=INT, slot_count=INT, state_digest=STR)
@dataclass(frozen=True)
class CheckpointPayload:
    """One member's vote that the state at ``slot_count`` digests to
    ``state_digest`` (log compaction)."""

    view: int
    slot_count: int
    state_digest: str

    def canonical(self):
        return ("checkpoint", self.view, self.slot_count, self.state_digest)


@wire_message(0x17, "__xckptcert__", votes=tuple_of(VALUE))
@dataclass(frozen=True)
class CheckpointCertificate:
    """Signed CHECKPOINT votes from every member of one view's quorum.

    Once formed, every commit certificate before ``slot_count`` can be
    discarded: the snapshot whose digest the certificate pins replaces
    them in view-change state transfer.
    """

    votes: Tuple[SignedMessage, ...]

    @property
    def payload(self) -> "CheckpointPayload":
        return self.votes[0].payload

    def canonical(self):
        def enc(value):
            return value.canonical() if hasattr(value, "canonical") else value

        return ("checkpoint-certificate", tuple(enc(v) for v in self.votes))


def checkpoint_certificate_is_valid(
    certificate: "CheckpointCertificate", quorum_of, verify
) -> bool:
    """All votes verify, agree on (view, slot_count, digest), and come
    from exactly the view's quorum."""
    if not isinstance(certificate, CheckpointCertificate) or not certificate.votes:
        return False
    reference: Optional[CheckpointPayload] = None
    signers = set()
    for vote in certificate.votes:
        if not isinstance(vote, SignedMessage) or not verify(vote):
            return False
        body = vote.payload
        if not isinstance(body, CheckpointPayload):
            return False
        if reference is None:
            reference = body
        elif body != reference:
            return False
        signers.add(vote.signer)
    return signers == quorum_of(reference.view)


@wire_message(
    0x18, "__xvc__",
    new_view=INT, committed=tuple_of(VALUE), prepared=tuple_of(pair(INT, VALUE)),
    checkpoint=VALUE, snapshot=_SNAPSHOT,
)
@dataclass(frozen=True)
class ViewChangePayload:
    """``VIEW-CHANGE(new_view, committed, prepared)``.

    ``committed`` is the sender's certified execution history: one
    :class:`CommitCertificate` per executed slot, in order.  ``prepared``
    maps slots beyond the prefix to the signed PREPAREs the sender
    accepted for them.  Remaining simplification relative to XPaxos'
    full OSDI'16 protocol is documented in DESIGN.md §5.7.
    """

    new_view: int
    committed: Tuple[CommitCertificate, ...]
    prepared: Tuple[Tuple[int, SignedMessage], ...]
    checkpoint: Optional["CheckpointCertificate"] = None
    snapshot: Optional[Tuple] = None  # digest-pinned by the checkpoint

    def canonical(self):
        # Byzantine senders may put arbitrary values where certificates
        # belong; the payload must still be signable so receivers can
        # authenticate it and then reject the content.
        def enc(value):
            return value.canonical() if hasattr(value, "canonical") else value

        return (
            "view-change",
            self.new_view,
            tuple(enc(cert) for cert in self.committed),
            tuple((slot, enc(sm)) for slot, sm in self.prepared),
            enc(self.checkpoint),
            self.snapshot,
        )


@wire_message(
    0x19, "__xnv__", view=INT, committed=tuple_of(VALUE), checkpoint=VALUE, snapshot=_SNAPSHOT
)
@dataclass(frozen=True)
class NewViewPayload:
    """``NEW-VIEW(view, committed)`` from the new leader (certified)."""

    view: int
    committed: Tuple[CommitCertificate, ...]
    checkpoint: Optional["CheckpointCertificate"] = None
    snapshot: Optional[Tuple] = None

    def canonical(self):
        def enc(value):
            return value.canonical() if hasattr(value, "canonical") else value

        return (
            "new-view",
            self.view,
            tuple(enc(cert) for cert in self.committed),
            enc(self.checkpoint),
            self.snapshot,
        )


@wire_message(
    0x1A, "__xreply__", client=INT, sequence=INT, result=VALUE, replica=INT, view=INT
)
@dataclass(frozen=True)
class ReplyPayload:
    """Reply to a client: request id, result, and the executing replica."""

    client: int
    sequence: int
    result: Any
    replica: int
    view: int

    def canonical(self):
        return ("reply", self.client, self.sequence, self.result, self.replica, self.view)


def commit_is_malformed(commit: CommitPayload, verify) -> Optional[str]:
    """Validate a COMMIT's embedded PREPARE (Section V-A change #2).

    ``verify`` is an authenticator-bound callable for SignedMessage.
    Returns a reason string when malformed, ``None`` when acceptable.
    Mismatch of view/slot between COMMIT and embedded PREPARE, a bad
    signature, or a non-PREPARE body all make the *sender* detectable.
    """
    prepare = commit.prepare
    if not isinstance(prepare, SignedMessage):
        return "no-embedded-prepare"
    if not verify(prepare):
        return "bad-prepare-signature"
    body = prepare.payload
    if not isinstance(body, PreparePayload):
        return "embedded-not-a-prepare"
    if body.view != commit.view or body.slot != commit.slot:
        return "view-slot-mismatch"
    return None
