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
from typing import Any, Callable, Iterable, Optional, Tuple

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


@wire_message(0x12, client=INT, sequence=INT, op=value(tuple))
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


def canon(value: Any) -> Any:
    """``value.canonical()`` where there is one.  A Byzantine sender may put
    anything where a message belongs; the enclosing payload must still be
    signable so receivers can authenticate it and then reject the content."""
    return value.canonical() if hasattr(value, "canonical") else value


class Proposal:
    """What the replica core reads off any backend's leader proposal, next
    to its ``(view, slot, signed_requests)`` fields.

    ``signed_requests`` is a *batch* of client-signed request envelopes
    (a singleton tuple when batching is off).  A leader cannot fabricate
    operations out of thin air — members verify every client signature
    before accepting the proposal, and one carrying a forged request is
    a provable commission failure of the leader.
    """

    #: First element of :meth:`canonical` — keeps backends' signatures apart.
    label: str

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return tuple(sm.payload for sm in self.signed_requests)

    def canonical(self):
        return (
            self.label, self.view, self.slot,
            tuple(canon(sm) for sm in self.signed_requests),
        )

    def request_digest(self) -> str:
        return digest(self.canonical())


def certified_proposal(
    proposal: Any, proposal_type: type, expected_slot: int, selector, verify
) -> Optional[Any]:
    """The body of a certificate's proposal, or ``None`` if it proves nothing.

    It must be signed by the leader the ``selector`` assigns to its view,
    be for ``expected_slot`` and carry only client-signed requests.
    """
    if not isinstance(proposal, SignedMessage) or not verify(proposal):
        return None
    body = proposal.payload
    if not isinstance(body, proposal_type) or body.slot != expected_slot:
        return None
    if not body.signed_requests:
        return None
    if not all(is_client_request(inner, verify) for inner in body.signed_requests):
        return None
    if proposal.signer != selector.leader_of(body.view):
        return None
    return body


def votes_decide(
    votes: Iterable[Any],
    matches: Callable[[Any], bool],
    view: int,
    selector,
    verify,
) -> bool:
    """The certificate half of the replica core's vote rule.

    Every vote must verify, satisfy ``matches(vote.payload)`` and come
    from a non-leader member of ``view``'s quorum; with the leader's
    proposal counted as its vote, ``selector.q`` members must agree —
    every member whenever the quorum has exactly ``q``.
    """
    leader, quorum = selector.leader_of(view), selector.quorum_of(view)
    signers = {leader}
    for vote in votes:
        if not isinstance(vote, SignedMessage) or not verify(vote):
            return False
        if not matches(vote.payload):
            return False
        if vote.signer not in quorum or vote.signer == leader:
            return False
        signers.add(vote.signer)
    return len(signers) >= selector.q


@wire_message(0x13, view=INT, slot=INT, signed_requests=tuple_of(VALUE))
@dataclass(frozen=True)
class PreparePayload(Proposal):
    """``PREPARE(view, slot, signed_requests)`` from the view's leader."""

    label = "prepare"

    view: int
    slot: int
    signed_requests: Tuple[SignedMessage, ...]  # client-signed ClientRequests


@wire_message(0x14, view=INT, slot=INT, prepare=VALUE)
@dataclass(frozen=True)
class CommitPayload:
    """``COMMIT(view, slot, prepare)`` — carries the signed PREPARE."""

    view: int
    slot: int
    prepare: SignedMessage  # the leader-signed PreparePayload

    def canonical(self):
        # A non-PREPARE here still signs, so that receivers can
        # authenticate the COMMIT and then *detect* the sender (Sec. V-A).
        return ("commit", self.view, self.slot, canon(self.prepare))


@wire_message(0x15, prepare=VALUE, commits=tuple_of(VALUE))
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
    selector,
    verify,
) -> bool:
    """Check a commit certificate against the ``selector``'s view mapping.

    Valid iff the PREPARE is a :func:`certified_proposal` and the COMMITs
    — each embedding a PREPARE with the same request digest — satisfy
    :func:`votes_decide`.
    """
    if not isinstance(certificate, CommitCertificate):
        return False
    body = certified_proposal(
        certificate.prepare, PreparePayload, expected_slot, selector, verify
    )
    if body is None:
        return False
    wanted_digest = body.request_digest()

    def matches(commit: Any) -> bool:
        if not isinstance(commit, CommitPayload):
            return False
        if commit.view != body.view or commit.slot != body.slot:
            return False
        embedded = commit.prepare
        return (
            isinstance(embedded, SignedMessage)
            and verify(embedded)
            and isinstance(embedded.payload, PreparePayload)
            and embedded.payload.request_digest() == wanted_digest
        )

    return votes_decide(certificate.commits, matches, body.view, selector, verify)


@wire_message(0x16, view=INT, slot_count=INT, state_digest=STR)
@dataclass(frozen=True)
class CheckpointPayload:
    """One member's vote that the state at ``slot_count`` digests to
    ``state_digest`` (log compaction)."""

    view: int
    slot_count: int
    state_digest: str

    def canonical(self):
        return ("checkpoint", self.view, self.slot_count, self.state_digest)


@wire_message(0x17, votes=tuple_of(VALUE))
@dataclass(frozen=True)
class CheckpointCertificate:
    """Signed CHECKPOINT votes of ``q`` members of one view's quorum.

    Once formed, every commit certificate before ``slot_count`` can be
    discarded: the snapshot whose digest the certificate pins replaces
    them in view-change state transfer.
    """

    votes: Tuple[SignedMessage, ...]

    @property
    def payload(self) -> "CheckpointPayload":
        return self.votes[0].payload

    def canonical(self):
        return ("checkpoint-certificate", tuple(canon(v) for v in self.votes))


def checkpoint_certificate_is_valid(
    certificate: "CheckpointCertificate", selector, verify
) -> bool:
    """All votes verify, agree on (view, slot_count, digest), and come
    from ``q`` members of the view's quorum."""
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
    return signers <= selector.quorum_of(reference.view) and len(signers) >= selector.q


@wire_message(
    0x18,
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
        return (
            "view-change",
            self.new_view,
            tuple(canon(cert) for cert in self.committed),
            tuple((slot, canon(sm)) for slot, sm in self.prepared),
            canon(self.checkpoint),
            self.snapshot,
        )


@wire_message(
    0x19, view=INT, committed=tuple_of(VALUE), checkpoint=VALUE, snapshot=_SNAPSHOT
)
@dataclass(frozen=True)
class NewViewPayload:
    """``NEW-VIEW(view, committed)`` from the new leader (certified)."""

    view: int
    committed: Tuple[CommitCertificate, ...]
    checkpoint: Optional["CheckpointCertificate"] = None
    snapshot: Optional[Tuple] = None

    def canonical(self):
        return (
            "new-view",
            self.view,
            tuple(canon(cert) for cert in self.committed),
            canon(self.checkpoint),
            self.snapshot,
        )


@wire_message(
    0x1A, client=INT, sequence=INT, result=VALUE, replica=INT, view=INT
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
