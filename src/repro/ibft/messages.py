"""IBFT wire payloads.

Unlike XPaxos — whose COMMIT embeds the full signed PREPARE — IBFT's
PREPARE and COMMIT are *votes*: small signed payloads carrying only the
round, slot, and batch digest.  That makes the normal case cheaper per
message but means a vote overtaking its PRE-PREPARE cannot be adopted
(there is nothing to adopt); the receiver parks the vote and expects
the PRE-PREPARE from the leader instead.

Client traffic reuses the protocol-neutral envelope from
:mod:`repro.xpaxos.messages` (``xp.request``/``xp.reply`` with
``ClientRequest``/``ReplyPayload``), so the existing clients, service
layer, and load generator drive either backend unchanged.  State
transfer and checkpoints are protocol-neutral too: ``ibft.roundchange``,
``ibft.newround`` and ``ibft.checkpoint`` carry the same
``ViewChangePayload`` / ``NewViewPayload`` / ``CheckpointPayload`` the
shared replica core exchanges under XPaxos' kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.util.wire_schema import (
    INT, STR, VALUE, register_kind_ids, tuple_of, wire_message,
)
from repro.xpaxos.messages import (
    ClientRequest, Proposal, canon, certified_proposal, votes_decide,
)

KIND_PREPREPARE = "ibft.preprepare"
KIND_PREPARE = "ibft.prepare"
KIND_COMMIT = "ibft.commit"
KIND_ROUNDCHANGE = "ibft.roundchange"
KIND_NEWROUND = "ibft.newround"
KIND_CHECKPOINT = "ibft.checkpoint"
register_kind_ids({
    KIND_PREPREPARE: 15, KIND_PREPARE: 16, KIND_COMMIT: 17, KIND_ROUNDCHANGE: 18, KIND_NEWROUND: 19,
    KIND_CHECKPOINT: 20,
})


class _RoundNumbered:
    """IBFT numbers decisions by ``round``; the shared replica core reads
    every normal-case message's decision number as ``view``."""

    @property
    def view(self) -> int:
        return self.round


@wire_message(0x1B, round=INT, slot=INT, signed_requests=tuple_of(VALUE))
@dataclass(frozen=True)
class PrePreparePayload(_RoundNumbered, Proposal):
    """``PRE-PREPARE(round, slot, signed_requests)`` from the round's leader."""

    label = "ibft-preprepare"

    round: int
    slot: int
    signed_requests: Tuple[SignedMessage, ...]  # client-signed ClientRequests


@wire_message(0x1C, round=INT, slot=INT, request_digest=STR)
@dataclass(frozen=True)
class IbftPreparePayload(_RoundNumbered):
    """``PREPARE(round, slot, digest)`` — a member's echo vote."""

    round: int
    slot: int
    request_digest: str

    def canonical(self):
        return ("ibft-prepare", self.round, self.slot, self.request_digest)


@wire_message(0x1D, round=INT, slot=INT, request_digest=STR)
@dataclass(frozen=True)
class IbftCommitPayload(_RoundNumbered):
    """``COMMIT(round, slot, digest)`` — a member's commit vote."""

    round: int
    slot: int
    request_digest: str

    def canonical(self):
        return ("ibft-commit", self.round, self.slot, self.request_digest)


@wire_message(0x1E, preprepare=VALUE, commits=tuple_of(VALUE))
@dataclass(frozen=True)
class IbftCommitCertificate:
    """Proof that one batch committed at one (round, slot).

    ``preprepare`` is the leader-signed PRE-PREPARE; ``commits`` are the
    signed, matching COMMIT votes of non-leader members of that round's
    quorum (the leader's commitment is the PRE-PREPARE itself, mirroring
    the XPaxos certificate shape).  Anyone can verify the certificate
    against the public round -> quorum mapping, so round-change state
    transfer cannot be poisoned by invented history.
    """

    preprepare: SignedMessage
    commits: Tuple[SignedMessage, ...]

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return self.preprepare.payload.requests

    def canonical(self):
        return (
            "ibft-commit-certificate",
            canon(self.preprepare),
            tuple(canon(c) for c in self.commits),
        )


def ibft_certificate_is_valid(
    certificate: IbftCommitCertificate,
    expected_slot: int,
    selector,
    verify,
) -> bool:
    """Check an IBFT commit certificate against the ``selector``'s mapping.

    Valid iff the PRE-PREPARE is a
    :func:`~repro.xpaxos.messages.certified_proposal` and the COMMIT
    votes for its digest satisfy
    :func:`~repro.xpaxos.messages.votes_decide`.
    """
    if not isinstance(certificate, IbftCommitCertificate):
        return False
    body = certified_proposal(
        certificate.preprepare, PrePreparePayload, expected_slot, selector, verify
    )
    if body is None:
        return False
    wanted = IbftCommitPayload(body.round, body.slot, body.request_digest())
    return votes_decide(
        certificate.commits, lambda vote: vote == wanted, body.round, selector, verify
    )


def vote_is_wellformed(vote: Any, payload_type: type) -> Optional[Any]:
    """The typed vote body if ``vote`` is a well-shaped signed vote, else None."""
    if not isinstance(vote, SignedMessage):
        return None
    body = vote.payload
    if not isinstance(body, payload_type):
        return None
    if not isinstance(body.round, int) or not isinstance(body.slot, int):
        return None
    if not isinstance(body.request_digest, str):
        return None
    return body
