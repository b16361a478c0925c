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
from repro.crypto.digests import digest
from repro.util.wire_schema import (
    INT, STR, VALUE, register_kind_ids, tuple_of, wire_message,
)
from repro.xpaxos.messages import ClientRequest, is_client_request

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


def _enc(value: Any) -> Any:
    return value.canonical() if hasattr(value, "canonical") else value


class _RoundNumbered:
    """IBFT numbers decisions by ``round``; the shared replica core reads
    every normal-case message's decision number as ``view``."""

    @property
    def view(self) -> int:
        return self.round


@wire_message(0x1B, "__ipp__", round=INT, slot=INT, signed_requests=tuple_of(VALUE))
@dataclass(frozen=True)
class PrePreparePayload(_RoundNumbered):
    """``PRE-PREPARE(round, slot, signed_requests)`` from the round's leader.

    ``signed_requests`` is a batch of client-signed request envelopes;
    members verify every client signature before voting, so a leader
    cannot fabricate operations (a forged request is a provable
    commission failure).
    """

    round: int
    slot: int
    signed_requests: Tuple[SignedMessage, ...]  # client-signed ClientRequests

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return tuple(sm.payload for sm in self.signed_requests)

    def canonical(self):
        return (
            "ibft-preprepare", self.round, self.slot,
            tuple(_enc(sm) for sm in self.signed_requests),
        )

    def request_digest(self) -> str:
        return digest(self.canonical())


@wire_message(0x1C, "__iprep__", round=INT, slot=INT, request_digest=STR)
@dataclass(frozen=True)
class IbftPreparePayload(_RoundNumbered):
    """``PREPARE(round, slot, digest)`` — a member's echo vote."""

    round: int
    slot: int
    request_digest: str

    def canonical(self):
        return ("ibft-prepare", self.round, self.slot, self.request_digest)


@wire_message(0x1D, "__icommit__", round=INT, slot=INT, request_digest=STR)
@dataclass(frozen=True)
class IbftCommitPayload(_RoundNumbered):
    """``COMMIT(round, slot, digest)`` — a member's commit vote."""

    round: int
    slot: int
    request_digest: str

    def canonical(self):
        return ("ibft-commit", self.round, self.slot, self.request_digest)


@wire_message(0x1E, "__icert__", preprepare=VALUE, commits=tuple_of(VALUE))
@dataclass(frozen=True)
class IbftCommitCertificate:
    """Proof that one batch committed at one (round, slot).

    ``preprepare`` is the leader-signed PRE-PREPARE; ``commits`` are the
    signed COMMIT votes of every non-leader member of that round's
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
            _enc(self.preprepare),
            tuple(_enc(c) for c in self.commits),
        )


def ibft_certificate_is_valid(
    certificate: IbftCommitCertificate,
    expected_slot: int,
    quorum_of,
    verify,
) -> bool:
    """Check an IBFT commit certificate.

    ``quorum_of(round)`` returns the round's quorum; ``verify`` checks
    signatures.  Valid iff: the PRE-PREPARE is signed by the round's
    leader for ``expected_slot`` and embeds only client-signed requests;
    every non-leader quorum member contributed a signed COMMIT vote
    whose digest matches the PRE-PREPARE.
    """
    if not isinstance(certificate, IbftCommitCertificate):
        return False
    preprepare = certificate.preprepare
    if not isinstance(preprepare, SignedMessage) or not verify(preprepare):
        return False
    body = preprepare.payload
    if not isinstance(body, PrePreparePayload) or body.slot != expected_slot:
        return False
    if not body.signed_requests:
        return False
    if not all(is_client_request(inner, verify) for inner in body.signed_requests):
        return False
    quorum = quorum_of(body.round)
    if preprepare.signer != min(quorum):
        return False
    wanted_digest = body.request_digest()
    signers = set()
    for commit in certificate.commits:
        if not isinstance(commit, SignedMessage) or not verify(commit):
            return False
        vote = commit.payload
        if not isinstance(vote, IbftCommitPayload):
            return False
        if vote.round != body.round or vote.slot != body.slot:
            return False
        if vote.request_digest != wanted_digest:
            return False
        if commit.signer not in quorum or commit.signer == preprepare.signer:
            return False
        signers.add(commit.signer)
    return signers == quorum - {preprepare.signer}


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
