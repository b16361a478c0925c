"""The star vote phase: leader-centric agreement on the shared replica core.

Normal case in a view with quorum ``Q`` and its leader:

1. the leader assigns the next slot to a batch of client requests and
   sends a signed ``PROPOSE`` to each follower;
2. each follower verifies the batch and answers ``ACK(view, slot,
   digest)`` *to the leader only*, then expects the matching ``DECIDE``;
3. once the ACKs meet the core's vote rule (``q`` members agree, the
   PROPOSE counting as the leader's vote — every follower when
   ``|Q| = q``) the leader sends ``DECIDE`` carrying its signed PROPOSE
   plus the signed ACKs: the slot's commit certificate.  A follower
   checks it like anyone could, and executes in slot order.

That is ``3 (q - 1)`` messages per decision, each with the leader as an
endpoint: follower-follower omissions cannot matter, which is exactly
the *no leader suspicion* property Follower Selection (``fs``) keeps.

Expectations follow Section V-A on the star's links: the leader expects
an ACK from every follower it PROPOSEd to, a follower that ACKed expects
the DECIDE.  Everything else — intake, batching, execution, checkpoints,
certified state transfer on reconfiguration — is :class:`ReplicaCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.protocol.backend import ProtocolBackend, register_backend
from repro.protocol.replica import ReplicaCore, SlotState
from repro.util.ids import ProcessId
from repro.util.wire_schema import INT, STR, VALUE, register_kind_ids, tuple_of, wire_message
from repro.xpaxos.messages import (
    ClientRequest, Proposal, canon, certified_proposal, votes_decide,
)

KIND_PROPOSE = "st.propose"
KIND_ACK = "st.ack"
KIND_DECIDE = "st.decide"
KIND_RECONFIGURE = "st.reconfigure"
KIND_NEWCONFIG = "st.newconfig"
KIND_CHECKPOINT = "st.checkpoint"
register_kind_ids({
    KIND_PROPOSE: 21, KIND_ACK: 22, KIND_DECIDE: 23, KIND_RECONFIGURE: 24,
    KIND_NEWCONFIG: 25, KIND_CHECKPOINT: 26,
})


# Tags 0x1F and 0x20 are retired (IBFT's former round-change payloads).
@wire_message(0x21, view=INT, slot=INT, signed_requests=tuple_of(VALUE))
@dataclass(frozen=True)
class ProposePayload(Proposal):
    """``PROPOSE(view, slot, signed_requests)`` from the view's leader."""

    label = "st-propose"

    view: int
    slot: int
    signed_requests: Tuple[SignedMessage, ...]  # client-signed ClientRequests


@wire_message(0x22, view=INT, slot=INT, request_digest=STR)
@dataclass(frozen=True)
class AckPayload:
    """``ACK(view, slot, digest)`` — a follower's vote, sent to the leader."""

    view: int
    slot: int
    request_digest: str

    def canonical(self):
        return ("st-ack", self.view, self.slot, self.request_digest)


@wire_message(0x23, view=INT, slot=INT, propose=VALUE, acks=tuple_of(VALUE))
@dataclass(frozen=True)
class DecidePayload:
    """``DECIDE(view, slot, propose, acks)`` from the leader — and, without
    the envelope, the slot's commit certificate: the leader-signed
    PROPOSE and the followers' signed ACKs for its digest."""

    view: int
    slot: int
    propose: SignedMessage
    acks: Tuple[SignedMessage, ...]

    @property
    def requests(self) -> Tuple[ClientRequest, ...]:
        return self.propose.payload.requests

    def canonical(self):
        return ("st-decide", self.view, self.slot,
                canon(self.propose), tuple(canon(a) for a in self.acks))


def star_certificate_is_valid(certificate, expected_slot: int, selector, verify) -> bool:
    """A certified PROPOSE plus ACKs for its digest that meet the vote rule."""
    if not isinstance(certificate, DecidePayload):
        return False
    body = certified_proposal(
        certificate.propose, ProposePayload, expected_slot, selector, verify
    )
    if body is None or (certificate.view, certificate.slot) != (body.view, body.slot):
        return False
    wanted = AckPayload(body.view, body.slot, body.request_digest())
    return votes_decide(
        certificate.acks, lambda ack: ack == wanted, body.view, selector, verify
    )


@dataclass
class StarSlotState(SlotState):
    acks: Dict[int, SignedMessage] = field(default_factory=dict)  # leader only
    certificate: Optional[DecidePayload] = None


class StarReplica(ReplicaCore):
    """One member of the star-replicated service."""

    prefix = "st"
    term = "view"
    fd_group = "star"
    kind_proposal = KIND_PROPOSE
    kind_viewchange = KIND_RECONFIGURE
    kind_newview = KIND_NEWCONFIG
    kind_checkpoint = KIND_CHECKPOINT
    vote_kinds = (KIND_ACK, KIND_DECIDE)
    proposal_type = ProposePayload
    slot_state = StarSlotState
    certificate_is_valid = staticmethod(star_certificate_is_valid)

    def _proposal_accepted(self, state: StarSlotState, body: ProposePayload) -> None:
        if self.is_leader:
            self._expect_votes(KIND_ACK, AckPayload, body.view, body.slot, state.acks)
            self._maybe_decide(body.slot, state)
        else:
            ack = AckPayload(body.view, body.slot, state.request_digest)
            self.host.send(self.leader, KIND_ACK, self.host.authenticator.sign(ack))
            self._expect(self.leader, KIND_DECIDE, DecidePayload, body.view, body.slot)

    def _on_ack(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, AckPayload)
        if body is None or not self._is_current(body) or not self.is_leader:
            return
        state = self.slots.get(body.slot)
        if state is None or payload.signer not in self.quorum:
            return
        if body.request_digest == state.request_digest:
            state.acks.setdefault(payload.signer, payload)
            self._maybe_decide(body.slot, state)

    def _maybe_decide(self, slot: int, state: StarSlotState) -> None:
        if state.committed or not self._quorate(len(state.acks)):
            return
        acks = tuple(ack for _, ack in sorted(state.acks.items()))
        state.certificate = DecidePayload(self.view, slot, state.proposal, acks)
        decide = self.host.authenticator.sign(state.certificate)
        for member in sorted(self.quorum - {self.pid}):
            self.host.send(member, KIND_DECIDE, decide)
        self._decide(slot, state)

    def _on_decide(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, DecidePayload)
        if body is None or not self._is_current(body) or payload.signer != self.leader:
            return
        state = self._slot(body.slot)
        if state.committed:
            return
        if not star_certificate_is_valid(body, body.slot, self.selector, self._verify):
            self._detect(self.leader, "invalid-decide-certificate")
            return
        request_digest = body.propose.payload.request_digest()
        if state.proposal is None:
            # The DECIDE overtook (or replaces a lost) PROPOSE: it is
            # certified, so there is nothing left to vote on.
            self._hold(state, body.propose, request_digest)
        elif state.request_digest != request_digest:
            self._detect(self.leader, "propose-equivocation")
            return
        state.certificate = body
        self._decide(body.slot, state)

    def _certificate_for(self, state: StarSlotState) -> DecidePayload:
        return state.certificate


class StarBackend(ProtocolBackend):
    """Leader-centric PROPOSE / ACK / DECIDE (Sec. VIII's application)."""

    name = "star"
    replica_class = StarReplica

    def analytic_messages_per_decision(self, quorum_size: int) -> int:
        # One PROPOSE, one ACK and one DECIDE on each of the q-1 spokes.
        return 3 * (quorum_size - 1)


register_backend(StarBackend())
