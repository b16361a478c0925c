"""The XPaxos vote phase (Figs. 2-3) on the shared replica core.

Normal case in view ``v`` with active quorum ``Q`` and its leader
(Figure 2):

1. the leader assigns the next slot to a client request and sends a
   signed ``PREPARE`` to the quorum;
2. quorum members send a ``COMMIT`` — embedding the signed PREPARE — to
   every other quorum member;
3. a request commits at a member once the core's vote rule is met —
   with ``|Q| = q``: it holds the PREPARE plus COMMITs from every other
   member (the leader's PREPARE doubles as its COMMIT, matching the
   Figure 2 message pattern) — and executes in slot order.

Failure-detector integration follows Section V-A, with the paper's three
subtleties: on receiving/sending a PREPARE, expect a COMMIT from every
other quorum member *except those whose COMMIT already arrived*; a COMMIT
whose embedded PREPARE is missing/invalid makes the *sender* detectable,
and one embedding a *different* validly-signed PREPARE proves leader
equivocation; a COMMIT arriving before its PREPARE (Figure 3) makes the
process adopt the embedded PREPARE, send its own COMMIT, and expect the
PREPARE from the leader.

Everything else — intake, batching, execution, checkpoints, view changes
over the Section V-B enumeration — is :class:`ReplicaCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto.authenticator import SignedMessage
from repro.protocol.replica import ReplicaCore, SlotState as CoreSlotState
from repro.util.ids import ProcessId
from repro.xpaxos.messages import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_NEWVIEW,
    KIND_PREPARE,
    KIND_VIEWCHANGE,
    CommitCertificate,
    CommitPayload,
    PreparePayload,
    certificate_is_valid,
    commit_is_malformed,
)


@dataclass
class SlotState(CoreSlotState):
    """``commit_messages`` keeps the *signed* COMMITs (digest-matching
    only) so that a commit certificate — prepare plus every non-leader
    member's COMMIT — can be assembled for view-change state transfer."""

    commit_messages: Dict[int, SignedMessage] = field(default_factory=dict)
    own_commit: Optional[SignedMessage] = None


class XPaxosReplica(ReplicaCore):
    """One XPaxos replica (process ids ``1..n`` are replicas)."""

    prefix = "xp"
    term = "view"
    fd_group = "xpaxos"
    kind_proposal = KIND_PREPARE
    kind_viewchange = KIND_VIEWCHANGE
    kind_newview = KIND_NEWVIEW
    kind_checkpoint = KIND_CHECKPOINT
    vote_kinds = (KIND_COMMIT,)
    proposal_type = PreparePayload
    slot_state = SlotState
    certificate_is_valid = staticmethod(certificate_is_valid)

    def _proposal_accepted(self, state: SlotState, body: PreparePayload) -> None:
        self._expect_votes(
            KIND_COMMIT, CommitPayload, body.view, body.slot, state.commit_messages
        )
        if not self.is_leader:  # the PREPARE is the leader's commit
            commit = self.host.authenticator.sign(
                CommitPayload(view=body.view, slot=body.slot, prepare=state.proposal)
            )
            state.own_commit = commit
            for member in sorted(self.quorum - {self.pid}):
                self.host.send(member, KIND_COMMIT, commit)
        self._maybe_commit(body.slot)

    def _on_commit(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, CommitPayload)
        if body is None or not self._is_current(body):
            return
        sender = payload.signer
        if sender not in self.quorum or sender == self.leader:
            return
        reason = commit_is_malformed(body, self._verify)
        if reason is not None:
            # Correctly authenticated COMMIT without a valid embedded
            # PREPARE: the sender is provably faulty (Section V-A).
            self._detect(sender, f"malformed-commit:{reason}")
            return
        if body.prepare.signer != self.leader:
            self._detect(sender, "commit-wrong-leader")
            return
        state = self._slot(body.slot)
        if state.proposal is None:
            # Figure 3: the COMMIT overtook the leader's PREPARE.  Record
            # the sender's commit *first* (subtlety #1: no expectation may
            # be issued for a process whose COMMIT already arrived), then
            # adopt the embedded PREPARE, commit ourselves, and expect the
            # leader's copy.
            state.commit_messages[sender] = payload
            self._expect(self.leader, KIND_PREPARE, PreparePayload, body.view, body.slot)
            self._accept_proposal(body.prepare, body.prepare.payload)
        elif state.request_digest != body.prepare.payload.request_digest():
            # Embedded PREPARE differs from ours: both are leader-signed,
            # so the leader equivocated.
            self._detect(self.leader, "prepare-equivocation")
            return
        else:
            state.commit_messages[sender] = payload
        self._maybe_commit(body.slot)

    def _maybe_commit(self, slot: int) -> None:
        state = self._slot(slot)
        if state.committed or state.proposal is None:
            return
        if self._quorate(len(state.commit_messages)):
            self._decide(slot, state)

    def _certificate_for(self, state: SlotState) -> CommitCertificate:
        """The COMMITs received from non-leader members; when this replica
        is a follower its own (signed) COMMIT completes the set — the
        leader's commitment is the PREPARE itself."""
        commits = [
            state.commit_messages[member]
            for member in sorted(state.commit_messages)
            if member in self.quorum
        ]
        if state.own_commit is not None:
            commits.append(state.own_commit)
        return CommitCertificate(prepare=state.proposal, commits=tuple(commits))
