"""The IBFT vote phase (3-phase digest votes) on the shared replica core.

Normal case in round ``r`` with quorum ``Q`` and its leader:

1. the leader assigns the next slot to a batch of client requests and
   sends a signed ``PRE-PREPARE`` to the quorum (the PRE-PREPARE doubles
   as the leader's PREPARE *and* COMMIT, mirroring the XPaxos pattern);
2. members verify the batch and broadcast a ``PREPARE`` vote (round,
   slot, batch digest) to the quorum;
3. once matching PREPAREs meet the core's vote rule a member is
   *prepared* and broadcasts a ``COMMIT`` vote;
4. a slot commits at a member once matching COMMITs meet the rule, and
   executes in slot order.

The rule is ``q = n - f`` matching votes of quorum members.  Inside an
active quorum (``|Q| = q``) that is XFT-style — every member, not
IBFT's ``2f + 1`` of ``3f + 1``: all members must cooperate for
progress, the failure detector notices the ones that do not, and the
selection module replaces them, exactly the division of labour the
paper prescribes for XPaxos.  On the ``all`` selector (``Q = Π``) the
same code is the classic pattern the paper's introduction starts from:
broadcast to all ``n``, proceed on ``n - f`` replies.

Failure-detector integration follows Section V-A under the backend's own
expectation group: accepting a PRE-PREPARE expects PREPAREs from members
whose vote has not already arrived; becoming prepared expects COMMITs
likewise; a vote overtaking its PRE-PREPARE cannot be adopted (votes
carry only the digest) so the receiver parks it and expects the
PRE-PREPARE from the leader.

Everything else — intake, batching, execution, checkpoints, round
changes (``ROUND-CHANGE``/``NEW-ROUND`` carry the shared state-transfer
payloads under IBFT's kinds) — is :class:`ReplicaCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto.authenticator import SignedMessage
from repro.ibft.messages import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_NEWROUND,
    KIND_PREPARE,
    KIND_PREPREPARE,
    KIND_ROUNDCHANGE,
    IbftCommitCertificate,
    IbftCommitPayload,
    IbftPreparePayload,
    PrePreparePayload,
    ibft_certificate_is_valid,
    vote_is_wellformed,
)
from repro.protocol.replica import ReplicaCore, SlotState
from repro.util.ids import ProcessId


@dataclass
class RoundSlotState(SlotState):
    """Votes are indexed by signer; digest matching happens at threshold
    time (a vote may arrive before the PRE-PREPARE that defines the
    digest, and a mismatching vote must simply never count)."""

    prepare_votes: Dict[int, SignedMessage] = field(default_factory=dict)
    commit_votes: Dict[int, SignedMessage] = field(default_factory=dict)
    preprepare_expected: bool = False
    prepared: bool = False


class IbftReplica(ReplicaCore):
    """One IBFT replica (process ids ``1..n`` are replicas)."""

    prefix = "ibft"
    term = "round"
    fd_group = "ibft"
    kind_proposal = KIND_PREPREPARE
    kind_viewchange = KIND_ROUNDCHANGE
    kind_newview = KIND_NEWROUND
    kind_checkpoint = KIND_CHECKPOINT
    vote_kinds = (KIND_PREPARE, KIND_COMMIT)
    proposal_type = PrePreparePayload
    slot_state = RoundSlotState
    certificate_is_valid = staticmethod(ibft_certificate_is_valid)

    def _cast(self, kind: str, vote: Any, votes: Dict[int, SignedMessage]) -> None:
        """Members vote; the leader's PRE-PREPARE is its vote in both phases."""
        if not self.is_leader:
            signed = self.host.authenticator.sign(vote)
            votes[self.pid] = signed
            for member in sorted(self.quorum - {self.pid}):
                self.host.send(member, kind, signed)

    def _proposal_accepted(self, state: RoundSlotState, body: PrePreparePayload) -> None:
        self._cast(
            KIND_PREPARE,
            IbftPreparePayload(body.round, body.slot, state.request_digest),
            state.prepare_votes,
        )
        self._expect_votes(
            KIND_PREPARE, IbftPreparePayload, body.round, body.slot, state.prepare_votes
        )
        self._maybe_prepared(body.slot)

    def _voted_slot(self, payload: Any, vote_type: type) -> Optional[RoundSlotState]:
        """The slot a well-formed member vote of this round is for, else ``None``."""
        body = vote_is_wellformed(payload, vote_type)
        if body is None or (self.host.fd is None and not self._verify(payload)):
            return None
        # The leader never votes: its PRE-PREPARE is the vote.
        if (
            not self._is_current(body)
            or payload.signer not in self.quorum
            or payload.signer == self.leader
        ):
            return None
        state = self._slot(body.slot)
        if state.proposal is None and not state.preprepare_expected:
            # The vote overtook the leader's PRE-PREPARE: nothing to
            # adopt (votes carry only the digest) — expect the original.
            state.preprepare_expected = True
            self._expect(self.leader, KIND_PREPREPARE, PrePreparePayload,
                         body.round, body.slot)
        return state

    def _on_prepare(self, kind: str, payload: Any, src: ProcessId) -> None:
        state = self._voted_slot(payload, IbftPreparePayload)
        if state is not None:
            state.prepare_votes.setdefault(payload.signer, payload)
            self._maybe_prepared(payload.payload.slot)

    def _on_commit(self, kind: str, payload: Any, src: ProcessId) -> None:
        state = self._voted_slot(payload, IbftCommitPayload)
        if state is not None:
            state.commit_votes.setdefault(payload.signer, payload)
            self._maybe_commit(payload.payload.slot)

    def _enough(self, votes: Dict[int, SignedMessage], state: RoundSlotState) -> bool:
        """Other members' votes matching the digest meet the vote rule."""
        return self._quorate(sum(
            vote.payload.request_digest == state.request_digest
            for member, vote in votes.items() if member != self.pid
        ))

    def _maybe_prepared(self, slot: int) -> None:
        state = self._slot(slot)
        if state.prepared or state.proposal is None:
            return
        if not self._enough(state.prepare_votes, state):
            return
        state.prepared = True
        self._cast(
            KIND_COMMIT,
            IbftCommitPayload(self.view, slot, state.request_digest),
            state.commit_votes,
        )
        self._expect_votes(
            KIND_COMMIT, IbftCommitPayload, self.view, slot, state.commit_votes
        )
        self._maybe_commit(slot)

    def _maybe_commit(self, slot: int) -> None:
        state = self._slot(slot)
        if state.committed or not state.prepared:
            return
        if self._enough(state.commit_votes, state):
            self._decide(slot, state)

    def _certificate_for(self, state: RoundSlotState) -> IbftCommitCertificate:
        """The matching commit votes of non-leader members (the replica's
        own vote is recorded when sent); the leader's commitment is the
        PRE-PREPARE itself."""
        commits = tuple(
            vote for _, vote in sorted(state.commit_votes.items())
            if vote.payload.request_digest == state.request_digest
        )
        return IbftCommitCertificate(preprepare=state.proposal, commits=commits)
