"""An IBFT-style 3-phase protocol backend behind the QS interface (E29).

Istanbul BFT (Moniz, "The Istanbul BFT Consensus Algorithm") decides
each slot in three phases — the round's leader broadcasts a
``PRE-PREPARE``, members echo a ``PREPARE`` vote, and once *prepared*
everyone broadcasts a ``COMMIT`` vote — with a ``ROUND-CHANGE``
sub-protocol replacing a faulty round.  This package transplants that
shape into the paper's XFT setting:

- rounds map to leaders and quorums through the **shared** selectors
  (:mod:`repro.protocol.selector`), so a ``<QUORUM, ...>`` event from
  the unchanged Quorum / Follower Selection module drives IBFT round
  changes exactly like XPaxos view changes — the property the
  differential suite pins;
- a phase completes on the replica core's vote rule, ``q = n - f``
  matching votes of the round's quorum: inside an active quorum that is
  a vote from *every* member (XFT thresholds, not IBFT's ``2f + 1`` of
  ``3f + 1`` — the FD detects silent members, and the selection module
  replaces them); on selector ``all`` it is the PBFT-style "broadcast
  to all, proceed on ``n - f``" pattern;
- expectation issuing follows Section V-A under the backend's own FD
  group: accepting a PRE-PREPARE expects PREPAREs, becoming prepared
  expects COMMITs, a vote overtaking its PRE-PREPARE expects the
  PRE-PREPARE from the leader;
- everything rides the existing host-API contract, so the same replica
  runs unchanged on the simulator and the live asyncio runtime, and the
  unchanged client stack (``xp.request``/``xp.reply``) drives it.

See DESIGN.md §5.21 for the message tables and the delta from Istanbul
BFT proper.
"""

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
)
from repro.ibft.replica import IbftReplica

__all__ = [
    "KIND_PREPREPARE",
    "KIND_PREPARE",
    "KIND_COMMIT",
    "KIND_ROUNDCHANGE",
    "KIND_NEWROUND",
    "KIND_CHECKPOINT",
    "PrePreparePayload",
    "IbftPreparePayload",
    "IbftCommitPayload",
    "IbftCommitCertificate",
    "ibft_certificate_is_valid",
    "IbftReplica",
]
