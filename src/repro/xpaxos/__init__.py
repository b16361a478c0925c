"""A from-scratch XPaxos substrate with the paper's FD integration (Sec. V).

XPaxos (Liu et al., OSDI'16) tolerates ``f`` arbitrary faults with only
``n = 2f + 1`` replicas in the XFT model by running normal-case agreement
inside an *active quorum* of ``q = n - f`` replicas (Figure 2) and
changing the quorum (a view change) on failure.  This package provides:

- the normal-case protocol, including the paper's three integration
  subtleties: COMMIT embeds the signed PREPARE (equivocation becomes
  detectable), a COMMIT arriving before its PREPARE triggers an
  expectation for the PREPARE plus an own COMMIT (Figure 3), and no
  expectation is issued for a process whose COMMIT already arrived;
- expectation wiring into :class:`repro.fd.FailureDetector` exactly as
  Section V-A prescribes;
- view changes, with the view <-> quorum mapping of Section V-B
  (lexicographic enumeration of all ``C(n, f)`` quorums, round-robin), so
  a ``<QUORUM, Q>`` from Quorum Selection "suspects all quorums ordered
  before Q";
- the two quorum policies under comparison, as selectors of
  :mod:`repro.protocol.selector`: ``enum`` (XPaxos' original
  try-them-all) and ``qs`` (driven by this paper's Quorum Selection);
- clients and a by-mode system builder for end-to-end experiments.
"""

from repro.xpaxos.messages import (
    ClientRequest,
    PreparePayload,
    CommitPayload,
    ViewChangePayload,
    NewViewPayload,
    ReplyPayload,
    KIND_REQUEST,
    KIND_PREPARE,
    KIND_COMMIT,
    KIND_VIEWCHANGE,
    KIND_NEWVIEW,
    KIND_REPLY,
)
from repro.xpaxos.state_machine import BankLedger, KeyValueStore, StateMachine
from repro.protocol.enumeration import (
    quorum_for_view,
    view_for_quorum,
    rank_of_quorum,
    total_quorums,
)
from repro.xpaxos.replica import XPaxosReplica
from repro.xpaxos.client import XPaxosClient
from repro.xpaxos.system import build_system

__all__ = [
    "ClientRequest",
    "PreparePayload",
    "CommitPayload",
    "ViewChangePayload",
    "NewViewPayload",
    "ReplyPayload",
    "KIND_REQUEST",
    "KIND_PREPARE",
    "KIND_COMMIT",
    "KIND_VIEWCHANGE",
    "KIND_NEWVIEW",
    "KIND_REPLY",
    "KeyValueStore",
    "BankLedger",
    "StateMachine",
    "quorum_for_view",
    "view_for_quorum",
    "rank_of_quorum",
    "total_quorums",
    "XPaxosReplica",
    "XPaxosClient",
    "build_system",
]
