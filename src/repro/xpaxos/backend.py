"""XPaxos as a :class:`~repro.protocol.backend.ProtocolBackend` (E29).

The adapter owns no protocol logic — it names the replica class, the
wire kinds and the closed-form message cost so worlds, nodes, and
benchmarks select :mod:`repro.xpaxos.replica` by name.
"""

from __future__ import annotations

from repro.protocol.backend import ProtocolBackend, register_backend
from repro.xpaxos.messages import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_NEWVIEW,
    KIND_PREPARE,
    KIND_VIEWCHANGE,
)
from repro.xpaxos.replica import XPaxosReplica


class XPaxosBackend(ProtocolBackend):
    """XFT 2-phase agreement in the active quorum (Figs. 2-3)."""

    name = "xpaxos"
    decision_term = XPaxosReplica.term
    fd_group = XPaxosReplica.fd_group
    replica_class = XPaxosReplica
    replica_kinds = (
        KIND_PREPARE,
        KIND_COMMIT,
        KIND_VIEWCHANGE,
        KIND_NEWVIEW,
        KIND_CHECKPOINT,
    )

    def analytic_messages_per_decision(self, quorum_size: int) -> int:
        # PREPARE to q-1 members, then each of the q-1 non-leader members
        # COMMITs to its q-1 peers: (q-1) + (q-1)^2 = q(q-1).
        return quorum_size * (quorum_size - 1)


register_backend(XPaxosBackend())
