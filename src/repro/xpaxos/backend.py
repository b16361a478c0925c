"""XPaxos as a :class:`~repro.protocol.backend.ProtocolBackend` (E29).

The adapter owns no protocol logic — it names the replica class and the
closed-form message cost so worlds, nodes, and benchmarks select
:mod:`repro.xpaxos.replica` by name.
"""

from __future__ import annotations

from repro.protocol.backend import ProtocolBackend, register_backend
from repro.xpaxos.replica import XPaxosReplica


class XPaxosBackend(ProtocolBackend):
    """XFT 2-phase agreement in the active quorum (Figs. 2-3)."""

    name = "xpaxos"
    replica_class = XPaxosReplica

    def analytic_messages_per_decision(self, quorum_size: int) -> int:
        # PREPARE to q-1 members, then each of the q-1 non-leader members
        # COMMITs to its q-1 peers: (q-1) + (q-1)^2 = q(q-1).
        return quorum_size * (quorum_size - 1)


register_backend(XPaxosBackend())
