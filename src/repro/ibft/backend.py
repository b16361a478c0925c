"""IBFT as a :class:`~repro.protocol.backend.ProtocolBackend` (E29)."""

from __future__ import annotations

from repro.ibft.replica import IbftReplica
from repro.protocol.backend import ProtocolBackend, register_backend


class IbftBackend(ProtocolBackend):
    """Istanbul-style 3-phase agreement among a quorum's members."""

    name = "ibft"
    replica_class = IbftReplica

    def analytic_messages_per_decision(self, quorum_size: int) -> int:
        # PRE-PREPARE to q-1 members, q-1 PREPARE broadcasts to q-1
        # peers each, q-1 COMMIT broadcasts likewise:
        # (q-1) + 2(q-1)^2 = (q-1)(2q-1).
        return (quorum_size - 1) * (2 * quorum_size - 1)


register_backend(IbftBackend())
