"""Protocol-neutral interface between ``repro.core`` and BFT backends (E29).

The paper positions Quorum Selection as a module *any* leader-centric
BFT protocol can consume.  This package makes that boundary executable:

- :mod:`repro.protocol.policy` — the quorum policies (enumeration vs.
  QS-driven selection) shared by every backend.  A protocol's decision
  number (XPaxos *view*, IBFT *round*) maps to a quorum through the same
  public enumeration, so two backends fed the same QS output adopt the
  same quorum.
- :mod:`repro.protocol.backend` — the :class:`ProtocolBackend` contract
  (replica construction, observation, message-cost accounting) and the
  registry behind every ``--protocol xpaxos|ibft`` switch.
- :mod:`repro.protocol.replica` — :class:`ReplicaCore`, the replica
  every backend subclasses: intake, batching, execution, checkpoints
  and decision changes exist once; a backend adds its vote phase.
- :mod:`repro.protocol.system` — a backend-parametrized twin of
  :func:`repro.xpaxos.system.build_system` used by the conformance
  suite and the head-to-head benchmark.

Backends register lazily: importing this package never imports a
protocol implementation, so ``repro.core`` stays free of protocol
dependencies while ``repro.xpaxos``/``repro.ibft`` may freely import
this package.
"""

from repro.protocol.backend import (
    BACKEND_NAMES,
    ProtocolBackend,
    ReplicaStatus,
    backend_names,
    get_backend,
    register_backend,
)
from repro.protocol.policy import EnumerationPolicy, QuorumPolicy, SelectionPolicy

__all__ = [
    "BACKEND_NAMES",
    "ProtocolBackend",
    "ReplicaStatus",
    "backend_names",
    "get_backend",
    "register_backend",
    "EnumerationPolicy",
    "QuorumPolicy",
    "SelectionPolicy",
]
