"""Protocol-neutral interface between ``repro.core`` and BFT backends (E29).

The paper positions Quorum Selection and Follower Selection as modules
*any* leader-centric BFT protocol can consume.  This package makes that
boundary executable:

- :mod:`repro.protocol.selector` — the :class:`Selector` contract and
  its four registered implementations (``qs``, ``enum``, ``fs``,
  ``all``).  A protocol's decision number (XPaxos *view*, IBFT *round*)
  maps to a leader and a quorum through the selector's public
  enumeration, so two backends fed the same selection output adopt the
  same leader and quorum.
- :mod:`repro.protocol.backend` — the :class:`ProtocolBackend` contract
  (replica construction, observation, message-cost accounting) and the
  registry behind every ``--protocol`` switch.
- :mod:`repro.protocol.replica` — :class:`ReplicaCore`, the replica
  every backend subclasses: intake, batching, execution, checkpoints
  and decision changes exist once; a backend adds its vote phase.
- :mod:`repro.protocol.system` — :func:`build_backend_system`, the one
  place that wires failure detector, heartbeats, selector, replica and
  clients into a simulation, for any backend on any selector.

Backends register lazily: importing this package never imports a
protocol implementation, so ``repro.core`` stays free of protocol
dependencies while ``repro.xpaxos``/``repro.ibft`` may freely import
this package.
"""

from repro.protocol.backend import (
    ProtocolBackend,
    ReplicaStatus,
    backend_names,
    get_backend,
    register_backend,
)
from repro.protocol.selector import SELECTORS, Selector, make_selector

__all__ = [
    "ProtocolBackend",
    "ReplicaStatus",
    "backend_names",
    "get_backend",
    "register_backend",
    "SELECTORS",
    "Selector",
    "make_selector",
]
