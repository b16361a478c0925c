"""The :class:`ProtocolBackend` contract and registry (E29 tentpole).

A backend packages everything the runtimes need to run one BFT protocol
on top of the shared substrate — the QS module, suspicion matrix,
failure detector, crypto, and both host runtimes stay protocol-free:

- **quorum adoption**: the backend's replica consumes ``<QUORUM, ...>``
  events through a :class:`~repro.protocol.selector.Selector`, mapping
  selection output to its own decision numbers (views/rounds) over the
  shared enumeration;
- **epoch/decision hooks**: :meth:`ProtocolBackend.observe` reduces a
  replica to a :class:`ReplicaStatus` so the node runtime, cluster
  harness, and benchmarks read one shape regardless of protocol;
- **expectation issuing**: each backend registers its FD expectations
  under its own group (:attr:`ProtocolBackend.fd_group`) so the
  detector can cancel exactly one protocol's expectations on a
  decision change;
- **message-cost accounting**: :attr:`ProtocolBackend.replica_kinds`
  names the inter-replica wire kinds (read off the replica class), and
  :meth:`ProtocolBackend.message_costs` reduces a
  :class:`~repro.sim.tracing.MessageStats` to per-kind and per-decision
  counts — the currency of the paper's ~1/3 and ~1/2 savings claims.

Backends self-register at import time via :func:`register_backend`;
:func:`get_backend` lazily imports the built-in modules so this package
never depends on a protocol implementation.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.protocol.selector import as_selector
from repro.util.errors import ConfigurationError

#: Built-in backends, resolved lazily on first :func:`get_backend` call.
_BUILTIN_MODULES: Dict[str, str] = {
    "xpaxos": "repro.xpaxos.backend",
    "ibft": "repro.ibft.backend",
    "star": "repro.leadercentric.star",
}

_REGISTRY: Dict[str, "ProtocolBackend"] = {}


@dataclass(frozen=True)
class ReplicaStatus:
    """One replica reduced to the protocol-neutral observable facts.

    ``decision_number`` is the protocol's own counter — XPaxos view,
    IBFT round — and always maps to ``quorum``/``leader`` through the
    replica's selector, so on one selector equal decision numbers mean
    equal leaders and quorums across backends.
    """

    protocol: str
    decision_number: int
    quorum: FrozenSet[int]
    leader: int
    status: str
    commits: int
    decision_changes: int
    executed: int
    checkpoints: int


class ProtocolBackend:
    """One BFT protocol behind the shared QS/FD/crypto substrate."""

    #: Registry name (the ``--protocol`` value).
    name: str = "?"
    #: The :class:`~repro.protocol.replica.ReplicaCore` subclass to run.
    replica_class: type

    @property
    def decision_term(self) -> str:
        """The protocol's decision-number vocabulary ("view" or "round")."""
        return self.replica_class.term

    @property
    def fd_group(self) -> str:
        """FD expectation group used by this backend's replicas."""
        return self.replica_class.fd_group

    @property
    def replica_kinds(self) -> Tuple[str, ...]:
        """Inter-replica wire kinds (client-facing kinds excluded)."""
        return self.replica_class.wire_kinds()

    # ------------------------------------------------------------ construction

    def build_replica(
        self,
        host: Any,
        n: int,
        f: int,
        selector: Optional[Any] = None,
        *,
        batch_size: int = 1,
        batch_window: float = 0.0,
        checkpoint_interval: Optional[int] = None,
        state_machine: Optional[Any] = None,
    ) -> Any:
        """Create (and ``host.add_module``) this protocol's replica.

        ``selector`` is a :class:`~repro.protocol.selector.Selector`, or
        anything :func:`~repro.protocol.selector.as_selector` turns into
        one (a Quorum Selection module; ``None`` for plain enumeration).
        """
        return host.add_module(
            self.replica_class(
                host, n=n, f=f, selector=as_selector(selector, n, f),
                batch_size=batch_size, batch_window=batch_window,
                checkpoint_interval=checkpoint_interval,
                state_machine=state_machine,
            )
        )

    # ------------------------------------------------------------- observation

    def observe(self, replica: Any) -> ReplicaStatus:
        """Reduce a replica built by this backend to a :class:`ReplicaStatus`."""
        return ReplicaStatus(
            protocol=self.name,
            decision_number=replica.view,
            quorum=replica.quorum,
            leader=replica.leader,
            status=replica.status,
            commits=replica.commits,
            decision_changes=replica.view_changes,
            executed=replica.executed_base + len(replica.executed),
            checkpoints=replica.checkpoints_made,
        )

    # ------------------------------------------------------------- accounting

    def message_costs(self, stats: Any, decisions: int) -> Dict[str, Any]:
        """Per-kind and per-decision message counts from a ``MessageStats``.

        ``decisions`` is the number of committed slots the run produced;
        the per-decision quotient is the paper's inter-replica cost
        metric for head-to-head backend comparison.
        """
        by_kind = {
            kind: stats.total_sent(kinds=(kind,)) for kind in self.replica_kinds
        }
        total = sum(by_kind.values())
        return {
            "protocol": self.name,
            "by_kind": by_kind,
            "total": total,
            "decisions": decisions,
            "per_decision": (total / decisions) if decisions else None,
        }

    def analytic_messages_per_decision(self, quorum_size: int) -> int:
        """Closed-form normal-case messages for one decision in a quorum.

        Used by the benchmark to state the active-quorum savings against
        the same protocol run over all ``n`` replicas.
        """
        raise NotImplementedError


def register_backend(backend: ProtocolBackend) -> ProtocolBackend:
    """Add a backend to the registry (idempotent per name); returns it."""
    if not backend.name or backend.name == "?":
        raise ConfigurationError("backend must carry a stable name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ProtocolBackend:
    """The registered backend called ``name`` (built-ins import lazily)."""
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    module = _BUILTIN_MODULES.get(name)
    if module is not None:
        importlib.import_module(module)  # module registers itself on import
        backend = _REGISTRY.get(name)
        if backend is not None:
            return backend
    raise ConfigurationError(
        f"unknown protocol backend {name!r}; known: {', '.join(backend_names())}"
    )


def backend_names() -> Tuple[str, ...]:
    """Every selectable backend name (registered plus built-in)."""
    return tuple(sorted(set(_REGISTRY) | set(_BUILTIN_MODULES)))
