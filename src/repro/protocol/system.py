"""Assembly of a full replicated system inside one simulation.

:func:`build_backend_system` mounts one
:class:`~repro.deployment.Deployment` — a named
:class:`~repro.protocol.backend.ProtocolBackend` on a named
:class:`~repro.protocol.selector.Selector`, with failure detector and
heartbeats — on every replica host; clients occupy process ids
``n+1 .. n+clients``.  Tests, experiments and the conformance batteries
build every backend x selector combination through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.deployment import Deployment, mount
from repro.failures.adversary import Adversary
from repro.protocol.backend import ProtocolBackend, ReplicaStatus, get_backend
from repro.protocol.selector import make_selector
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import ConfigurationError
from repro.xpaxos.client import XPaxosClient


@dataclass
class ProtocolSystem:
    """Handles to every component of one assembled backend system."""

    sim: Simulation
    n: int
    f: int
    backend: ProtocolBackend
    replicas: Dict[int, Any]
    clients: Dict[int, XPaxosClient]
    #: Each replica's selection module (empty for ``enum`` and ``all``).
    qs_modules: Dict[int, Any] = field(default_factory=dict)
    adversary: Optional[Adversary] = None

    @property
    def replica_pids(self) -> List[int]:
        return sorted(self.replicas)

    def correct_replicas(self) -> List[Any]:
        faulty = self.adversary.faulty if self.adversary else set()
        return [replica for pid, replica in sorted(self.replicas.items()) if pid not in faulty]

    def run(self, until: float) -> None:
        self.sim.run_until(until)

    # ------------------------------------------------------------ diagnostics

    def observe(self, pid: int) -> ReplicaStatus:
        return self.backend.observe(self.replicas[pid])

    def current_config(self) -> Tuple[int, Tuple[int, ...]]:
        """The ``(leader, members)`` every running correct replica runs."""
        configs = {
            (replica.leader, tuple(sorted(replica.quorum)))
            for replica in self.correct_replicas() if replica.host.running
        }
        if len(configs) != 1:
            raise ConfigurationError(f"configuration disagreement: {configs}")
        return configs.pop()

    def total_completed(self) -> int:
        return sum(len(client.completed) for client in self.clients.values())

    def total_commits(self) -> int:
        """Decided slots, by the most-advanced correct replica."""
        return max(
            (self.backend.observe(r).commits for r in self.correct_replicas()),
            default=0,
        )

    def histories_consistent(self) -> bool:
        """Safety: executed histories of correct replicas are prefix-ordered."""
        histories = [
            tuple(request.canonical() for request in replica.executed)
            for replica in self.correct_replicas()
        ]
        histories.sort(key=len)
        for shorter, longer in zip(histories, histories[1:]):
            if longer[: len(shorter)] != shorter:
                return False
        return True

    def inter_replica_messages(self) -> int:
        return self.sim.stats.sent_between(self.replica_pids)

    def protocol_message_costs(self) -> Dict[str, Any]:
        """Per-kind / per-decision protocol message counts (accounting hook)."""
        return self.backend.message_costs(self.sim.stats, self.total_commits())


def build_backend_system(
    protocol: str,
    n: int,
    f: int,
    selector: str = "qs",
    clients: int = 1,
    client_ops: Optional[Sequence[Sequence[Tuple[Any, ...]]]] = None,
    seed: int = 1,
    gst: float = 0.0,
    delta: float = 1.0,
    pre_gst_max: float = 10.0,
    heartbeats: bool = True,
    heartbeat_period: float = 4.0,
    fd_base_timeout: float = 8.0,
    client_retry: float = 30.0,
    client_think_time: float = 0.0,
    batch_size: int = 1,
    batch_window: float = 0.0,
    checkpoint_interval: Optional[int] = None,
    state_machine_factory=None,
    chaos=None,
    max_steps: int = 2_000_000,
) -> ProtocolSystem:
    """Build a ready-to-run system: the named backend on the named selector.

    ``client_ops`` is one op-list per client; defaults to 20 puts each.
    """
    deployment = Deployment(
        n=n, f=f, selector=selector, protocol=protocol,
        batch_size=batch_size, batch_window=batch_window,
        checkpoint_interval=checkpoint_interval, heartbeats=heartbeats,
        heartbeat_period=heartbeat_period, base_timeout=fd_base_timeout,
    )
    deployment.validate()
    if clients < 0:
        raise ConfigurationError("clients must be >= 0")
    sim = Simulation(
        SimulationConfig(
            n=n + clients, seed=seed, gst=gst, delta=delta,
            pre_gst_max=pre_gst_max, fifo=True, max_steps=max_steps,
            chaos=chaos,
        )
    )
    replicas: Dict[int, Any] = {}
    qs_modules: Dict[int, Any] = {}
    for pid in range(1, n + 1):
        state_machine = state_machine_factory() if state_machine_factory else None
        mounted = mount(sim.host(pid), deployment, state_machine)
        if mounted.module is not None:
            qs_modules[pid] = mounted.module
        replicas[pid] = mounted.replica
    client_modules: Dict[int, XPaxosClient] = {}
    leader_of = make_selector(selector, n, f).leader_of
    for index in range(clients):
        pid = n + 1 + index
        host = sim.host(pid)
        if client_ops is not None:
            ops = list(client_ops[index])
        else:
            ops = [("put", f"key-{index}-{i}", i) for i in range(20)]
        client_modules[pid] = host.add_module(
            XPaxosClient(
                host, n=n, f=f, ops=ops, leader_of=leader_of,
                retry_timeout=client_retry, think_time=client_think_time,
            )
        )
    adversary = Adversary(sim, f_max=f)
    return ProtocolSystem(
        sim=sim, n=n, f=f, backend=get_backend(protocol), replicas=replicas,
        clients=client_modules, qs_modules=qs_modules, adversary=adversary,
    )
