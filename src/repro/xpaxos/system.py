"""Assembly of a full XPaxos system inside one simulation.

``build_system`` wires, per replica: a failure detector, optionally a
heartbeat module (for crash/omission detection independent of client
traffic), optionally a Quorum Selection module (mode ``"selection"``),
and the XPaxos replica itself with the requested quorum policy.  Clients
occupy process ids ``n+1 .. n+clients``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.quorum_selection import QuorumSelectionModule
from repro.failures.adversary import Adversary
from repro.fd.detector import FailureDetector
from repro.fd.heartbeat import HeartbeatModule
from repro.fd.timers import TimeoutPolicy
from repro.protocol.policy import EnumerationPolicy, QuorumPolicy, SelectionPolicy
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import ConfigurationError
from repro.xpaxos.client import XPaxosClient
from repro.xpaxos.replica import XPaxosReplica

MODE_SELECTION = "selection"
MODE_ENUMERATION = "enumeration"


@dataclass
class XPaxosSystem:
    """Handles to every component of one assembled system."""

    sim: Simulation
    n: int
    f: int
    mode: str
    replicas: Dict[int, XPaxosReplica]
    clients: Dict[int, XPaxosClient]
    qs_modules: Dict[int, QuorumSelectionModule] = field(default_factory=dict)
    adversary: Optional[Adversary] = None

    @property
    def replica_pids(self) -> List[int]:
        return sorted(self.replicas)

    def correct_replicas(self) -> List[XPaxosReplica]:
        faulty = self.adversary.faulty if self.adversary else set()
        return [replica for pid, replica in sorted(self.replicas.items()) if pid not in faulty]

    def run(self, until: float) -> None:
        self.sim.run_until(until)

    # ------------------------------------------------------------ diagnostics

    def total_completed(self) -> int:
        return sum(len(client.completed) for client in self.clients.values())

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


def build_system(
    n: int,
    f: int,
    mode: str = MODE_SELECTION,
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
    checkpoint_interval = None,
    state_machine_factory = None,
    max_steps: int = 2_000_000,
) -> XPaxosSystem:
    """Build a ready-to-run XPaxos system.

    ``client_ops`` is one op-list per client; defaults to 20 puts each.
    """
    if mode not in (MODE_SELECTION, MODE_ENUMERATION):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if clients < 0:
        raise ConfigurationError("clients must be >= 0")
    sim = Simulation(
        SimulationConfig(
            n=n + clients, seed=seed, gst=gst, delta=delta,
            pre_gst_max=pre_gst_max, fifo=True, max_steps=max_steps,
        )
    )
    replicas: Dict[int, XPaxosReplica] = {}
    qs_modules: Dict[int, QuorumSelectionModule] = {}
    for pid in range(1, n + 1):
        host = sim.host(pid)
        FailureDetector(host, TimeoutPolicy(base_timeout=fd_base_timeout))
        if heartbeats:
            host.add_module(HeartbeatModule(host, n=n, period=heartbeat_period))
        qs_module: Optional[QuorumSelectionModule] = None
        policy: QuorumPolicy
        if mode == MODE_SELECTION:
            qs_module = host.add_module(QuorumSelectionModule(host, n=n, f=f))
            qs_modules[pid] = qs_module
            policy = SelectionPolicy(n, f)
        else:
            policy = EnumerationPolicy(n, f)
        replicas[pid] = host.add_module(
            XPaxosReplica(
                host, n=n, f=f, policy=policy, qs_module=qs_module,
                batch_size=batch_size, batch_window=batch_window,
                checkpoint_interval=checkpoint_interval,
                state_machine=(
                    state_machine_factory() if state_machine_factory else None
                ),
            )
        )
    client_modules: Dict[int, XPaxosClient] = {}
    for index in range(clients):
        pid = n + 1 + index
        host = sim.host(pid)
        if client_ops is not None:
            ops = list(client_ops[index])
        else:
            ops = [("put", f"key-{index}-{i}", i) for i in range(20)]
        client_modules[pid] = host.add_module(
            XPaxosClient(
                host, n=n, f=f, ops=ops,
                retry_timeout=client_retry, think_time=client_think_time,
            )
        )
    adversary = Adversary(sim, f_max=f)
    return XPaxosSystem(
        sim=sim, n=n, f=f, mode=mode, replicas=replicas,
        clients=client_modules, qs_modules=qs_modules, adversary=adversary,
    )
