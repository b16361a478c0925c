"""Canonical world builders for integration tests, benchmarks, and tasks.

Historically ``build_qs_world`` lived in ``tests/conftest.py``; the
parallel execution engine (DESIGN.md §5.15) needs it importable from the
installed package so that spawn-started worker processes and the CLI can
construct the same worlds without depending on the test tree.
``tests/conftest.py`` re-exports it, so existing imports keep working.

:func:`attach_qs_stack` is the per-host half of world building: it wires
the Figure-1 module stack (failure detector, heartbeats, Quorum or
Follower Selection) onto any :class:`repro.host.Host`.  ``build_qs_world``
uses it for simulated hosts; the live network runtime
(:mod:`repro.net.node`) uses it for real ones — the sim<->net parity
guarantee starts with both runtimes assembling the exact same stack
through this one function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.follower_selection import FollowerSelectionModule
from repro.core.quorum_selection import QuorumSelectionModule
from repro.fd.detector import FailureDetector
from repro.fd.heartbeat import HeartbeatModule
from repro.fd.timers import TimeoutPolicy
from repro.host import Host
from repro.sim.network import ChaosConfig
from repro.sim.runtime import Simulation, SimulationConfig
from repro.sim.transport import ReliableTransport


def attach_qs_stack(
    host: Host,
    n: int,
    f: int,
    follower_mode: bool = False,
    heartbeat_period: float = 2.0,
    base_timeout: float = 4.0,
    transport: Optional[ReliableTransport] = None,
    anti_entropy_period: Optional[float] = None,
) -> QuorumSelectionModule:
    """Mount the full Figure-1 stack on one host; returns the QS module.

    Either host qualifies — a simulated
    :class:`~repro.sim.process.ProcessHost` or a live
    :class:`~repro.net.host.NetHost`.  A ``transport`` is
    attached *here* (between the heartbeat and the selection module) so
    module start order — and therefore the event trace — matches the seed
    world byte for byte.
    """
    FailureDetector(host, TimeoutPolicy(base_timeout=base_timeout))
    host.add_module(HeartbeatModule(host, n=n, period=heartbeat_period))
    if transport is not None:
        host.add_module(transport)
    extra = dict(transport=transport, anti_entropy_period=anti_entropy_period)
    if follower_mode:
        return host.add_module(FollowerSelectionModule(host, n=n, f=f, **extra))
    return host.add_module(QuorumSelectionModule(host, n=n, f=f, **extra))


def build_qs_world(
    n: int,
    f: int,
    seed: int = 3,
    follower_mode: bool = False,
    gst: float = 0.0,
    heartbeat_period: float = 2.0,
    base_timeout: float = 4.0,
    chaos: Optional[ChaosConfig] = None,
    reliable: bool = False,
    anti_entropy_period: Optional[float] = None,
    metrics: bool = True,
) -> Tuple[Simulation, Dict[int, QuorumSelectionModule]]:
    """Full stack for Quorum/Follower Selection integration tests.

    ``chaos`` switches the network to the lossy-channel model;
    ``reliable`` routes UPDATE/FOLLOWERS through a per-process
    :class:`ReliableTransport`; ``anti_entropy_period`` arms the periodic
    matrix sync.  All three default off, reproducing the seed world.
    ``metrics=False`` disables observability entirely; the protocol trace
    is byte-identical either way (the byte-identity test holds it to that).
    """
    sim = Simulation(SimulationConfig(n=n, seed=seed, gst=gst, delta=1.0,
                                      chaos=chaos, metrics=metrics))
    modules: Dict[int, QuorumSelectionModule] = {}
    for pid in sim.pids:
        host = sim.host(pid)
        transport = ReliableTransport(host) if reliable else None
        modules[pid] = attach_qs_stack(
            host,
            n,
            f,
            follower_mode=follower_mode,
            heartbeat_period=heartbeat_period,
            base_timeout=base_timeout,
            transport=transport,
            anti_entropy_period=anti_entropy_period,
        )
    return sim, modules


# --------------------------------------------------------- replicated service


def attach_kv_service_stack(
    host: Host,
    n: int,
    f: int,
    heartbeat_period: float = 4.0,
    base_timeout: float = 8.0,
    batch_size: int = 1,
    batch_window: float = 0.0,
    checkpoint_interval: Optional[int] = None,
    protocol: str = "xpaxos",
):
    """Mount the replicated-KV service stack on one host.

    Failure detector, heartbeats, Quorum Selection, and a replica of the
    named :class:`~repro.protocol.backend.ProtocolBackend` executing a
    :class:`~repro.service.kv.ServiceKVStore` — the ``--service kv``
    node role and the sim service world both assemble through here,
    extending the sim<->net parity guarantee to the service layer.
    Returns ``(qs_module, replica)``.
    """
    from repro.protocol.backend import get_backend
    from repro.protocol.selector import make_selector
    from repro.service.kv import ServiceKVStore

    backend = get_backend(protocol)
    FailureDetector(host, TimeoutPolicy(base_timeout=base_timeout))
    host.add_module(HeartbeatModule(host, n=n, period=heartbeat_period))
    selector = make_selector("qs", n, f, host)
    replica = backend.build_replica(
        host,
        n,
        f,
        selector,
        batch_size=batch_size,
        batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
        state_machine=ServiceKVStore(),
    )
    return selector.module, replica


@dataclass
class KVServiceWorld:
    """Handles to one assembled sim service world."""

    sim: Simulation
    n: int
    f: int
    replicas: Dict[int, Any]
    qs_modules: Dict[int, QuorumSelectionModule]
    clients: Dict[int, Any] = field(default_factory=dict)
    adversary: Any = None
    protocol: str = "xpaxos"

    @property
    def gen_host(self) -> Any:
        """The host load generators hang their timers on."""
        first_client = min(self.clients) if self.clients else min(self.replicas)
        return self.sim.host(first_client)


def build_kv_service_world(
    n: int,
    f: int,
    clients: int,
    seed: int = 3,
    gst: float = 0.0,
    delta: float = 1.0,
    heartbeat_period: float = 4.0,
    fd_base_timeout: float = 8.0,
    retry_timeout: float = 10.0,
    batch_size: int = 1,
    batch_window: float = 0.0,
    checkpoint_interval: Optional[int] = None,
    protocol: str = "xpaxos",
    max_steps: int = 20_000_000,
) -> KVServiceWorld:
    """Replicated KV service plus ``clients`` idle service clients.

    Clients occupy pids ``n+1 .. n+clients`` (the registry covers them
    because ``SimulationConfig.n`` counts every process) and submit
    nothing on their own — drive them with a
    :class:`~repro.service.loadgen.LoadGenerator`.
    """
    from repro.failures.adversary import Adversary
    from repro.service.client import ServiceClient

    sim = Simulation(
        SimulationConfig(
            n=n + clients, seed=seed, gst=gst, delta=delta,
            fifo=True, max_steps=max_steps,
        )
    )
    replicas: Dict[int, Any] = {}
    qs_modules: Dict[int, QuorumSelectionModule] = {}
    for pid in range(1, n + 1):
        qs_module, replica = attach_kv_service_stack(
            sim.host(pid),
            n,
            f,
            heartbeat_period=heartbeat_period,
            base_timeout=fd_base_timeout,
            batch_size=batch_size,
            batch_window=batch_window,
            checkpoint_interval=checkpoint_interval,
            protocol=protocol,
        )
        qs_modules[pid] = qs_module
        replicas[pid] = replica
    client_modules: Dict[int, Any] = {}
    for index in range(clients):
        pid = n + 1 + index
        host = sim.host(pid)
        client_modules[pid] = host.add_module(
            ServiceClient(host, n=n, f=f, retry_timeout=retry_timeout)
        )
    adversary = Adversary(sim, f_max=f)
    return KVServiceWorld(
        sim=sim, n=n, f=f, replicas=replicas, qs_modules=qs_modules,
        clients=client_modules, adversary=adversary, protocol=protocol,
    )


def shard_seed(seed: int, shard: int) -> int:
    """Root seed of one shard's world, derived by name (stable path)."""
    from repro.util.rand import derive_seed

    return derive_seed(seed, "shard", shard)


def build_sharded_kv_worlds(
    shards: int,
    n: int,
    f: int,
    clients: int,
    seed: int = 3,
    **world_kwargs: Any,
) -> list:
    """``shards`` independent KV service worlds for one deployment.

    Each world is a full :func:`build_kv_service_world` (own pid space
    1..n+clients, own RNG streams) under a per-shard derived seed, so
    shard worlds are statistically independent yet the deployment as a
    whole replays deterministically from one root seed.  The sharded
    sim driver (:mod:`repro.shard.sim`) advances them in lockstep.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    return [
        build_kv_service_world(
            n=n, f=f, clients=clients, seed=shard_seed(seed, shard),
            **world_kwargs,
        )
        for shard in range(shards)
    ]
