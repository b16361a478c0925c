"""Canonical world builders for integration tests, benchmarks, and tasks.

Historically ``build_qs_world`` lived in ``tests/conftest.py``; the
parallel execution engine (DESIGN.md §5.15) needs it importable from the
installed package so that spawn-started worker processes and the CLI can
construct the same worlds without depending on the test tree.
``tests/conftest.py`` re-exports it, so existing imports keep working.

Every world here is a :class:`~repro.deployment.Deployment` mounted on
each simulated host by :func:`~repro.deployment.mount` — the same call
the live node (:mod:`repro.net.node`) makes on a real host, which is
where the sim<->net parity guarantee starts.  Each builder keeps its own
defaults and writes them once, in its signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.quorum_selection import QuorumSelectionModule
from repro.deployment import Deployment, mount
from repro.host import Host
from repro.sim.network import ChaosConfig
from repro.sim.runtime import Simulation, SimulationConfig


def build_qs_world(
    n: int,
    f: int,
    seed: int = 3,
    selector: str = "qs",
    gst: float = 0.0,
    heartbeat_period: float = 2.0,
    base_timeout: float = 4.0,
    chaos: Optional[ChaosConfig] = None,
    reliable: bool = False,
    anti_entropy_period: Optional[float] = None,
    metrics: bool = True,
) -> Tuple[Simulation, Dict[int, QuorumSelectionModule]]:
    """Full stack for Quorum/Follower Selection integration tests.

    ``selector="fs"`` runs Follower Selection.  ``chaos`` switches the
    network to the lossy-channel model; ``reliable`` routes
    UPDATE/FOLLOWERS through a per-process
    :class:`~repro.sim.transport.ReliableTransport`;
    ``anti_entropy_period`` arms the periodic matrix sync.  All three
    default off, reproducing the seed world.  ``metrics=False`` disables
    observability entirely; the protocol trace is byte-identical either
    way (the byte-identity test holds it to that).  Returns the
    simulation and each pid's selection module.
    """
    deployment = Deployment(
        n=n, f=f, selector=selector, heartbeat_period=heartbeat_period,
        base_timeout=base_timeout, reliable=reliable,
        anti_entropy_period=anti_entropy_period,
    )
    deployment.validate()
    sim = Simulation(SimulationConfig(n=n, seed=seed, gst=gst, delta=1.0,
                                      chaos=chaos, metrics=metrics))
    modules = {pid: mount(sim.host(pid), deployment).module for pid in sim.pids}
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
    """Mount the replicated-KV service stack on one host, selector ``qs``.

    Kept for ``bench/mesh.py``'s in-process mesh; everything else calls
    :func:`~repro.deployment.mount`.  Returns ``(qs_module, replica)``.
    """
    mounted = mount(host, Deployment(
        n=n, f=f, protocol=protocol, service="kv",
        heartbeat_period=heartbeat_period, base_timeout=base_timeout,
        batch_size=batch_size, batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
    ))
    return mounted.module, mounted.replica


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
    selector: str = "qs",
    max_steps: int = 20_000_000,
) -> KVServiceWorld:
    """Replicated KV service plus ``clients`` idle service clients.

    Clients occupy pids ``n+1 .. n+clients`` (the registry covers them
    because ``SimulationConfig.n`` counts every process), address the
    leader ``selector`` names, and submit nothing on their own —
    drive them with a :class:`~repro.service.loadgen.LoadGenerator`.
    """
    from repro.failures.adversary import Adversary
    from repro.protocol.selector import make_selector
    from repro.service.client import ServiceClient

    deployment = Deployment(
        n=n, f=f, selector=selector, protocol=protocol, service="kv",
        batch_size=batch_size, batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
        heartbeat_period=heartbeat_period, base_timeout=fd_base_timeout,
    )
    deployment.validate()
    sim = Simulation(
        SimulationConfig(
            n=n + clients, seed=seed, gst=gst, delta=delta,
            fifo=True, max_steps=max_steps,
        )
    )
    replicas: Dict[int, Any] = {}
    qs_modules: Dict[int, QuorumSelectionModule] = {}
    for pid in range(1, n + 1):
        mounted = mount(sim.host(pid), deployment)
        if mounted.module is not None:
            qs_modules[pid] = mounted.module
        replicas[pid] = mounted.replica
    leader_of = make_selector(deployment.selector, n, f).leader_of
    client_modules: Dict[int, Any] = {}
    for index in range(clients):
        pid = n + 1 + index
        host = sim.host(pid)
        client_modules[pid] = host.add_module(ServiceClient(
            host, n=n, f=f, retry_timeout=retry_timeout, leader_of=leader_of,
        ))
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
