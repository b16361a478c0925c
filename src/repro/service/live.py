"""Live load driver: the KV service over real TCP, via a client gateway.

Topology: ``n`` replica OS processes (``python -m repro node --service
kv``) plus **one gateway process** — this one — that multiplexes many
logical clients over a single :class:`~repro.net.host.NetHost`.  Each
logical client keeps its own pid, sequence counter, and authenticator
(requests are signed as the *client* pid, so replicas dedup and reply
per client exactly as in the sim), while the rendezvous peer map points
every client pid at the gateway's address — replica replies to any
client land on the gateway socket and are routed back to the right
:class:`~repro.service.client.ServiceClient` by ``reply.client``.

Key registry sizing makes this sound: keys are derived per pid, so the
replicas' ``KeyRegistry(n + clients + 1)`` and the gateway's agree on
every signature and link MAC without sharing state.

:func:`run_live_load` is the wall-clock twin of
:func:`repro.service.loadgen.run_sim_load`: same phase structure
(steady / crash / recovery / view_change), same completion tuples, same
report shape — plus the per-node service blocks from the cluster's
final records (at-most-once verdicts, state digests).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.crypto.keys import KeyRegistry
from repro.deployment import Deployment
from repro.net.batch import BatchAuthenticator
from repro.net.cluster import ClusterConfig, run_cluster
from repro.net.host import NetHost
from repro.net.node import live_deployment, parse_peer_map
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.net.wire import WIRE_V2
from repro.protocol.selector import make_selector
from repro.service.client import ServiceClient
from repro.service.loadgen import LoadGenerator, Workload, client_phases, verdict_of
from repro.util.errors import ConfigurationError
from repro.xpaxos.messages import KIND_REPLY, ReplyPayload


class ClientGateway:
    """One socket endpoint fronting many logical service clients.

    ``leader_of`` is the deployment's view -> leader map every client
    addresses (``None``: the ``qs`` mapping).
    """

    def __init__(
        self,
        n: int,
        f: int,
        clients: int,
        retry_timeout: float = 1.0,
        wire_version: int = WIRE_V2,
        queue_capacity: int = 4096,
        leader_of=None,
    ) -> None:
        self.n = n
        self.f = f
        self.pid = n + clients + 1
        self.registry = KeyRegistry(self.pid)
        self.manager = PeerManager(
            self.pid,
            queue_capacity=queue_capacity,
            rng_seed=self.pid,
            wire_version=wire_version,
            batch_auth=BatchAuthenticator(self.registry, self.pid),
        )
        self.timers: Optional[NetTimerService] = None
        self.host: Optional[NetHost] = None
        self.clients: Dict[int, ServiceClient] = {}
        self._retry_timeout = retry_timeout
        self._leader_of = leader_of
        self._client_count = clients
        self.replies_unrouted = 0

    async def start_server(self, bind_host: str = "127.0.0.1") -> str:
        host_addr, port = await self.manager.start_server(bind_host, 0)
        return f"{host_addr}:{port}"

    def attach(self, addresses: Dict[int, str]) -> None:
        """Wire the host and clients once replica addresses are known."""
        self.manager.addresses = {
            pid: addr
            for pid, addr in parse_peer_map(
                {str(p): a for p, a in addresses.items()}
            ).items()
            if pid != self.pid
        }
        self.timers = NetTimerService(asyncio.get_running_loop())
        self.host = NetHost(
            self.pid,
            self.manager,
            Authenticator(self.registry, self.pid),
            self.timers,
        )
        self.host.subscribe(KIND_REPLY, self._route_reply)
        for index in range(self._client_count):
            pid = self.n + 1 + index
            self.clients[pid] = ServiceClient(
                self.host,
                n=self.n,
                f=self.f,
                client_id=pid,
                authenticator=Authenticator(self.registry, pid),
                retry_timeout=self._retry_timeout,
                subscribe=False,
                leader_of=self._leader_of,
            )
        self.host.start()
        for client in self.clients.values():
            client.start()

    def _route_reply(self, kind: str, payload: Any, src: int) -> None:
        """Fan a replica reply out to the logical client it addresses."""
        if not isinstance(payload, SignedMessage):
            return
        reply = payload.payload
        if not isinstance(reply, ReplyPayload):
            return
        client = self.clients.get(reply.client)
        if client is None:
            self.replies_unrouted += 1
            return
        client.on_reply(kind, payload, src)

    async def warm_up(self, timeout: float = 10.0) -> bool:
        return await self.manager.warm_up(
            timeout=timeout, peers=range(1, self.n + 1)
        )

    async def close(self) -> None:
        await self.manager.close()


class ServiceCluster:
    """One live service deployment: a :class:`ClientGateway` bound first,
    then the deployment's replica cluster launched behind it.

    ``deployment`` is a :func:`~repro.net.node.live_deployment`.

    ``launch`` is :class:`~repro.net.cluster.ClusterConfig`'s launch-only
    fields (duration, fault schedule, ``run_dir``, ...).
    """

    def __init__(self, deployment: Deployment, clients: int, retry_timeout: float,
                 **launch: Any) -> None:
        n, f = deployment.n, deployment.f
        self.deployment = deployment
        self.gateway = ClientGateway(
            n, f, clients, retry_timeout=retry_timeout,
            leader_of=make_selector(deployment.selector, n, f).leader_of,
        )
        self._launch = dict(launch, service_clients=clients)
        self._cluster = None

    async def start(self, executor=None) -> None:
        """Launch the cluster (blocking in ``executor``) and return once the
        rendezvous is done and the gateway reaches every replica."""
        loop = asyncio.get_running_loop()
        gateway = self.gateway
        gateway_addr = await gateway.start_server()
        config = ClusterConfig(
            deployment=self.deployment,
            extra_peers=tuple(
                (pid, gateway_addr) for pid in range(self.deployment.n + 1, gateway.pid + 1)
            ),
            **self._launch,
        )
        ready = asyncio.Event()
        addresses: Dict[int, str] = {}

        def on_ready(reported: Dict[int, str]) -> None:
            def _apply() -> None:
                addresses.update(reported)
                ready.set()

            loop.call_soon_threadsafe(_apply)

        self._cluster = loop.run_in_executor(
            executor, lambda: run_cluster(config, on_ready=on_ready)
        )
        await asyncio.wait_for(ready.wait(), config.startup_timeout)
        gateway.attach(addresses)
        await gateway.warm_up()

    async def close(self):
        """Wait for the cluster run to end; returns its ``ClusterResult``."""
        result = await self._cluster if self._cluster is not None else None
        await self.gateway.close()
        return result


async def run_live_load(
    n: int = 4,
    f: int = 1,
    clients: int = 32,
    duration: float = 8.0,
    mode: str = "closed",
    rate: Optional[float] = None,
    seed: int = 3,
    keys: int = 1000,
    zipf_s: float = 1.1,
    kill_leader_at: Optional[float] = None,
    recover_at: Optional[float] = None,
    drain: float = 2.0,
    settle: float = 1.0,
    retry_timeout: float = 1.0,
    batch_size: int = 64,
    batch_window: float = 0.002,
    checkpoint_interval: Optional[int] = 16,
    heartbeat_period: float = 0.3,
    base_timeout: float = 1.5,
    protocol: str = "xpaxos",
    selector: str = "qs",
    run_dir=None,
) -> Dict[str, Any]:
    """Drive the live replicated KV service under load; report phases.

    Mirrors :func:`~repro.service.loadgen.run_sim_load`, with wall-clock
    seconds for time units.  The leader-kill schedule runs on the victim
    node's own clock (seconds after its ready event), which trails the
    gateway's load-start clock by at most the warm-up slack — phase
    boundaries are aligned to within that slack, while the view-change
    window stays exact (it keys off the served view, not the clock).
    """
    if kill_leader_at is not None and kill_leader_at >= duration:
        raise ConfigurationError(
            f"kill_leader_at {kill_leader_at} outside the load window [0, {duration})"
        )
    deployment = live_deployment(
        n=n, f=f, selector=selector, protocol=protocol, service="kv",
        batch_size=batch_size, batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
        heartbeat_period=heartbeat_period, base_timeout=base_timeout,
    )
    deployment.validate()
    initial_leader = make_selector(selector, n, f).leader_of(0)
    kills = ()
    recovers = ()
    if kill_leader_at is not None:
        kills = ((initial_leader, settle + kill_leader_at),)
        if recover_at is not None:
            recovers = ((initial_leader, settle + recover_at),)
    service = ServiceCluster(
        deployment, clients, retry_timeout,
        duration=settle + duration + drain + 2.0,
        kills=kills, recovers=recovers, run_dir=run_dir,
    )
    gateway = service.gateway
    try:
        await service.start()
        # Give replicas their own warm-up slack before offering load, so
        # the steady phase does not start with a retry storm.
        await asyncio.sleep(settle)

        workload = Workload(seed=seed, keys=keys, zipf_s=zipf_s)
        generator = LoadGenerator(
            gateway.host,
            list(gateway.clients.values()),
            workload,
            mode=mode,
            rate=rate,
            duration=duration,
        )
        t0 = gateway.host.now
        generator.start()
        await asyncio.sleep(duration + drain)
        generator.stop()

        # Completion times shifted to load-relative seconds, sim-style.
        completions = [
            entry._replace(completed_at=entry.completed_at - t0)
            for entry in generator.all_completions()
        ]
    finally:
        cluster_result = await service.close()

    phases = client_phases(
        gateway.clients.values(), completions, duration, kill_leader_at, recover_at
    )
    return {
        "n": n,
        "f": f,
        "protocol": protocol,
        "selector": selector,
        "clients": clients,
        "mode": mode,
        "rate": rate,
        "seed": seed,
        "duration": duration,
        "offered": generator.offered,
        "completed": generator.completed,
        "retries": generator.total_retries,
        "phases": phases,
        "kill_leader_at": kill_leader_at,
        "recover_at": recover_at,
        "initial_leader": initial_leader,
        **service_verdict(cluster_result),
        "replies_unrouted": gateway.replies_unrouted,
        "cluster": cluster_result.summary(),
    }


def service_verdict(cluster_result) -> Dict[str, Any]:
    """:func:`~repro.service.loadgen.verdict_of` one cluster's final node
    records (per shard, for :mod:`repro.shard.live`)."""
    finals = {
        pid: node.final for pid, node in cluster_result.nodes.items()
        if node.final is not None and "service" in node.final
    }
    return verdict_of(
        {pid: final["service"] for pid, final in finals.items()},
        [pid for pid, final in finals.items() if final.get("running")],
    )


def run_live_load_blocking(**kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`run_live_load`."""
    return asyncio.run(run_live_load(**kwargs))
