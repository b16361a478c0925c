"""Single-process live mesh: n replicas and one client gateway on one loop.

Every replica is a :class:`~repro.net.host.NetHost` assembled the way
``repro.net.node.run_node`` assembles it (``PeerManager`` with a
``BatchAuthenticator``, ``attach_kv_service_stack``), and the clients sit
behind one :class:`~repro.service.live.ClientGateway`; all of them talk
over real loopback TCP but share one thread and one asyncio loop.
Throughput is then the reciprocal of the CPU spent per request across
all nodes and does not depend on how the OS schedules five processes —
the multi-process deployment shape stays ``bench_e26``'s job.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.net.batch import BatchAuthenticator
from repro.net.host import NetHost
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.net.wire import WIRE_V2
from repro.service.live import ClientGateway
from repro.sim.worlds import attach_kv_service_stack

# Fixed deployment settings (ISSUE 12).  The wire version is pinned and
# uvloop is never installed, so REPRO_* environment variables cannot
# change what is measured.
BATCH_SIZE = 64
BATCH_WINDOW = 0.002
CHECKPOINT_INTERVAL = 16
HEARTBEAT_PERIOD = 0.3
BASE_TIMEOUT = 1.5
RETRY_TIMEOUT = 1.0
BIND_HOST = "127.0.0.1"


class Mesh:
    """``n`` replicas plus a gateway fronting ``clients`` logical clients."""

    def __init__(self, n: int, f: int, clients: int, protocol: str) -> None:
        self.n = n
        self.f = f
        self.protocol = protocol
        self.gateway = ClientGateway(
            n, f, clients, retry_timeout=RETRY_TIMEOUT, wire_version=WIRE_V2
        )
        self.hosts: Dict[int, NetHost] = {}
        self.replicas: Dict[int, Any] = {}
        self.qs_modules: Dict[int, Any] = {}

    async def start(self) -> None:
        """Listen, connect the replica mesh, mount the stacks, start."""
        loop = asyncio.get_running_loop()
        n = self.n
        registry_size = self.gateway.pid  # replicas + clients + gateway
        managers: Dict[int, PeerManager] = {}
        registries: Dict[int, KeyRegistry] = {}
        addresses: Dict[int, Any] = {}
        for pid in range(1, n + 1):
            registries[pid] = KeyRegistry(registry_size)
            manager = PeerManager(
                pid,
                rng_seed=pid,
                wire_version=WIRE_V2,
                batch_auth=BatchAuthenticator(registries[pid], pid),
            )
            addresses[pid] = await manager.start_server(BIND_HOST, 0)
            managers[pid] = manager
        gateway_host, _, gateway_port = (await self.gateway.start_server(BIND_HOST)).rpartition(":")
        for pid in range(n + 1, self.gateway.pid + 1):
            addresses[pid] = (gateway_host, int(gateway_port))
        for pid, manager in managers.items():
            manager.addresses = {p: a for p, a in addresses.items() if p != pid}
        warmed = await asyncio.gather(
            *(m.warm_up(peers=range(1, n + 1)) for m in managers.values())
        )
        if not all(warmed):
            raise RuntimeError("replica mesh did not connect")
        for pid, manager in managers.items():
            host = NetHost(
                pid,
                manager,
                Authenticator(registries[pid], pid),
                NetTimerService(loop),
            )
            self.qs_modules[pid], self.replicas[pid] = attach_kv_service_stack(
                host,
                n,
                self.f,
                heartbeat_period=HEARTBEAT_PERIOD,
                base_timeout=BASE_TIMEOUT,
                batch_size=BATCH_SIZE,
                batch_window=BATCH_WINDOW,
                checkpoint_interval=CHECKPOINT_INTERVAL,
                protocol=self.protocol,
            )
            self.hosts[pid] = host
        for host in self.hosts.values():
            host.start()
        self.gateway.attach(
            {pid: f"{addr[0]}:{addr[1]}" for pid, addr in addresses.items() if pid <= n}
        )
        if not await self.gateway.warm_up():
            raise RuntimeError("gateway did not connect to every replica")

    @property
    def clients(self) -> List[Any]:
        return list(self.gateway.clients.values())

    @property
    def managers(self) -> List[PeerManager]:
        """Every PeerManager in the mesh, the gateway's included."""
        return [host.manager for host in self.hosts.values()] + [self.gateway.manager]

    def leader(self) -> int:
        """The replica the live replicas currently take for leader."""
        return next(r.leader for pid, r in self.replicas.items() if self.hosts[pid].running)

    @staticmethod
    def loop_time(host: NetHost, host_time: float) -> float:
        """A ``host.now``-based timestamp (as in ``host.log``) in loop time."""
        loop = asyncio.get_running_loop()
        return host_time + (loop.time() - host.now)

    async def close(self) -> None:
        await self.gateway.close()
        for host in self.hosts.values():
            await host.manager.close()
