"""One battery for :class:`repro.host.Host`, run on both substrates.

``sim`` is three :class:`~repro.sim.process.ProcessHost` on a seeded
:class:`~repro.sim.runtime.Simulation`; ``net`` is three
:class:`~repro.net.host.NetHost` meshed over loopback TCP on one event
loop.  Every case below must hold on both: the substrate only decides
where a frame goes and how a self-delivery is queued.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.host import Module
from repro.net.host import NetHost
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import SimulationError

N = 3


class SimWorld:
    """Hosts on the discrete-event simulator; time is simulated."""

    tick = 1.0  # a timer delay
    settle = 10.0  # long enough for any message to arrive

    def __init__(self) -> None:
        self.sim = Simulation(SimulationConfig(n=N, seed=1))
        self.hosts = self.sim.hosts()

    def start(self) -> None:
        self.sim.start()

    async def run(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)

    def play(self, scenario) -> None:
        asyncio.run(scenario)


class NetWorld:
    """Hosts on one asyncio loop over loopback sockets; time is wall time."""

    tick = 0.01
    settle = 0.3

    def start(self) -> None:
        for host in self.hosts.values():
            host.start()

    async def run(self, duration: float) -> None:
        await asyncio.sleep(duration)

    def play(self, scenario) -> None:
        asyncio.run(self._meshed(scenario))

    async def _meshed(self, scenario) -> None:
        loop = asyncio.get_running_loop()
        registry = KeyRegistry(N)
        managers = {pid: PeerManager(pid, rng_seed=pid) for pid in range(1, N + 1)}
        addresses = {pid: await manager.start_server() for pid, manager in managers.items()}
        self.hosts = {}
        for pid, manager in managers.items():
            manager.addresses = {p: a for p, a in addresses.items() if p != pid}
            self.hosts[pid] = NetHost(
                pid, manager, Authenticator(registry, pid), NetTimerService(loop)
            )
        for manager in managers.values():
            await manager.warm_up(timeout=5.0)
        try:
            await scenario
        finally:
            for manager in managers.values():
                await manager.close()


def on_both_substrates(test):
    """Run an ``async def test(world)`` once per substrate."""

    @pytest.mark.parametrize("world", [SimWorld, NetWorld], ids=["sim", "net"])
    def run(world):
        world = world()
        world.play(test(world))

    run.__name__ = test.__name__
    run.__doc__ = test.__doc__
    return run


def record(host, kind="probe"):
    received = []
    host.subscribe(kind, lambda k, payload, src: received.append((payload, src)))
    return received


class CountingFD:
    """Duck-typed failure detector: passes everything through."""

    def __init__(self, host) -> None:
        self.host = host
        self.recovers = 0
        host.fd = self

    def on_receive(self, kind, payload, src) -> None:
        self.host.deliver(kind, payload, src)

    def recover(self) -> None:
        self.recovers += 1


class CountingModule(Module):
    def __init__(self, host) -> None:
        super().__init__(host)
        self.recovers = 0

    def recover(self) -> None:
        self.recovers += 1


@on_both_substrates
async def test_self_delivery_is_deferred(world):
    host = world.hosts[1]
    received = record(host)
    host.broadcast([1, 2], "probe", "broadcast")
    host.send(1, "probe", "send")
    assert received == []  # queued, not delivered inline
    await world.run(world.settle)
    assert sorted(received) == [("broadcast", 1), ("send", 1)]


@on_both_substrates
async def test_crash_silences_send_deliver_and_timers(world):
    alive, crashed = world.hosts[1], world.hosts[2]
    received = {1: record(alive), 2: record(crashed)}
    fired = []
    crashed.set_timer(world.tick, lambda: fired.append(1))
    crashed.crash()
    alive.send(2, "probe", "to-crashed")
    crashed.send(1, "probe", "from-crashed")
    crashed.broadcast([1, 2], "probe", "broadcast")
    crashed.deliver("probe", "direct", 1)
    await world.run(world.settle)
    assert received == {1: [], 2: []}
    assert fired == []
    assert crashed._timers == {}


@on_both_substrates
async def test_recover_reruns_fd_and_module_recover_once(world):
    host = world.hosts[1]
    fd = CountingFD(host)
    module = host.add_module(CountingModule(host))
    world.start()
    host.recover()  # a running host has nothing to recover from
    host.crash()
    host.recover()
    host.recover()
    assert (fd.recovers, module.recovers) == (1, 1)
    assert host.running
    assert host.log.count("recover", process=1) == 1
    received = record(host)
    world.hosts[2].send(1, "probe", "after")
    await world.run(world.settle)
    assert received == [("after", 2)]


@on_both_substrates
async def test_negative_delay_raises(world):
    with pytest.raises(SimulationError):
        world.hosts[1].set_timer(-1.0, lambda: None)


@on_both_substrates
async def test_timer_table_holds_only_pending_timers(world):
    host = world.hosts[1]
    fired = []
    handles = [host.set_timer(world.tick, lambda: fired.append(1)) for _ in range(1000)]
    for handle in handles[1::2]:
        handle.cancel()
    assert len(host._timers) == 500  # cancel leaves the table
    await world.run(world.settle)
    assert len(fired) == 500
    assert host._timers == {}  # so does firing
    assert all(handle.fired for handle in handles[::2])
    assert not any(handle.fired or handle.active for handle in handles[1::2])
    pending = [host.set_timer(world.tick, lambda: fired.append("late")) for _ in range(3)]
    host.crash()
    assert host._timers == {}  # and crash
    await world.run(world.settle)
    assert len(fired) == 500
    assert not any(handle.active or handle.fired for handle in pending)


@on_both_substrates
async def test_double_crash_logs_and_times_the_first(world):
    host = world.hosts[2]
    host.crash()
    first = host.log.last("crash", process=2).time
    await world.run(4 * world.tick)
    host.crash()
    assert host.log.count("crash", process=2) == 1
    assert host.obs._fault_at == {2: first}
