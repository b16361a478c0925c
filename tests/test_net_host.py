"""NetHost over real loopback sockets, in-process (one event loop).

These tests run several hosts inside a single asyncio loop — real TCP,
real frames, no subprocesses — so the tier-1 suite exercises the live
runtime's host semantics (delivery, ingress authentication, crash and
recovery, backpressure) in a couple of seconds.  Whole-cluster behaviour
with one OS process per replica lives in ``test_net_cluster.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.messages import KIND_UPDATE, UpdatePayload
from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature
from repro.net.host import NetHost
from repro.net.peer import PeerConnection, PeerManager, PeerStats, ReconnectPolicy
from repro.net.timers import NetTimerService
from repro.sim.worlds import attach_qs_stack


async def start_mesh(n, f=1, heartbeat=0.1, timeout=0.6, start=True):
    """n live hosts on one loop, fully meshed, running the QS stack."""
    loop = asyncio.get_running_loop()
    managers, addrs = {}, {}
    for pid in range(1, n + 1):
        managers[pid] = PeerManager(pid, rng_seed=pid)
        addrs[pid] = await managers[pid].start_server()
    hosts, modules = {}, {}
    for pid in range(1, n + 1):
        managers[pid].addresses = {p: a for p, a in addrs.items() if p != pid}
        host = NetHost(
            pid,
            managers[pid],
            Authenticator(KeyRegistry(n), pid),
            NetTimerService(loop),
        )
        hosts[pid] = host
        modules[pid] = attach_qs_stack(
            host, n, f, heartbeat_period=heartbeat, base_timeout=timeout
        )
    for pid in range(1, n + 1):
        await managers[pid].warm_up(timeout=5.0)
    if start:
        for host in hosts.values():
            host.start()
    return hosts, modules, managers


async def close_mesh(managers):
    for manager in managers.values():
        await manager.close()


def test_both_runtimes_satisfy_the_host_api_contract():
    from repro.hostapi import missing_host_api, require_host_api
    from repro.sim.runtime import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig(n=3, seed=1))
    assert missing_host_api(sim.host(1)) == ()

    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        checked = require_host_api(hosts[1]) is hosts[1]
        await close_mesh(managers)
        return checked

    assert asyncio.run(scenario())

    class NotAHost:
        pid = 1

    with pytest.raises(TypeError, match="missing"):
        require_host_api(NotAHost())


def test_signed_frame_delivered_and_verified():
    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        received = []
        hosts[2].subscribe(KIND_UPDATE, lambda k, p, s: received.append((p, s)))
        message = hosts[1].authenticator.sign(UpdatePayload(row=(0, 0, 1)))
        hosts[1].send(2, KIND_UPDATE, message)
        await asyncio.sleep(0.3)
        await close_mesh(managers)
        return received, managers[2].stats

    received, stats = asyncio.run(scenario())
    assert len(received) == 1
    payload, src = received[0]
    assert payload.payload == UpdatePayload(row=(0, 0, 1))
    assert src == 1
    assert stats.frames_received == 1
    assert stats.frames_auth_rejected == 0


def test_forged_signature_dropped_at_ingress():
    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        received = []
        hosts[2].subscribe(KIND_UPDATE, lambda k, p, s: received.append(p))
        forged = SignedMessage(
            UpdatePayload(row=(0, 0, 1)), Signature(signer=1, tag=b"not a mac")
        )
        hosts[1].send(2, KIND_UPDATE, forged)
        await asyncio.sleep(0.3)
        await close_mesh(managers)
        return received, managers[2].stats, hosts[2].log

    received, stats, log = asyncio.run(scenario())
    assert received == []
    assert stats.frames_auth_rejected == 1
    assert log.count("net.authfail") == 1


def test_broadcast_self_delivery_is_deferred():
    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        received = []
        hosts[1].subscribe("probe", lambda k, p, s: received.append((p, s)))
        hosts[1].broadcast([1, 2], "probe", "x")
        synchronous = list(received)  # call_soon: nothing delivered inline
        await asyncio.sleep(0.05)
        await close_mesh(managers)
        return synchronous, received

    synchronous, received = asyncio.run(scenario())
    assert synchronous == []
    assert received == [("x", 1)]


def test_crashed_host_ignores_ingress_and_drops_timers():
    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        fired = []
        hosts[2].set_timer(0.05, lambda: fired.append("timer"))
        hosts[2].crash()
        hosts[1].send(2, "probe", "x")
        await asyncio.sleep(0.3)
        ignored = hosts[2].frames_ignored_crashed
        assert hosts[2].send(1, "probe", "y") is None  # silenced
        sent_while_down = managers[2].stats.frames_sent
        hosts[2].recover()
        await close_mesh(managers)
        return fired, ignored, sent_while_down, hosts[2].running

    fired, ignored, sent_while_down, running = asyncio.run(scenario())
    assert fired == []
    assert ignored >= 1
    assert sent_while_down == 0
    assert running


def test_recover_restarts_failure_detector_and_modules():
    async def scenario():
        hosts, modules, managers = await start_mesh(3, heartbeat=0.05, timeout=5.0)
        hosts[1].crash()
        await asyncio.sleep(0.1)
        hosts[1].recover()
        sent_before = managers[1].stats.frames_sent
        await asyncio.sleep(0.3)
        sent_after = managers[1].stats.frames_sent
        await close_mesh(managers)
        return sent_before, sent_after, modules

    sent_before, sent_after, _ = asyncio.run(scenario())
    assert sent_after > sent_before  # heartbeats resumed after recovery


def test_cancelled_timer_does_not_fire():
    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        fired = []
        handle = hosts[1].set_timer(0.02, lambda: fired.append(1))
        handle.cancel()
        await asyncio.sleep(0.08)
        await close_mesh(managers)
        return fired

    assert asyncio.run(scenario()) == []


def test_host_forgets_fired_and_cancelled_timers():
    """Only pending timers are tracked; crash still cancels all of them."""

    async def scenario():
        loop = asyncio.get_running_loop()
        host = NetHost(
            1, PeerManager(1, rng_seed=0), Authenticator(KeyRegistry(1), 1),
            NetTimerService(loop),
        )
        fired = []
        high_water = 0
        for _ in range(10):
            for i in range(1000):
                handle = host.set_timer(0.0, lambda: fired.append(1))
                if i % 2:
                    handle.cancel()
            high_water = max(high_water, len(host._timers))
            await asyncio.sleep(0.01)
        settled = len(host._timers)
        pending = [host.set_timer(0.05, lambda: fired.append("late")) for _ in range(3)]
        host.crash()
        await asyncio.sleep(0.1)
        await host.manager.close()
        return fired, high_water, settled, pending, len(host._timers)

    fired, high_water, settled, pending, after_crash = asyncio.run(scenario())
    assert fired == [1] * 5000
    assert high_water <= 1000 and settled == 0
    assert not any(handle.active or handle.fired for handle in pending)
    assert after_crash == 0


def test_backpressure_drops_and_counts():
    async def scenario():
        manager = PeerManager(
            1,
            addresses={2: ("127.0.0.1", 1)},  # nothing listens here
            queue_capacity=2,
            policy=ReconnectPolicy(initial_delay=0.05, max_delay=0.1),
            rng_seed=0,
        )
        conn = manager.connection(2)
        accepted = [conn.enqueue("qs.update", i) for i in range(4)]
        await asyncio.sleep(0.05)
        await manager.close()
        return accepted, conn.stats

    accepted, stats = asyncio.run(scenario())
    assert accepted.count(False) == 2
    assert stats.frames_dropped_backpressure == 2


def test_quorum_converges_after_live_crash():
    """Four live hosts; p1 crashes; survivors agree on quorum {2,3,4}."""

    async def scenario():
        hosts, modules, managers = await start_mesh(4, f=1, heartbeat=0.1, timeout=0.5)
        await asyncio.sleep(0.4)
        hosts[1].crash()
        await asyncio.sleep(2.5)
        quorums = {pid: modules[pid].qlast for pid in (2, 3, 4)}
        bounds = {pid: modules[pid].max_quorums_in_any_epoch() for pid in (2, 3, 4)}
        await close_mesh(managers)
        return quorums, bounds

    quorums, bounds = asyncio.run(scenario())
    assert set(quorums.values()) == {frozenset({2, 3, 4})}
    assert all(count <= 1 * 2 for count in bounds.values())  # Thm 3: f(f+1)
