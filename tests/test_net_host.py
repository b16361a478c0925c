"""NetHost over real loopback sockets, in-process (one event loop).

These tests run several hosts inside a single asyncio loop — real TCP,
real frames, no subprocesses — so the tier-1 suite exercises what only
the live host does (ingress authentication, frame counters, backpressure)
in a couple of seconds.  What every host does is in ``test_host.py``, on
both substrates; whole-cluster behaviour with one OS process per replica
lives in ``test_net_cluster.py``.
"""

from __future__ import annotations

import asyncio

from repro.core.messages import KIND_UPDATE, UpdatePayload
from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature
from repro.deployment import Deployment, mount
from repro.net.host import NetHost
from repro.net.peer import PeerManager, ReconnectPolicy
from repro.net.timers import NetTimerService


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
        modules[pid] = mount(host, Deployment(
            n=n, f=f, heartbeat_period=heartbeat, base_timeout=timeout
        )).module
    for pid in range(1, n + 1):
        await managers[pid].warm_up(timeout=5.0)
    if start:
        for host in hosts.values():
            host.start()
    return hosts, modules, managers


async def close_mesh(managers):
    for manager in managers.values():
        await manager.close()


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


def test_crashed_host_counts_ignored_frames():
    """Live-only: a crashed host reads and writes no frames, and says so."""

    async def scenario():
        hosts, _, managers = await start_mesh(3, start=False)
        hosts[2].crash()
        hosts[1].send(2, "probe", "x")
        await asyncio.sleep(0.3)
        hosts[2].send(1, "probe", "y")
        await close_mesh(managers)
        return hosts[2].frames_ignored_crashed, managers[2].stats.frames_sent

    ignored, sent_while_down = asyncio.run(scenario())
    assert ignored >= 1
    assert sent_while_down == 0


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
