"""One deployment spec, mounted one way (``repro.deployment``).

- ``mount`` builds the same stack, in the same start order, with the
  same handles on a simulated :class:`~repro.sim.process.ProcessHost`
  and on a loopback :class:`~repro.net.host.NetHost`.
- ``Deployment.validate`` is the one validator, and a live cluster runs
  it in the parent before any process starts.
- The service runs on ``fs`` and ``all`` as it does on ``qs``, and its
  clients address the leader the deployment's selector names.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.deployment import Deployment, mount
from repro.net import cluster as cluster_module
from repro.net.cluster import ClusterConfig, run_cluster
from repro.net.host import NetHost
from repro.net.node import (
    LIVE_DEFAULTS, NodeConfig, live_deployment, node_spec, parse_node_spec,
)
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.protocol.enumeration import leader_of_view
from repro.protocol.selector import FsSelector, make_selector
from repro.service.loadgen import run_sim_load
from repro.sim.runtime import Simulation, SimulationConfig
from repro.sim.worlds import build_kv_service_world
from repro.util.errors import ConfigurationError
from repro.xpaxos.messages import KIND_REQUEST

N, F = 4, 1

#: (deployment fields, start order: host.fd, then the host's modules).
STACKS = {
    "bare-qs": (
        dict(),
        ["FailureDetector", "HeartbeatModule", "QuorumSelectionModule"],
    ),
    "bare-fs": (
        dict(selector="fs"),
        ["FailureDetector", "HeartbeatModule", "FollowerSelectionModule"],
    ),
    "kv-qs": (
        dict(protocol="xpaxos", service="kv"),
        ["FailureDetector", "HeartbeatModule", "QuorumSelectionModule", "XPaxosReplica"],
    ),
    "kv-fs": (
        dict(protocol="xpaxos", service="kv", selector="fs"),
        ["FailureDetector", "HeartbeatModule", "FollowerSelectionModule", "XPaxosReplica"],
    ),
    "kv-all": (
        dict(protocol="xpaxos", service="kv", selector="all"),
        ["FailureDetector", "HeartbeatModule", "XPaxosReplica"],
    ),
}


def sim_host():
    return Simulation(SimulationConfig(n=N, seed=1)).host(1)


def net_host():
    async def build():
        manager = PeerManager(1, rng_seed=1)
        await manager.start_server()
        host = NetHost(
            1, manager, Authenticator(KeyRegistry(N), 1),
            NetTimerService(asyncio.get_running_loop()),
        )
        await manager.close()
        return host

    return asyncio.run(build())


def shape(host, mounted):
    """What a mount left behind, by type: start order and handles."""
    # Host.start starts host.fd, then its modules in the order added.
    order = [type(host.fd).__name__] + [type(m).__name__ for m in host._modules]
    handles = tuple(
        type(handle).__name__ if handle is not None else None
        for handle in (mounted.selector, mounted.module, mounted.replica)
    )
    return order, handles


class TestMountIsTheSameOnBothSubstrates:
    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_same_start_order_and_handles(self, stack):
        fields, expected_order = STACKS[stack]
        deployment = Deployment(n=N, f=F, **fields)
        deployment.validate()
        shapes = []
        for make_host in (sim_host, net_host):
            host = make_host()
            mounted = mount(host, deployment)
            assert mounted.module is mounted.selector.module
            assert (mounted.replica is None) == (deployment.protocol is None)
            if mounted.replica is not None:
                assert mounted.replica.selector is mounted.selector
                assert mounted.replica.batch_size == deployment.batch_size
            assert host.fd.policy.base_timeout == deployment.base_timeout
            shapes.append(shape(host, mounted))
        sim_shape, net_shape = shapes
        assert sim_shape == net_shape
        assert sim_shape[0] == expected_order

    def test_reliable_transport_sits_between_heartbeat_and_selection(self):
        host = sim_host()
        mounted = mount(host, Deployment(n=N, f=F, reliable=True, heartbeats=False))
        order, _handles = shape(host, mounted)
        assert order == ["FailureDetector", "ReliableTransport", "QuorumSelectionModule"]
        assert mounted.module.transport is host._modules[0]


class TestOneValidator:
    @pytest.mark.parametrize("fields", [
        dict(n=4, f=2),
        dict(n=4, f=1, selector="nope"),
        dict(n=6, f=2, selector="fs"),
        dict(n=4, f=1, selector="all"),  # a bare stack needs a selection module
        dict(n=4, f=1, protocol="nope"),
        dict(n=4, f=1, service="kv"),  # a service needs a protocol
        dict(n=4, f=1, protocol="xpaxos", service="sql"),
        dict(n=4, f=1, heartbeat_period=0.0),
        dict(n=4, f=1, base_timeout=-1.0),
        dict(n=4, f=1, protocol="xpaxos", batch_size=0),
        dict(n=4, f=1, protocol="xpaxos", batch_window=-0.1),
        dict(n=4, f=1, protocol="xpaxos", checkpoint_interval=0),
        dict(n=4, f=1, anti_entropy_period=0.0),
    ], ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()))
    def test_rejects(self, fields):
        with pytest.raises(ConfigurationError):
            Deployment(**fields).validate()

    @pytest.mark.parametrize("bad", [
        dict(heartbeat_period=0.0),
        dict(base_timeout=0.0),
        dict(batch_size=0),
    ], ids=lambda bad: next(iter(bad)))
    def test_bad_cluster_config_is_rejected_before_any_process_starts(
        self, bad, monkeypatch
    ):
        spawned = []

        def popen(*args, **kwargs):
            spawned.append(args)
            raise AssertionError("run_cluster started a process")

        monkeypatch.setattr(cluster_module.subprocess, "Popen", popen)
        config = ClusterConfig(
            n=4, f=1, service="kv", protocol="xpaxos", duration=1.0, **bad
        )
        with pytest.raises(ConfigurationError):
            config.validate()
        with pytest.raises(ConfigurationError):
            run_cluster(config)
        assert spawned == []


class TestLiveConfigs:
    def test_fields_build_the_deployment_over_the_live_defaults(self):
        config = ClusterConfig(n=5, f=2, selector="fs", base_timeout=3.0)
        assert config.deployment == Deployment(
            n=5, f=2, selector="fs", **{**LIVE_DEFAULTS, "base_timeout": 3.0}
        )
        assert (config.n, config.f) == (5, 2)

    def test_every_live_path_takes_the_live_defaults(self):
        # The fields form and a live_deployment handed in whole (the load
        # drivers, the parity runner) give one deployment.
        fields = dict(n=4, f=1, protocol="xpaxos", service="kv")
        deployment = live_deployment(**fields)
        assert ClusterConfig(deployment=deployment) == ClusterConfig(**fields)
        assert NodeConfig(pid=1, deployment=deployment) == NodeConfig(pid=1, **fields)

    def test_deployment_or_its_fields_not_both(self):
        with pytest.raises(TypeError):
            NodeConfig(pid=1, deployment=Deployment(n=4, f=1), n=4)

    def test_node_spec_round_trips(self):
        config = NodeConfig(
            pid=2, n=4, f=1, selector="all", protocol="ibft", service="kv",
            checkpoint_interval=None, peers={1: ("127.0.0.1", 9000)},
            kills_at=(1.5,), service_clients=3,
        )
        assert parse_node_spec(node_spec(config)) == config

    def test_cluster_serialises_its_one_deployment(self):
        config = ClusterConfig(
            n=4, f=1, selector="fs", protocol="xpaxos", service="kv",
            checkpoint_interval=None, kills=((2, 1.0),), recovers=((2, 2.0),),
        )
        nodes = [
            parse_node_spec(cluster_module._node_command(config, pid)[-1])
            for pid in (1, 2)
        ]
        assert all(node.deployment == config.deployment for node in nodes)
        assert (nodes[0].kills_at, nodes[1].kills_at) == ((), (1.0,))
        assert nodes[1].recovers_at == (2.0,)


class TestServiceOnEverySelector:
    @pytest.mark.parametrize("selector", ["fs", "all"])
    def test_fault_free_sim_load(self, selector):
        report = run_sim_load(n=4, f=1, clients=4, duration=40.0, seed=3,
                              selector=selector)
        assert report["completed"] == report["offered"] > 0
        assert report["at_most_once"]
        assert report["digests_agree"]
        replicas = report["world"].replicas.values()
        assert {replica.selector.__class__.__name__ for replica in replicas} == {
            {"fs": "FsSelector", "all": "AllSelector"}[selector]
        }

    def test_client_follows_the_fs_leader_after_a_leader_change(self):
        world = build_kv_service_world(n=N, f=F, clients=1, seed=3, selector="fs")
        client = world.clients[N + 1]
        requests = []
        send = client.host.send

        def spy(dst, kind, payload):
            if kind == KIND_REQUEST:
                requests.append(dst)
            return send(dst, kind, payload)

        client.host.send = spy
        ops = iter(range(10_000))

        def feed(*_completion):
            if world.sim.now < 150.0:
                client.submit(("put", "k", next(ops)), feed)

        world.sim.at(1.0, feed)
        world.adversary.crash(1, at=20.0)
        world.sim.run_until(200.0)

        assert client.idle
        view = client.believed_view
        leader = FsSelector(N, F).leader_of(view)
        assert view > 0 and leader != 1
        # The qs mapping names another replica here, so the check bites.
        assert leader_of_view(view, N, N - F) != leader
        requests.clear()
        client.submit(("get", "k"))
        assert requests == [leader]


@pytest.mark.net
@pytest.mark.parametrize("selector", ["fs", "all"])
def test_live_service_cluster(selector, tmp_path):
    from repro.service.live import run_live_load_blocking

    report = run_live_load_blocking(
        n=N, f=F, clients=4, duration=2.0, drain=1.0, selector=selector,
        run_dir=tmp_path,
    )
    assert report["completed"] > 0
    assert report["at_most_once"]
    assert report["digests_agree"]
    assert report["cluster"]["agreement"]
    finals = []
    for pid in range(1, N + 1):
        lines = (tmp_path / f"node_{pid}.jsonl").read_text().splitlines()
        finals += [r for r in map(json.loads, lines) if r["event"] == "final"]
    views = {final["service"]["view"] for final in finals}
    assert len(finals) == N and len(views) == 1
    # The agreed quorum is the one the selector names for the agreed view
    # (``all`` has no selection module: the final record reads it off the
    # selector at the replica's view).
    quorum = report["cluster"]["final_quorum"]
    assert quorum is not None
    assert len(quorum) == (N if selector == "all" else N - F)
    assert quorum == sorted(make_selector(selector, N, F).quorum_of(views.pop()))
