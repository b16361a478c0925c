"""Regression guard: world/config assembly is backend-neutral (satellite 4).

``attach_kv_service_stack`` / ``build_kv_service_world`` used to
hard-import the XPaxos replica; they now resolve the replica layer
through the :class:`~repro.protocol.backend.ProtocolBackend` registry.
These tests pin that down: every registered backend assembles and runs
through the shared service-world path, and an unknown protocol name is
rejected with :class:`ConfigurationError` at every entry point a user
can reach (registry, sim builders, node config, cluster config).
"""

import pytest

from repro.net.cluster import ClusterConfig
from repro.net.node import NodeConfig
from repro.protocol.backend import backend_names, get_backend
from repro.protocol.selector import SELECTORS
from repro.protocol.system import build_backend_system
from repro.service.loadgen import run_sim_load
from repro.sim.worlds import build_kv_service_world
from repro.util.errors import ConfigurationError

PROTOCOLS = sorted(backend_names())


@pytest.fixture(params=PROTOCOLS)
def protocol(request):
    return request.param


class TestWorldsBuildWithEitherBackend:
    def test_service_world_mounts_the_named_backend(self, protocol):
        world = build_kv_service_world(n=4, f=1, clients=1, seed=3,
                                       protocol=protocol)
        assert world.protocol == protocol
        world.sim.run_until(60.0)
        backend = get_backend(protocol)
        for pid, replica in world.replicas.items():
            status = backend.observe(replica)
            assert status.protocol == protocol
            assert status.status == "normal"
            assert status.quorum == frozenset(world.qs_modules[pid].current_quorum)

    def test_sim_loadgen_completes_under_either_backend(self, protocol):
        report = run_sim_load(n=4, f=1, clients=2, duration=40.0, seed=3,
                              protocol=protocol)
        assert report["protocol"] == protocol
        assert report["completed"] == report["offered"] > 0
        assert report["at_most_once"]
        assert report["digests_agree"]

    def test_backend_system_builds_for_every_registered_name(self, protocol):
        """... on every registered selector, from the one builder."""
        for selector in sorted(SELECTORS):
            system = build_backend_system(protocol, 4, 1, selector, clients=1, seed=3)
            assert system.backend.name == protocol
            assert isinstance(system.replicas[1].selector, SELECTORS[selector])
            assert set(system.qs_modules) == (
                set() if selector in ("enum", "all") else {1, 2, 3, 4}
            )
            system.run(120.0)
            assert system.total_completed() > 0, selector
            # The client addressed the selector's leader: no retry broadcast.
            assert not system.sim.log.events(kind="client.retry")


class TestUnknownProtocolIsRejectedEverywhere:
    def test_registry_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_backend("nope")

    def test_service_world_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_kv_service_world(n=4, f=1, clients=1, protocol="nope")

    def test_backend_system_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_backend_system("nope", n=4, f=1)
        with pytest.raises(ConfigurationError):
            build_backend_system("xpaxos", n=4, f=1, selector="nope")

    def test_node_config_rejects_unknown_name(self):
        config = NodeConfig(pid=1, n=4, f=1, service="kv", protocol="nope")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_cluster_config_rejects_unknown_name(self):
        config = ClusterConfig(n=4, f=1, service="kv", protocol="nope")
        with pytest.raises(ConfigurationError):
            config.validate()
