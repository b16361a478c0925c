"""Tests for the XPaxos client and the quorum policies."""

import pytest

from repro.protocol.enumeration import quorum_for_view
from repro.protocol.policy import EnumerationPolicy, SelectionPolicy
from repro.xpaxos.system import build_system


class TestEnumerationPolicy:
    def setup_method(self):
        self.policy = EnumerationPolicy(5, 2)

    def test_quorum_and_leader(self):
        assert self.policy.quorum_of(0) == frozenset({1, 2, 3})
        assert self.policy.leader_of(0) == 1
        assert self.policy.leader_of(6) == min(quorum_for_view(6, 5, 3))

    def test_suspicion_in_quorum_advances_one_view(self):
        assert self.policy.next_view_on_suspicion(0, frozenset({2})) == 1

    def test_suspicion_outside_quorum_ignored(self):
        assert self.policy.next_view_on_suspicion(0, frozenset({5})) is None

    def test_ignores_selected_quorums(self):
        assert self.policy.view_for_selected_quorum(frozenset({2, 3, 4}), 0) is None


class TestSelectionPolicy:
    def setup_method(self):
        self.policy = SelectionPolicy(5, 2)

    def test_suspicions_alone_do_not_move_views(self):
        assert self.policy.next_view_on_suspicion(0, frozenset({1, 2, 3})) is None

    def test_selected_quorum_maps_to_its_view(self):
        target = frozenset({2, 3, 4})
        view = self.policy.view_for_selected_quorum(target, 0)
        assert view is not None
        assert self.policy.quorum_of(view) == target

    def test_current_quorum_is_a_no_op(self):
        current = self.policy.quorum_of(3)
        assert self.policy.view_for_selected_quorum(current, 3) is None

    def test_same_quorum_next_cycle_when_behind(self):
        # Selecting a quorum whose rank is behind the current view jumps
        # a full enumeration cycle forward.
        target = self.policy.quorum_of(0)
        view = self.policy.view_for_selected_quorum(target, 5)
        assert view == 10  # rank 0 + one C(5,3)=10 cycle
        assert self.policy.quorum_of(view) == target


class TestClientBehaviour:
    def test_client_done_flag(self):
        system = build_system(n=5, f=2, clients=1, seed=3,
                              client_ops=[[("put", "k", 1), ("get", "k")]])
        client = list(system.clients.values())[0]
        assert not client.done
        system.run(100.0)
        assert client.done
        assert [entry[2] for entry in client.completed] == [None, 1]

    def test_client_latency_stats(self):
        system = build_system(n=5, f=2, clients=1, seed=3)
        system.run(300.0)
        client = list(system.clients.values())[0]
        assert client.mean_latency() > 0
        assert client.throughput() > 0
        assert client.throughput(until=0.0) == 0.0

    def test_client_learns_new_leader_from_replies(self):
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        client = list(system.clients.values())[0]
        assert client.believed_view > 0
        assert client.done

    def test_retransmission_drives_progress_through_crash(self):
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9,
                              client_retry=15.0)
        system.adversary.crash(1, at=10.0)
        system.run(600.0)
        assert system.total_completed() == 20
        assert system.sim.log.count("client.retry") >= 1

    def test_duplicate_replies_do_not_double_complete(self):
        system = build_system(n=5, f=2, clients=1, seed=3,
                              client_ops=[[("put", "k", 1)]])
        system.run(100.0)
        client = list(system.clients.values())[0]
        assert len(client.completed) == 1

    def test_zero_clients_allowed(self):
        system = build_system(n=5, f=2, clients=0, seed=3)
        system.run(50.0)
        assert system.total_completed() == 0

    def test_mean_latency_zero_when_empty(self):
        system = build_system(n=5, f=2, clients=1, seed=3, client_ops=[[]])
        system.run(10.0)
        client = list(system.clients.values())[0]
        assert client.mean_latency() == 0.0
        assert client.throughput() == 0.0


class _StubHost:
    """Minimal host for client arithmetic tests (no scheduler needed)."""

    def __init__(self):
        self.pid = 9
        self.now = 0.0
        self._modules = []

    def add_module(self, module):
        self._modules.append(module)
        return module

    def subscribe(self, kind, handler):
        pass


class TestClientDiagnostics:
    def test_throughput_measured_from_client_start(self):
        from repro.xpaxos.client import XPaxosClient

        host = _StubHost()
        client = XPaxosClient(host, n=5, f=2, ops=[])
        host.now = 50.0
        client.start()
        assert client.started_at == 50.0
        # Two completions at t=60 and t=80; horizon t=100 -> 2 ops / 50 units.
        client.completed.append((0, ("get", "k"), None, 1.0, 60.0))
        client.completed.append((1, ("get", "k"), None, 1.0, 80.0))
        host.now = 100.0
        assert client.throughput() == pytest.approx(2 / 50.0)
        # A horizon before the client started never divides by <= 0.
        assert client.throughput(until=40.0) == 0.0
        assert client.throughput(until=50.0) == 0.0

    def test_retry_timers_stay_bounded_over_many_requests(self):
        # Regression: each request used to arm a fresh retry chain without
        # cancelling the previous one, so scheduler pending() grew with the
        # number of requests when retry_timeout was long.
        ops = [[("put", f"k{i}", i) for i in range(20)]]
        system = build_system(n=5, f=2, clients=1, seed=3,
                              client_ops=ops, client_retry=10_000.0)
        system.run(400.0)
        client = list(system.clients.values())[0]
        assert client.done
        assert len(client.completed) == 20
        live_retries = [
            event
            for _, _, event in system.sim.scheduler._queue
            if not event.cancelled and (event.label or "").startswith("client-retry")
        ]
        assert len(live_retries) <= 1

    def test_redirect_to_new_leader_after_view_change(self):
        # After a leader crash the client broadcasts on timeout, learns the
        # new view from replies, and sends subsequent requests straight to
        # the new leader — no broadcast, no retry.
        from repro.protocol.enumeration import leader_of_view

        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        client = list(system.clients.values())[0]
        assert client.done and client.believed_view > 0
        new_leader = leader_of_view(client.believed_view, 5, 3)
        assert new_leader != 1

        sent = []
        original_send = client.host.send

        def recording_send(dst, kind, payload):
            sent.append((dst, kind))
            return original_send(dst, kind, payload)

        client.host.send = recording_send
        retries_before = system.sim.log.count("client.retry")
        done_before = len(client.completed)
        client.ops.extend([("put", "redirect", i) for i in range(3)])
        client._next_request()
        system.run(900.0)

        assert len(client.completed) == done_before + 3
        assert system.sim.log.count("client.retry") == retries_before
        request_targets = [dst for dst, kind in sent if kind == "xp.request"]
        assert request_targets == [new_leader] * 3
