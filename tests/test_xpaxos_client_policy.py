"""Tests for the XPaxos client and the selectors it and the replicas consult."""

from types import SimpleNamespace

import pytest

from repro.protocol.enumeration import config_for_view, quorum_for_view, view_for_config
from repro.protocol.selector import SELECTORS, as_selector, make_selector
from repro.util.errors import ConfigurationError
from repro.xpaxos.system import build_system


def selected(quorum, leader=None):
    """A ``<QUORUM, ...>`` event as a selector reads it."""
    return SimpleNamespace(quorum=frozenset(quorum), leader=leader)


class TestEnumerationPolicy:
    def setup_method(self):
        self.policy = make_selector("enum", 5, 2)

    def test_quorum_and_leader(self):
        assert self.policy.quorum_of(0) == frozenset({1, 2, 3})
        assert self.policy.leader_of(0) == 1
        assert self.policy.leader_of(6) == min(quorum_for_view(6, 5, 3))
        assert self.policy.module is None and self.policy.accepts(99)

    def test_suspicion_in_quorum_advances_one_view(self):
        assert self.policy.view_on_suspicion(0, frozenset({2})) == 1

    def test_suspicion_outside_quorum_ignored(self):
        assert self.policy.view_on_suspicion(0, frozenset({5})) is None

    def test_ignores_selected_quorums(self):
        assert self.policy.view_on_selected(selected({2, 3, 4}), 0) is None


class TestSelectionPolicy:
    def setup_method(self):
        self.policy = make_selector("qs", 5, 2)

    def test_suspicions_alone_do_not_move_views(self):
        assert self.policy.view_on_suspicion(0, frozenset({1, 2, 3})) is None

    def test_selected_quorum_maps_to_its_view(self):
        target = frozenset({2, 3, 4})
        view = self.policy.view_on_selected(selected(target), 0)
        assert view is not None
        assert self.policy.quorum_of(view) == target

    def test_current_quorum_is_a_no_op(self):
        current = self.policy.quorum_of(3)
        assert self.policy.view_on_selected(selected(current), 3) is None

    def test_same_quorum_next_cycle_when_behind(self):
        # Selecting a quorum whose rank is behind the current view jumps
        # a full enumeration cycle forward.
        target = self.policy.quorum_of(0)
        view = self.policy.view_on_selected(selected(target), 5)
        assert view == 10  # rank 0 + one C(5,3)=10 cycle
        assert self.policy.quorum_of(view) == target


class TestFollowerAndAllSelectors:
    N, F, Q = 7, 2, 5

    def test_fs_view_zero_is_the_default_configuration(self):
        fs = make_selector("fs", self.N, self.F)
        assert (fs.leader_of(0), fs.quorum_of(0)) == (1, frozenset(range(1, 6)))

    def test_fs_enumeration_round_trips_and_respects_min_view(self):
        cycle = self.N * 15  # n * C(n-1, q-1)
        seen = set()
        for view in range(cycle):
            leader, quorum = config_for_view(view, self.N, self.Q)
            assert leader in quorum and len(quorum) == self.Q
            seen.add((leader, quorum))
            assert view_for_config(leader, quorum, self.N, self.Q, 0) == view
            for min_view in (view, view + 1, cycle + 3):
                again = view_for_config(leader, quorum, self.N, self.Q, min_view)
                assert again >= min_view and again % cycle == view
        assert len(seen) == cycle
        assert config_for_view(cycle + 4, self.N, self.Q) == config_for_view(4, self.N, self.Q)

    def test_fs_leader_need_not_be_the_lowest_id(self):
        fs = make_selector("fs", self.N, self.F)
        event = selected({1, 2, 3, 4, 5}, leader=4)
        view = fs.view_on_selected(event, 0)
        assert view > 0 and fs.leader_of(view) == 4 != min(fs.quorum_of(view))
        assert fs.view_on_selected(event, view) is None  # already there
        assert fs.view_on_suspicion(view, frozenset({4})) is None

    def test_fs_rejects_n_not_above_3f(self):
        with pytest.raises(ConfigurationError):
            make_selector("fs", 6, 2)
        with pytest.raises(ConfigurationError):
            view_for_config(6, {1, 2, 3, 4, 5}, self.N, self.Q, 0)  # leader not a member

    def test_all_is_every_replica_and_never_moves(self):
        everyone = make_selector("all", self.N, self.F)
        for view in (0, 1, 50):
            assert everyone.quorum_of(view) == frozenset(range(1, 8))
            assert everyone.leader_of(view) == 1
        assert everyone.q == 5 and everyone.module is None
        assert everyone.view_on_suspicion(0, frozenset({1, 2})) is None
        assert everyone.view_on_selected(selected({3, 4, 5, 6, 7}), 0) is None
        assert not everyone.accepts(1)

    def test_registry_and_module_conversion(self):
        assert sorted(SELECTORS) == ["all", "enum", "fs", "qs"]
        with pytest.raises(ConfigurationError):
            make_selector("nope", 4, 1)
        assert isinstance(as_selector(None, 4, 1), SELECTORS["enum"])
        qs = make_selector("qs", 4, 1)
        assert as_selector(qs, 4, 1) is qs
        system = build_system(n=7, f=2, clients=0)
        assert system.replicas[1].selector.module is system.qs_modules[1]
        wrapped = as_selector(system.qs_modules[1], 7, 2)
        assert isinstance(wrapped, SELECTORS["qs"]) and wrapped.module is system.qs_modules[1]


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
        client = XPaxosClient(host, n=5, f=2, ops=[], leader_of=lambda view: 1)
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
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=9)
        system.adversary.crash(1, at=30.0)
        system.run(800.0)
        client = list(system.clients.values())[0]
        assert client.done and client.believed_view > 0
        new_leader = client.leader_of(client.believed_view)
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
