"""Tests for ProcessHost, Module wiring, and the Simulation runtime."""

import pytest

from repro.host import Module
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import ConfigurationError


class Recorder(Module):
    """Test module: records deliveries of one kind."""

    def __init__(self, host, kind="msg"):
        super().__init__(host)
        self.kind = kind
        self.received = []
        self.started = False

    def start(self):
        self.started = True
        self.host.subscribe(self.kind, lambda k, p, s: self.received.append((p, s)))


def make_sim(n=3, **kwargs):
    return Simulation(SimulationConfig(n=n, seed=1, **kwargs))


class TestHostBasics:
    def test_modules_started_once(self):
        sim = make_sim()
        module = sim.host(1).add_module(Recorder(sim.host(1)))
        sim.start()
        sim.start()  # idempotent
        assert module.started

    def test_send_and_deliver(self):
        sim = make_sim()
        receiver = sim.host(2).add_module(Recorder(sim.host(2)))
        sim.start()
        sim.host(1).send(2, "msg", "payload")
        sim.run_until(10.0)
        assert receiver.received == [("payload", 1)]

    def test_unknown_kind_dropped_silently(self):
        sim = make_sim()
        sim.host(2).add_module(Recorder(sim.host(2), kind="other"))
        sim.start()
        sim.host(1).send(2, "msg", "payload")
        sim.run_until(10.0)  # no exception, no delivery

    def test_broadcast_includes_self_via_local_path(self):
        sim = make_sim()
        modules = {
            pid: sim.host(pid).add_module(Recorder(sim.host(pid))) for pid in sim.pids
        }
        sim.start()
        sim.host(1).broadcast([1, 2, 3], "msg", "x")
        sim.run_until(10.0)
        assert all(m.received == [("x", 1)] for m in modules.values())
        # Self-delivery does not traverse the network.
        assert sim.stats.sent_by_link.get((1, 1), 0) == 0

    def test_multiple_subscribers_all_notified(self):
        sim = make_sim()
        a = sim.host(2).add_module(Recorder(sim.host(2)))
        b = sim.host(2).add_module(Recorder(sim.host(2)))
        sim.start()
        sim.host(1).send(2, "msg", 1)
        sim.run_until(5.0)
        assert a.received and b.received


class TestTimers:
    def test_timer_fires(self):
        sim = make_sim()
        fired = []
        sim.start()
        sim.host(1).set_timer(3.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [3.0]

    def test_timer_cancel(self):
        sim = make_sim()
        fired = []
        sim.start()
        handle = sim.host(1).set_timer(3.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until(10.0)
        assert fired == []
        assert not handle.fired

    def test_timer_handle_states(self):
        sim = make_sim()
        sim.start()
        handle = sim.host(1).set_timer(3.0, lambda: None)
        assert handle.active
        sim.run_until(10.0)
        assert handle.fired and not handle.active


class TestCrash:
    def test_crashed_host_sends_nothing(self):
        sim = make_sim()
        receiver = sim.host(2).add_module(Recorder(sim.host(2)))
        sim.start()
        sim.host(1).crash()
        sim.host(1).send(2, "msg", "x")
        sim.run_until(10.0)
        assert receiver.received == []

    def test_crashed_host_timers_cancelled(self):
        sim = make_sim()
        fired = []
        sim.start()
        sim.host(1).set_timer(5.0, lambda: fired.append(1))
        handles = [sim.host(1).set_timer(6.0 + i, lambda: fired.append(1)) for i in range(3)]
        sim.at(1.0, lambda: sim.host(1).crash())
        sim.run_until(10.0)
        assert fired == []
        assert not any(handle.active or handle.fired for handle in handles)
        assert len(sim.host(1)._timers) == 0

    def test_crash_logged(self):
        sim = make_sim()
        sim.start()
        sim.host(1).crash()
        assert sim.log.count("crash", process=1) == 1

    def test_crashed_host_delivers_nothing(self):
        sim = make_sim()
        receiver = sim.host(2).add_module(Recorder(sim.host(2)))
        sim.start()
        sim.host(1).send(2, "msg", "x")
        sim.host(2).crash()
        sim.run_until(10.0)
        assert receiver.received == []


class TestRuntime:
    def test_rejects_empty_system(self):
        with pytest.raises(ConfigurationError):
            Simulation(SimulationConfig(n=0))

    def test_pids_are_one_based(self):
        assert make_sim(4).pids == [1, 2, 3, 4]

    def test_hosts_accessor(self):
        sim = make_sim(2)
        assert set(sim.hosts()) == {1, 2}

    def test_run_until_advances_clock(self):
        sim = make_sim()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_at_schedules_harness_action(self):
        sim = make_sim()
        fired = []
        sim.at(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulation(SimulationConfig(n=3, seed=seed))
            recorder = sim.host(2).add_module(Recorder(sim.host(2)))
            sim.start()
            for i in range(10):
                sim.host(1).send(2, "msg", i)
            sim.run_until(50.0)
            return [e.time for e in sim.log.events()], recorder.received

        assert run(5) == run(5)

    def test_different_seeds_differ(self):
        def delivery_times(seed):
            sim = Simulation(SimulationConfig(n=3, seed=seed))
            times = []
            sim.host(2).subscribe("msg", lambda k, p, s: times.append(sim.now))
            sim.start()
            for i in range(10):
                sim.host(1).send(2, "msg", i)
            sim.run_until(50.0)
            return times

        assert delivery_times(1) != delivery_times(2)

    def test_explicit_latency_model_used(self):
        from repro.sim.latency import FixedLatency

        sim = Simulation(SimulationConfig(n=2, seed=1, latency=FixedLatency(4.0)))
        times = []
        sim.host(2).subscribe("msg", lambda k, p, s: times.append(sim.now))
        sim.start()
        sim.host(1).send(2, "msg", None)
        sim.run_until(10.0)
        assert times == [4.0]
