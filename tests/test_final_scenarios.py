"""Last-mile scenario tests: mid-flight failures and double faults."""

from repro.core.spec import agreement_holds, no_link_suspicion_holds
from tests.test_core_chain_selection import build_cs_world
from tests.test_leadercentric import build_star_system


class TestStarMidFlightCrash:
    def test_leader_crash_with_requests_in_flight(self):
        # The leader dies the instant the first requests are in flight:
        # retransmission + certified state transfer recover them under
        # the new leader.
        system = build_star_system(clients=2, seed=17, client_retry=15.0)
        system.adversary.crash(1, at=2.0)
        system.run(1200.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert system.current_config()[0] != 1

    def test_two_sequential_leader_crashes(self):
        system = build_star_system(clients=1, seed=19, client_retry=15.0)
        system.adversary.crash(1, at=10.0)

        def crash_next_leader():
            leader = system.current_config()[0]
            if leader != 1:
                system.adversary.crash(leader, at=system.sim.now + 1.0)

        system.sim.at(120.0, crash_next_leader)
        system.run(1500.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        leader, members = system.current_config()
        assert all(system.sim.host(m).running for m in members if m == leader)


class TestChainDoubleCrash:
    def test_two_crashes_reorder_chain(self):
        sim, modules = build_cs_world(5, 2)
        sim.at(10.0, lambda: sim.host(1).crash())
        sim.at(20.0, lambda: sim.host(3).crash())
        sim.run_until(250.0)
        correct = [modules[p] for p in (2, 4, 5)]
        chains = {m.chain for m in correct}
        assert len(chains) == 1
        final = chains.pop()
        assert not {1, 3} & set(final)
        assert agreement_holds(correct)
        assert no_link_suspicion_holds(correct)
