"""Tests for leader-side request batching."""

import pytest

from repro.util.errors import ConfigurationError
from repro.xpaxos.messages import KIND_PREPARE
from repro.xpaxos.system import build_system


def agreement_messages(system):
    return system.sim.stats.total_sent(["xp.prepare", "xp.commit"])


class TestBatchingCorrectness:
    def test_batched_run_completes_and_agrees(self):
        system = build_system(n=5, f=2, clients=4, seed=7, batch_size=4, batch_window=1.0)
        system.run(600.0)
        assert system.total_completed() == 80
        assert system.histories_consistent()

    def test_batched_slots_carry_multiple_requests(self):
        system = build_system(n=5, f=2, clients=4, seed=7, batch_size=4, batch_window=1.0)
        system.run(600.0)
        leader = system.replicas[1]
        # Fewer slots than requests: batching actually happened.
        assert len(leader.executed_certs) < len(leader.executed)
        # And every certificate covers its whole batch.
        covered = sum(
            len(cert.prepare.payload.requests) for cert in leader.executed_certs
        )
        assert covered == len(leader.executed)

    def test_batching_reduces_agreement_messages(self):
        def run(batch_size, batch_window):
            system = build_system(
                n=5, f=2, clients=4, seed=7,
                batch_size=batch_size, batch_window=batch_window,
            )
            system.run(600.0)
            assert system.total_completed() == 80
            return agreement_messages(system)

        unbatched = run(1, 0.0)
        batched = run(4, 1.0)
        assert batched < unbatched

    def test_replies_still_per_request(self):
        system = build_system(n=5, f=2, clients=2, seed=7, batch_size=8, batch_window=1.0)
        system.run(600.0)
        for client in system.clients.values():
            sequences = [entry[0] for entry in client.completed]
            assert sequences == sorted(set(sequences))
            assert len(sequences) == 20

    def test_batch_survives_view_change(self):
        system = build_system(
            n=5, f=2, mode="selection", clients=2, seed=9,
            batch_size=4, batch_window=1.0, client_think_time=3.0,
        )
        system.adversary.crash(1, at=30.0)
        system.run(900.0)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        # Certificates for batched slots verify at the replicas that
        # installed them via NEW-VIEW.
        from repro.xpaxos.messages import certificate_is_valid

        replica = system.replicas[4]
        verify = system.sim.host(4).authenticator.verify
        for index, cert in enumerate(replica.executed_certs):
            assert certificate_is_valid(cert, index, replica.selector, verify)

    def test_default_batching_is_one_per_slot(self):
        system = build_system(n=5, f=2, clients=1, seed=7)
        system.run(300.0)
        leader = system.replicas[1]
        assert len(leader.executed_certs) == len(leader.executed)


class TestBatchingConfiguration:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            build_system(n=5, f=2, batch_size=0)

    def test_rejects_negative_window(self):
        with pytest.raises(ConfigurationError):
            build_system(n=5, f=2, batch_window=-1.0)
