"""Backend conformance battery: every ProtocolBackend honours the contract.

One parametrized suite, run against each registered backend on each
selection module (``qs`` — Algorithm 1, ``fs`` — Algorithm 2 at
``n = 3f + 1``) through :func:`~repro.protocol.system.build_backend_system`,
plus ``ibft`` on the static ``all`` selector.  The contract under test is
the quorum-consumption side of the paper's interface: replicas execute
client operations safely, adopt exactly the leader and quorum their
selection module issues, re-stabilize after losing their leader, survive
crash/recovery churn, and converge under chaotic networks — independent
of whether the vote phase is XPaxos's two-phase COMMITs, IBFT's
three-phase digest votes or the star's ACKs to the leader.  Everything the shared
:class:`~repro.protocol.replica.ReplicaCore` owns — checkpoints and
snapshot state transfer, the batch window, decision-change bookkeeping —
is checked here once per backend.
"""

import pytest

from repro.analysis.bounds import thm9_per_epoch_bound
from repro.net.parity import thm3_bound
from repro.net.wire import encode_frame_body
from repro.protocol.backend import backend_names, get_backend
from repro.protocol.system import build_backend_system
from repro.service.loadgen import LoadGenerator, Workload
from repro.sim.network import ChaosConfig
from repro.sim.worlds import build_kv_service_world
from repro.util.errors import ConfigurationError
from repro.xpaxos.messages import KIND_REQUEST, ClientRequest, ViewChangePayload

PROTOCOLS = sorted(backend_names())
#: Every backend's decision-change report kind (each backend uses one).
CHANGE_KINDS = tuple(get_backend(p).replica_class.kind_viewchange for p in PROTOCOLS)


#: Every backend on both selection modules; ``qs`` ids stay bare.
SELECTED = [
    pytest.param((protocol, selector),
                 id=protocol if selector == "qs" else f"{protocol}-{selector}")
    for selector in ("qs", "fs") for protocol in PROTOCOLS
]


@pytest.fixture(params=PROTOCOLS)
def protocol(request):
    """Service worlds mount Quorum Selection only."""
    return request.param


@pytest.fixture(params=SELECTED)
def mount(request):
    return request.param


@pytest.fixture(params=SELECTED + [pytest.param(("ibft", "all"), id="ibft-all")])
def any_mount(request):
    return request.param


def build(mount, n, f, **options):
    """The mounted system; Follower Selection gets its ``n = 3f + 1``."""
    protocol, selector = mount
    if selector == "fs":
        n = max(n, 3 * f + 1)
    return build_backend_system(protocol, n, f, selector, **options)


def initial_leader(system):
    return system.replicas[1].selector.leader_of(0)


def assert_adoption_matches_selection(system):
    """Every correct replica runs exactly what its selection module issued."""
    faulty = system.adversary.faulty if system.adversary else set()
    for pid, module in system.qs_modules.items():
        if pid in faulty or not system.sim.host(pid).running:
            continue
        status = system.observe(pid)
        assert status.quorum == frozenset(module.current_quorum), (
            f"{status.protocol} p{pid}: replica quorum {sorted(status.quorum)} "
            f"!= selected {sorted(module.current_quorum)}"
        )
        # Algorithm 2 names the leader too; Algorithm 1 implies the lowest id.
        assert status.leader == getattr(module, "leader", min(status.quorum))


def assert_epoch_envelope(system):
    """Theorem 3 (``f(f+1)``) resp. Theorem 9 (``3f+1``) quorums per epoch."""
    faulty = system.adversary.faulty if system.adversary else set()
    for pid, module in system.qs_modules.items():
        if pid in faulty:
            continue
        follower_selection = hasattr(module, "leader")
        bound = (thm9_per_epoch_bound if follower_selection else thm3_bound)(system.f)
        assert module.max_quorums_in_any_epoch() <= bound


class TestAgreementSafety:
    def test_fault_free_run_completes_and_agrees(self, any_mount):
        system = build(any_mount, n=4, f=1, clients=2, seed=3)
        system.run(600.0)

        assert system.total_completed() == 40
        assert system.histories_consistent()
        # Fault-free: every replica executed the full history, normally.
        for pid in system.replica_pids:
            status = system.observe(pid)
            assert status.status == "normal"
            assert status.executed == status.commits
        executed = {system.observe(pid).executed for pid in system.replica_pids
                    if pid in system.observe(pid).quorum}
        assert executed == {40}
        assert_adoption_matches_selection(system)

    def test_observe_reports_the_backend_contract(self, any_mount):
        system = build(any_mount, n=4, f=1, clients=1, seed=3)
        system.run(300.0)
        status = system.observe(1)
        assert status.protocol == any_mount[0] == system.backend.name
        replica_class = system.backend.replica_class
        assert system.backend.decision_term == replica_class.term
        assert system.backend.fd_group == replica_class.fd_group
        assert system.backend.replica_kinds == replica_class.wire_kinds()
        assert status.decision_number == 0
        assert len(status.quorum) == (4 if any_mount[1] == "all" else 3)
        assert status.leader == 1 and status.leader in status.quorum

    def test_all_replicas_decide_on_q_matching_votes(self):
        """``ibft`` on ``all`` at n=7 f=2: the classic broadcast pattern,
        ``(n-1)(2n-1)`` messages per decision, and ``f`` silent non-leader
        replicas cost nothing but their votes."""
        ops = [[("put", f"k{i}", i) for i in range(10)]]
        system = build_backend_system("ibft", 7, 2, "all", client_ops=ops, seed=7)
        system.run(400.0)
        assert system.total_completed() == 10
        assert system.protocol_message_costs()["per_decision"] == 6 * 13 == 78

        system = build_backend_system("ibft", 7, 2, "all", client_ops=ops, seed=7)
        for silent in (3, 6):
            system.adversary.crash(silent, at=0.5)
        system.run(600.0)
        assert system.total_completed() == 10 and system.histories_consistent()
        for replica in system.correct_replicas():
            assert len(replica.executed) == 10 and replica.view == 0
            for index, certificate in enumerate(replica.executed_certs):
                assert len(certificate.commits) + 1 >= replica.q
                assert replica.certificate_is_valid(
                    certificate, index, replica.selector, replica._verify
                )


class TestQuorumAdoption:
    def test_replicas_follow_qs_after_quorum_member_dies(self, mount):
        system = build(mount, n=5, f=2, clients=1, seed=3)
        victim = initial_leader(system)
        system.adversary.crash(victim, at=60.0)
        system.run(900.0)

        assert system.total_completed() == 20
        assert system.histories_consistent()
        for pid in system.replica_pids:
            if pid == victim:
                continue
            assert victim not in system.observe(pid).quorum
        assert_adoption_matches_selection(system)
        assert_epoch_envelope(system)


class TestLeaderKillRestabilization:
    def test_workload_survives_leader_kill(self, mount):
        system = build(mount, n=4, f=1, clients=2, seed=7)
        leader = initial_leader(system)
        system.adversary.crash(leader, at=40.0)
        system.run(900.0)

        assert system.total_completed() == 40
        assert system.histories_consistent()
        for pid in system.replica_pids:
            if pid == leader:
                continue
            status = system.observe(pid)
            assert leader not in status.quorum
            if pid in status.quorum:
                assert status.status == "normal"
                assert status.decision_number > 0
        assert_epoch_envelope(system)


class TestCrashRecovery:
    def test_killed_leader_recovering_keeps_safety_and_liveness(self, mount):
        system = build(mount, n=4, f=1, clients=2, seed=11)
        leader = initial_leader(system)
        system.adversary.crash(leader, at=40.0)
        system.sim.at(
            200.0,
            lambda: system.sim.host(leader).recover(),
            label=f"recover-p{leader}",
        )
        system.run(900.0)

        assert system.sim.host(leader).running
        assert system.total_completed() == 40
        assert system.histories_consistent()
        assert_epoch_envelope(system)

    def test_non_quorum_member_churn_changes_nothing(self, protocol):
        """Killing and recovering a spare never forces a quorum change.

        Quorum Selection only: under Algorithm 2 the leader's suspicion of
        the dead spare is a suspicion on a leader link, and moves the leader.
        """
        system = build_backend_system(protocol, n=5, f=2, clients=1, seed=3)
        spare = max(system.replica_pids)
        assert spare not in system.replicas[1].selector.quorum_of(0)
        system.adversary.crash(spare, at=40.0)
        system.sim.at(
            100.0, lambda: system.sim.host(spare).recover(),
            label=f"recover-p{spare}",
        )
        system.run(600.0)

        assert system.total_completed() == 20
        for pid in system.replica_pids:
            status = system.observe(pid)
            assert status.status == "normal"
            assert status.decision_number == 0
        for qs in system.qs_modules.values():
            assert qs.total_quorums_issued() == 0
        assert_adoption_matches_selection(system)


class TestChaosConvergence:
    def test_lossy_network_converges_safely(self, mount):
        """Chaos may cost liveness windows and false suspicions — never safety."""
        system = build(
            mount, n=4, f=1, clients=1, seed=3,
            chaos=ChaosConfig(drop=0.02, duplicate=0.02, reorder=0.05),
            client_retry=20.0,
        )
        system.run(900.0)

        assert system.histories_consistent()
        assert system.total_completed() > 0
        # No Theorem 3 claim here: random loss falsely implicates correct
        # processes, voiding the <=f-faults premise.  What must survive
        # chaos is safety plus the adoption contract.
        assert_adoption_matches_selection(system)


def checkpointed_leader_kill(mount):
    """Two clients, a checkpoint every 5 slots, the leader dies at t=60."""
    system = build(
        mount, n=5, f=2, clients=2, seed=9,
        checkpoint_interval=5, client_think_time=3.0,
    )
    system.adversary.crash(1, at=60.0)
    system.run(1200.0)
    return system


class TestCheckpointing:
    """Log compaction and snapshot state transfer live in the shared core."""

    def test_compaction_bounds_the_certificate_log(self, any_mount):
        system = build(any_mount, n=5, f=2, clients=2, seed=7, checkpoint_interval=10)
        system.run(600.0)
        assert system.total_completed() == 40
        for pid in sorted(system.observe(1).quorum):
            replica = system.replicas[pid]
            assert system.observe(pid).checkpoints >= 3
            assert replica.checkpoint_slot >= 30
            assert len(replica.executed_certs) <= 10
            assert replica.total_slots == 40
            assert len(replica.executed) == 40  # flat history stays whole

    def test_no_checkpoints_unless_asked(self, protocol):
        system = build_backend_system(protocol, n=5, f=2, clients=1, seed=7)
        system.run(300.0)
        replica = system.replicas[1]
        assert system.observe(1).checkpoints == 0 and replica.checkpoint is None
        assert len(replica.executed_certs) == len(replica.executed) == 20

    def test_interval_zero_is_rejected(self, protocol):
        with pytest.raises(ConfigurationError):
            build_backend_system(protocol, n=5, f=2, checkpoint_interval=0)

    def test_lagging_replica_adopts_a_snapshot(self, mount):
        # The spares were passive in decision 0; joining the next quorum
        # they catch up through the certified snapshot, not a slot-0 replay.
        system = checkpointed_leader_kill(mount)
        assert system.total_completed() == 40
        assert system.histories_consistent()
        kinds = [event.kind.partition(".")[2] for event in system.sim.log]
        assert "snapshot-adopted" in kinds and "divergence" not in kinds
        current = [r for r in system.correct_replicas() if r.in_quorum]
        assert {len(r.executed) for r in current} == {40}
        assert len({r.kv.state_digest() for r in current}) == 1

    def test_state_transfer_payload_is_flat_in_total_requests(self, protocol):
        """D1: service-mode decision-change frames do not grow with load."""
        small, small_world = decision_change_frame_size(protocol, duration=150.0)
        large, large_world = decision_change_frame_size(protocol, duration=600.0)
        few, many = (
            max(replica.kv.applied_requests for replica in world.replicas.values())
            for world in (small_world, large_world)
        )
        assert many >= 3.5 * few > 0
        replica = large_world.replicas[2]
        certificate = max(
            len(encode_frame_body("state", cert, 2)) for cert in replica.executed_certs
        )
        assert large <= small + 16 * certificate
        for world in (small_world, large_world):
            for member in (2, 3):
                assert world.replicas[member].checkpoints_made > 0
                assert len(world.replicas[member].executed) <= 16 * 4  # interval x batch


def decision_change_frame_size(protocol, duration):
    """Largest VIEW-/ROUND-CHANGE frame after ``duration`` of service load.

    Closed-loop KV load with a checkpoint every 16 slots, then the
    leader dies; p2 records the encoded size of every report it is sent.
    """
    world = build_kv_service_world(
        n=4, f=1, clients=8, seed=3, batch_size=4, batch_window=0.5,
        checkpoint_interval=16, protocol=protocol,
    )
    sizes = []
    for change_kind in CHANGE_KINDS:
        world.sim.host(2).subscribe(
            change_kind,
            lambda kind, payload, src: sizes.append(len(encode_frame_body(kind, payload, src))),
        )
    generator = LoadGenerator(
        world.gen_host, list(world.clients.values()), Workload(seed=3), duration=duration
    )
    world.sim.scheduler.schedule(0.0, generator.start, label="load-start")
    world.adversary.crash(1, at=duration)
    world.sim.run_until(duration + 120.0)
    assert generator.completed == generator.offered
    assert world.replicas[2].view > 0
    return max(sizes), world


def signed_request(system, sequence=0):
    client = max(system.clients)
    request = ClientRequest(client=client, sequence=sequence, op=("put", "k", sequence))
    return client, system.sim.host(client).authenticator.sign(request)


class TestBatchWindow:
    """The leader's flush timer across decision changes and crashes."""

    def test_window_closing_mid_change_proposes_nothing(self, protocol):
        """A flush firing during a decision change must not sign a proposal.

        p3 dies, QS moves {1,2,3} -> {1,2,4}: p1 stays leader.  A request
        reaches p1 the instant before it starts the change (2-unit
        window); p4's report is 5 units late, so the window closes while
        the change is in flight.  A proposal signed then is dropped by
        every member and its COMMIT expectations indict correct peers.
        """
        system = build_backend_system(
            protocol, n=5, f=2, clients=1, client_ops=[[]], seed=3,
            batch_size=8, batch_window=2.0,
        )
        leader = system.replicas[1]
        client, request = signed_request(system)
        # Registered before the replica's own listener: runs first.
        system.qs_modules[1].add_quorum_listener(
            lambda event: system.sim.host(1).deliver(KIND_REQUEST, request, client)
        )
        system.adversary.delay_links(4, 5.0, dsts={1}, kinds=set(CHANGE_KINDS))
        system.adversary.crash(3, at=20.0)
        system.run(400.0)

        status = system.observe(1)
        assert status.quorum == frozenset({1, 2, 4}) and status.status == "normal"
        assert status.decision_changes == 1
        assert [r.request_id() for r in leader.executed] == [(client, 0)]
        assert leader.pending == [] and leader.detected_events == []
        for pid in (1, 2, 4, 5):
            assert system.qs_modules[pid].total_quorums_issued() == 1

    def test_short_crash_does_not_wedge_the_window(self, mount):
        """Crash cancels the flush timer; recovery must re-arm it."""
        system = build(
            mount, n=3, f=1, clients=1, client_ops=[[("put", "k", 1)]], seed=1,
            batch_size=8, batch_window=50.0,
        )
        # Between two heartbeats: nobody notices, p1 keeps leading.
        system.sim.at(21.0, system.sim.host(1).crash, label="crash-p1")
        system.sim.at(22.0, system.sim.host(1).recover, label="recover-p1")
        system.run(400.0)

        assert system.observe(1).decision_number == 0
        assert system.total_completed() == 1
        assert system.replicas[1].pending == []


class TestDecisionChangeReportsStayBounded:
    def test_old_reports_are_dropped_across_leader_kills(self, mount):
        system = build(mount, n=5, f=2, clients=1, seed=3)
        system.adversary.crash(1, at=40.0)
        system.sim.at(
            300.0, lambda: system.adversary.crash(
                next(r.leader for r in system.correct_replicas() if r.in_quorum),
                at=system.sim.now + 1.0,
            ),
            label="crash-second-leader",
        )
        system.run(900.0)
        assert system.total_completed() == 20
        for replica in system.correct_replicas():
            assert replica.view_changes >= 2
            reports = replica._vc_received
            assert len(reports) <= system.n
            assert all(report.new_view >= replica.view for report in reports.values())

    def test_one_signer_cannot_park_a_thousand_reports(self, protocol):
        system = build_backend_system(protocol, n=4, f=1, clients=0, seed=3)
        system.run(30.0)
        victim = system.replicas[1]
        sign = system.sim.host(4).authenticator.sign

        def report(view):
            signed = sign(ViewChangePayload(new_view=view, committed=(), prepared=()))
            for kind in CHANGE_KINDS:  # the victim subscribes to its own
                system.sim.host(1).deliver(kind, signed, 4)

        for view in range(5, 1005):
            report(view)
        assert len(victim._vc_received) <= system.n
        assert victim._vc_received[4].new_view == 1004
        report(7)  # a stale report never displaces it
        assert victim._vc_received[4].new_view == 1004
