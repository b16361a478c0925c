"""Differential backend testing: one schedule, every protocol, one selection story.

The selection module is the shared substrate; the backends only
*consume* it.  Running the identical seeded schedule through every
registered backend must therefore end in the same selection state —
same final epoch, same final quorum and (Follower Selection) the same
leader, adopted as such by every correct replica — and export truthful,
matching metrics, even though the protocols exchange entirely different
message sets along the way.

The metric-parity leg mirrors ``tests/test_obs_parity.py``: on the
canonical schedule that kills a non-quorum member, the protocol-logic
metrics (``qs_quorum_changes_total``, ``qs_epoch``) are *pinned* — zero
changes, epoch 1 — and must agree exactly across backends.  On a
leader-kill schedule the change counter is timing-dependent (each
backend's traffic perturbs FD expectation timing differently), so there
the cross-backend claim is the final state plus the Theorem 3 envelope,
with each backend's counter still exactly equal to its module state.
"""

import pytest

from repro.analysis.bounds import thm9_per_epoch_bound
from repro.net.parity import thm3_bound
from repro.obs.registry import metric_value
from repro.protocol.backend import backend_names
from repro.protocol.system import build_backend_system

PROTOCOLS = sorted(backend_names())
SEEDS = (3, 7, 11)
#: (selector, n, per-epoch bound at f=2); the ``qs`` ids stay bare seeds.
SELECTORS = {"qs": (5, thm3_bound(2)), "fs": (7, thm9_per_epoch_bound(2))}
SCHEDULES = [
    pytest.param(selector, seed, id=str(seed) if selector == "qs" else f"{selector}-{seed}")
    for selector in SELECTORS for seed in SEEDS
]


def run_leader_kill(protocol, seed, selector="qs", f=2, kill_at=60.0, horizon=900.0):
    n = SELECTORS[selector][0]
    system = build_backend_system(protocol, n, f, selector, clients=1, seed=seed)
    leader = system.replicas[1].selector.leader_of(0)
    system.adversary.crash(leader, at=kill_at)
    system.run(horizon)
    return system, leader


def run_spare_kill(protocol, seed, n=5, f=2, kill_at=5.0, horizon=60.0):
    """The obs-parity schedule: the victim is outside the initial quorum."""
    system = build_backend_system(protocol, n=n, f=f, clients=1, seed=seed)
    spare = max(system.replica_pids)
    assert spare not in system.replicas[1].selector.quorum_of(0)
    system.adversary.crash(spare, at=kill_at)
    system.run(horizon)
    return system, spare


def qs_final_state(system, exclude=()):
    """Per process: epoch, selected quorum, selected leader (``fs``)."""
    return {
        pid: (qs.epoch, tuple(sorted(qs.current_quorum)), getattr(qs, "leader", None))
        for pid, qs in system.qs_modules.items()
        if pid not in exclude
    }


@pytest.mark.parametrize("selector, seed", SCHEDULES)
def test_same_schedule_same_final_qs_state(selector, seed):
    """Identical seeded leader-kill runs end in identical selections, and
    identical selections in identical ``(leader, quorum)`` at every replica."""
    finals = {}
    histories = {}
    adopted = {}
    for protocol in PROTOCOLS:
        system, leader = run_leader_kill(protocol, seed, selector)
        assert system.total_completed() == 20
        assert system.histories_consistent()
        finals[protocol] = qs_final_state(system, exclude=(leader,))
        adopted[protocol] = {
            pid: (system.observe(pid).leader, tuple(sorted(system.observe(pid).quorum)))
            for pid in finals[protocol]
        }
        longest = max(
            (r.executed for r in system.replicas.values() if r.pid != leader),
            key=len,
        )
        histories[protocol] = tuple(request.canonical() for request in longest)
        for pid, (epoch, quorum, selected_leader) in finals[protocol].items():
            assert leader not in quorum
            assert system.qs_modules[pid].max_quorums_in_any_epoch() \
                <= SELECTORS[selector][1]
            assert adopted[protocol][pid] == (selected_leader or min(quorum), quorum)

    reference = PROTOCOLS[0]
    for protocol in PROTOCOLS[1:]:
        assert finals[protocol] == finals[reference], (
            f"{selector} seed={seed}: {protocol} and {reference} diverged on "
            f"the shared selection module"
        )
        assert adopted[protocol] == adopted[reference]
        # The committed history is protocol-independent too: one client,
        # sequential ops — every engine executes the same requests in order.
        assert histories[protocol] == histories[reference]


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_parity_on_pinned_schedule(seed):
    """Killing a spare pins the parity metrics: 0 changes, epoch 1 — both."""
    snapshots = {}
    for protocol in PROTOCOLS:
        system, spare = run_spare_kill(protocol, seed)
        per_pid = {}
        for pid in system.replica_pids:
            if pid == spare:
                continue
            snapshot = system.sim.host(pid).obs.snapshot()
            changes = metric_value(snapshot, "qs_quorum_changes_total", pid=pid)
            epoch = metric_value(snapshot, "qs_epoch", pid=pid)
            assert changes == 0, f"{protocol} p{pid}: unforced quorum change"
            assert epoch == 1
            per_pid[pid] = (changes, epoch)
        snapshots[protocol] = per_pid
    assert all(snapshots[protocol] == snapshots[PROTOCOLS[0]] for protocol in PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_metrics_are_truthful_per_backend(protocol):
    """The exported counters equal the module state they narrate."""
    system, leader = run_leader_kill(protocol, seed=3)
    for pid, qs in system.qs_modules.items():
        if pid == leader:
            continue
        snapshot = system.sim.host(pid).obs.snapshot()
        assert metric_value(snapshot, "qs_quorum_changes_total", pid=pid) \
            == qs.total_quorums_issued()
        assert metric_value(snapshot, "qs_epoch", pid=pid) == qs.epoch
