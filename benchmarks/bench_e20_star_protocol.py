"""E20 — the star protocol: Section VIII's pattern, end to end (extension).

Follower Selection exists for applications "where a single leader
communicates with several followers, but followers do not directly
communicate with each other".  This experiment runs exactly such an
application and measures:

(a) per-request message cost — linear ``3 (q-1)`` on the star vs the
    quadratic COMMIT exchange of the XPaxos pattern at the same scale;
(b) reconfiguration churn under a leader-hunting adversary — Follower
    Selection's ``O(f)`` (Theorem 9) observed at the *application* level,
    with the service staying available throughout.
"""

from repro.analysis.bounds import thm9_per_epoch_bound
from repro.analysis.report import Table
from repro.failures.strategies import FalseSuspicionInjector
from repro.protocol.system import build_backend_system

from .conftest import emit, once

F = 2
N = 3 * F + 1  # 7, quorum of 5
REQUESTS = 20


def run_message_comparison():
    """Both vote phases on Follower Selection, same workload."""
    per_decision = {}
    for protocol in ("star", "xpaxos"):
        system = build_backend_system(
            protocol, N, F, "fs", clients=1, seed=7,
            client_ops=[[("put", f"k{i}", i) for i in range(REQUESTS)]],
        )
        system.run(600.0)
        assert system.total_completed() == REQUESTS
        per_decision[protocol] = system.protocol_message_costs()["per_decision"]
    return per_decision["star"], per_decision["xpaxos"]


def run_leader_hunt():
    system = build_backend_system(
        "star", N, F, "fs", clients=1, seed=9, client_retry=20.0,
        client_ops=[[("put", f"h{i}", i) for i in range(REQUESTS)]],
    )
    faulty = {6, 7}
    for pid in faulty:
        system.adversary.corrupt(pid)
    fired = []

    def hunt():
        modules = system.qs_modules
        correct = [modules[p] for p in range(1, N + 1) if p not in faulty]
        leaders = {m.leader for m in correct}
        if len(leaders) == 1 and all(m.stable for m in correct):
            leader = leaders.pop()
            for bad in sorted(faulty):
                if leader != bad and modules[bad].matrix.get(bad, leader) < modules[bad].epoch:
                    FalseSuspicionInjector(modules[bad]).suspect(leader)
                    fired.append((system.sim.now, bad, leader))
                    break
        system.sim.scheduler.schedule(2.0, hunt, label="leader-hunt")

    system.sim.at(2.0, hunt, label="leader-hunt")
    system.run(2000.0)
    return system, fired


def test_e20_star_protocol(benchmark):
    def run_all():
        return run_message_comparison(), run_leader_hunt()

    (star_msgs, xp_msgs), (hunted, fired) = once(benchmark, run_all)

    reconfigurations = max(r.view_changes for r in hunted.correct_replicas())
    table = Table(
        ["metric", "value"],
        title=f"E20 — star protocol on Follower Selection (n={N}, f={F}, q={N - F})",
    )
    table.add_row("star msgs/request (3(q-1))", star_msgs)
    table.add_row("XPaxos-pattern msgs/request ((q-1)+(q-1)^2)", xp_msgs)
    table.add_row("leader-hunt: false suspicions fired", len(fired))
    table.add_row("leader-hunt: reconfigurations", reconfigurations)
    table.add_row("Theorem 9 bound (3f+1)", thm9_per_epoch_bound(F))
    table.add_row("leader-hunt: requests completed", hunted.total_completed())
    table.add_row("final config", hunted.current_config())
    emit("e20_star_protocol", table.render())

    assert star_msgs == 3 * (N - F - 1)
    assert star_msgs < xp_msgs
    assert reconfigurations <= thm9_per_epoch_bound(F)
    assert hunted.total_completed() == REQUESTS
    assert hunted.histories_consistent()
    # The adversary ran out of moves: the final leader is correct.
    assert hunted.current_config()[0] not in {6, 7}
