"""E19 — QS-driven active-quorum replication at n = 3f+1 (extension).

The introduction's Distler et al. argument: PBFT-class systems
(``n = 3f+1``) can run agreement inside a selected quorum of ``n - f =
2f+1`` well-functioning replicas and drop ~1/3 of their messages —
*if* something maintains that quorum as failures occur.  Quorum
Selection is that something.  This experiment runs the generic
active-quorum replica at ``n = 3f+1`` under Quorum Selection and
compares messaging with the full-broadcast three-phase pattern (backend
``ibft`` on selector ``all``), then drives it through a crash plus a
per-link omission to show the quorum maintenance working.
"""

from repro.analysis.report import Table
from repro.protocol.system import build_backend_system
from repro.xpaxos.messages import KIND_COMMIT
from repro.xpaxos.system import build_system

from .conftest import emit, once

F = 2
N = 3 * F + 1
REQUESTS = 40


def run_pbft_full():
    system = build_backend_system(
        "ibft", N, F, "all", clients=1, seed=7,
        client_ops=[[("put", f"k{i}", i) for i in range(REQUESTS)]],
    )
    system.run(40.0 * REQUESTS)
    assert system.total_completed() == REQUESTS
    return system.protocol_message_costs()["per_decision"]


def run_qs_quorum_fault_free():
    system = build_system(n=N, f=F, mode="selection", clients=1, seed=7,
                          client_ops=[[("put", f"k{i}", i) for i in range(REQUESTS)]])
    system.run(1200.0)
    assert system.total_completed() == REQUESTS
    messages = system.sim.stats.total_sent(["xp.prepare", "xp.commit"])
    return messages / REQUESTS


def run_qs_quorum_faulty():
    system = build_system(
        n=N, f=F, mode="selection", clients=2, seed=9, client_think_time=5.0,
        client_ops=[[("put", f"k{c}-{i}", i) for i in range(20)] for c in range(2)],
    )
    system.adversary.crash(1, at=30.0)
    system.adversary.omit_links(3, dsts={5}, kinds={KIND_COMMIT}, start=80.0)
    system.run(1500.0)
    return system


def test_e19_rebft_configuration(benchmark):
    def run_all():
        return run_pbft_full(), run_qs_quorum_fault_free(), run_qs_quorum_faulty()

    pbft_msgs, qs_msgs, faulty_system = once(benchmark, run_all)

    final_quorum = faulty_system.correct_replicas()[0].quorum
    table = Table(
        ["configuration", "value"],
        title=f"E19 — n = 3f+1 = {N}: full-broadcast PBFT vs QS-driven active quorum",
    )
    table.add_row("PBFT full broadcast: msgs/request", pbft_msgs)
    table.add_row("QS active quorum (2f+1): msgs/request", qs_msgs)
    table.add_row("message reduction", 1 - qs_msgs / pbft_msgs)
    table.add_row("faulty run completed", faulty_system.total_completed())
    table.add_row("faulty run safe", faulty_system.histories_consistent())
    table.add_row("final quorum (crash p1, omit p3->p5)", final_quorum)
    emit("e19_rebft_configuration", table.render())

    # The active-quorum pattern uses dramatically fewer messages...
    assert qs_msgs < pbft_msgs * 0.5
    # ...and Quorum Selection keeps it live and safe through the faults.
    assert faulty_system.total_completed() == REQUESTS
    assert faulty_system.histories_consistent()
    assert 1 not in final_quorum
    assert not {3, 5} <= final_quorum
