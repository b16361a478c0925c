"""E29 — protocol backend comparison: XPaxos vs IBFT on the shared stack.

Both backends consume the same Quorum Selection module through the
:class:`~repro.protocol.backend.ProtocolBackend` contract; this bench
compares what each pays for a decision and how fast each re-stabilizes
after losing its leader.

- **per-decision message cost** — measured per committed slot in a
  fault-free run and checked against the closed forms: XPaxos
  ``q(q-1)`` (PREPARE to q-1 members, (q-1)^2 COMMIT echoes), IBFT
  ``(q-1)(2q-1)`` (PRE-PREPARE plus two all-to-all vote phases inside
  the quorum).  The measurement must match the formula *exactly* —
  any drift means retransmissions or protocol leakage.
- **active-quorum savings** — the paper's intro claim: running
  agreement in a quorum of ``q = n - f`` instead of all ``n`` saves
  ~1/3 of the work in the ``n = 3f+1`` family and ~1/2 in the
  ``n = 2f+1`` family (asymptotically, counting participants; the
  per-message savings are quadratic and therefore larger).  Both
  backends must show it — the savings come from Quorum Selection, not
  from the protocol.
- **stabilization latency** — leader killed mid-run; measured time
  until every correct quorum member adopts a quorum excluding the dead
  leader and returns to normal status, with the client workload
  completing and histories staying consistent.

Writes ``BENCH_protocol_compare.json`` (checked in) so EXPERIMENTS.md
quotes measured numbers; ``perf_report.py --protocol`` gates on it.
"""

import json
import time
from pathlib import Path

from repro.protocol.backend import get_backend
from repro.protocol.system import build_backend_system

from repro.analysis.report import Table

from .conftest import emit, once

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_protocol_compare.json"

PROTOCOLS = ("xpaxos", "ibft")
SEED = 3
OPS_PER_CLIENT = 20

#: (family, n, f) for the fault-free cost runs.  The families carry the
#: paper's two intro savings claims; the asymptotic participant savings
#: are 1/3 (3f+1) and 1/2 (2f+1).
COST_CASES = (("3f+1", 7, 2), ("2f+1", 5, 2))
SAVINGS_TARGETS = {"3f+1": 1 / 3, "2f+1": 1 / 2}

#: Leader-kill re-stabilization scenario.
STAB_N, STAB_F = 4, 1
KILL_AT = 30.0
STAB_HORIZON = 400.0
STAB_STEP = 1.0


def run_cost_case(protocol: str, family: str, n: int, f: int,
                  clients: int = 2, seed: int = SEED) -> dict:
    """One fault-free run; returns measured vs analytic per-decision cost."""
    system = build_backend_system(protocol, n=n, f=f, clients=clients, seed=seed)
    system.run(600.0)
    costs = system.protocol_message_costs()
    q = n - f
    analytic_quorum = system.backend.analytic_messages_per_decision(q)
    analytic_full = system.backend.analytic_messages_per_decision(n)
    per_decision = costs["per_decision"]
    return {
        "family": family,
        "n": n,
        "f": f,
        "quorum_size": q,
        "decisions": costs["decisions"],
        "by_kind": costs["by_kind"],
        "per_decision": per_decision,
        "analytic_per_decision": analytic_quorum,
        "analytic_full_set": analytic_full,
        "measured_matches_analytic": per_decision == analytic_quorum,
        # What Quorum Selection saves vs running the protocol over all n.
        "message_savings": round(1 - analytic_quorum / analytic_full, 4),
        "participant_savings": round(1 - q / n, 4),
        "savings_target": round(SAVINGS_TARGETS[family], 4),
        "completed": system.total_completed(),
        "completed_all": system.total_completed() == clients * OPS_PER_CLIENT,
        "histories_consistent": system.histories_consistent(),
    }


def run_stabilization_case(protocol: str, n: int = STAB_N, f: int = STAB_F,
                           seed: int = SEED) -> dict:
    """Kill the initial leader; measure time back to a stable live quorum."""
    system = build_backend_system(protocol, n=n, f=f, clients=1, seed=seed,
                                  client_retry=20.0)
    victim = system.replicas[1].selector.leader_of(0)
    system.adversary.crash(victim, at=KILL_AT)

    def stabilized() -> bool:
        for pid in system.replica_pids:
            if pid == victim:
                continue
            status = system.observe(pid)
            if victim in status.quorum:
                return False
            if pid in status.quorum and status.status != "normal":
                return False
        return True

    stabilized_at = None
    t = KILL_AT
    while t < STAB_HORIZON:
        t += STAB_STEP
        system.run(t)
        if stabilized():
            stabilized_at = t
            break
    system.run(STAB_HORIZON)
    decision_changes = max(
        system.backend.observe(r).decision_changes
        for r in system.correct_replicas()
    )
    return {
        "n": n,
        "f": f,
        "killed": victim,
        "kill_at": KILL_AT,
        "stabilized_at": stabilized_at,
        # Measured at STAB_STEP resolution; None means never stabilized.
        "latency": (round(stabilized_at - KILL_AT, 3)
                    if stabilized_at is not None else None),
        "decision_changes": decision_changes,
        "completed": system.total_completed(),
        "completed_all": system.total_completed() == OPS_PER_CLIENT,
        "histories_consistent": system.histories_consistent(),
    }


def write_report(path: Path = REPORT_PATH) -> dict:
    """Run every case for both backends, write the JSON report, return it."""
    started = time.perf_counter()
    backends = {}
    for protocol in PROTOCOLS:
        backend = get_backend(protocol)
        backends[protocol] = {
            "decision_term": backend.decision_term,
            "costs": [
                run_cost_case(protocol, family, n, f)
                for family, n, f in COST_CASES
            ],
            "stabilization": run_stabilization_case(protocol),
        }
    report = {
        "benchmark": "E29 — protocol backend comparison (XPaxos vs IBFT)",
        "seed": SEED,
        "backends": backends,
        "wall_seconds": round(time.perf_counter() - started, 3),
        "notes": (
            "per_decision counts protocol messages (no heartbeats, no "
            "client traffic) per committed slot in a fault-free run and "
            "must equal the closed form exactly: XPaxos q(q-1), IBFT "
            "(q-1)(2q-1). message_savings/participant_savings compare the "
            "active quorum q=n-f against running over all n — the paper's "
            "~1/3 (3f+1) and ~1/2 (2f+1) intro claims, protocol-"
            "independent because Quorum Selection provides the quorum. "
            "stabilization kills the initial leader at t=%s and measures "
            "time (at %s-step resolution) until every correct quorum "
            "member adopts a victim-free quorum in normal status."
            % (KILL_AT, STAB_STEP)
        ),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_table(report: dict) -> str:
    table = Table(
        [
            "protocol", "family", "n", "f", "q", "decisions",
            "msgs/decision", "analytic", "full-set", "msg savings",
            "participant savings (target)",
        ],
        title=(
            f"E29 — per-decision protocol cost, seed={report['seed']}, "
            f"wall {report['wall_seconds']}s"
        ),
    )
    for protocol, block in report["backends"].items():
        for case in block["costs"]:
            table.add_row(
                protocol, case["family"], case["n"], case["f"],
                case["quorum_size"], case["decisions"],
                case["per_decision"], case["analytic_per_decision"],
                case["analytic_full_set"],
                f"{case['message_savings'] * 100:.0f}%",
                f"{case['participant_savings'] * 100:.0f}% "
                f"(~{case['savings_target'] * 100:.0f}%)",
            )
    lines = [table.render()]
    for protocol, block in report["backends"].items():
        stab = block["stabilization"]
        lines.append(
            f"{protocol}: leader p{stab['killed']} killed at "
            f"t={stab['kill_at']}, re-stabilized in {stab['latency']} "
            f"({stab['decision_changes']} {block['decision_term']} changes, "
            f"{stab['completed']} ops completed)"
        )
    return "\n".join(lines)


def test_e29_protocol_compare(benchmark):
    report = once(benchmark, write_report)
    emit("e29_protocol_compare", render_table(report))

    xpaxos = report["backends"]["xpaxos"]
    ibft = report["backends"]["ibft"]
    for protocol, block in report["backends"].items():
        for case in block["costs"]:
            # The measured cost IS the closed form — no leakage, no loss.
            assert case["measured_matches_analytic"], (
                f"{protocol} {case['family']}: measured "
                f"{case['per_decision']} != analytic "
                f"{case['analytic_per_decision']}"
            )
            assert case["completed_all"] and case["histories_consistent"]
            # The paper's savings claim, protocol-independent: quadratic
            # message savings dominate the linear participant savings,
            # which approach the family's asymptote from below (the
            # slack covers finite-f distance from the limit).
            assert case["message_savings"] > case["participant_savings"]
            assert case["participant_savings"] >= case["savings_target"] - 0.12
        stab = block["stabilization"]
        assert stab["latency"] is not None, f"{protocol} never re-stabilized"
        assert stab["latency"] < 120.0
        assert stab["completed_all"] and stab["histories_consistent"]

    # IBFT's extra vote phase costs more per decision in every case.
    for x_case, i_case in zip(xpaxos["costs"], ibft["costs"]):
        assert i_case["per_decision"] > x_case["per_decision"]
