"""Online (full-simulator) experiment drivers.

These functions assemble a complete stack — eventually synchronous
network, signed messaging, failure detectors with heartbeats, Quorum /
Follower Selection, adversary — run it, and return structured results.
Benchmarks and integration tests share them so the numbers in
EXPERIMENTS.md are produced by exactly the code the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.follower_selection import FollowerSelectionModule
from repro.core.quorum_selection import QuorumSelectionModule
from repro.core.spec import agreement_holds, no_suspicion_holds
from repro.failures.strategies import (
    FalseSuspicionInjector,
    LowerBoundStrategy,
    RandomSuspicionStrategy,
)
from repro.sim.runtime import Simulation
from repro.sim.worlds import build_qs_world
from repro.util.errors import ConfigurationError
from repro.protocol.system import ProtocolSystem, build_backend_system
from repro.xpaxos.system import build_system


@dataclass
class QsRunResult:
    """Outcome of one Quorum/Follower Selection run."""

    n: int
    f: int
    seed: int
    suspicions_fired: int
    quorum_changes_total: int
    max_changes_per_epoch: int
    max_epoch: int
    final_quorums_agree: bool
    no_suspicion: bool
    final_quorum: Optional[FrozenSet[int]] = None
    final_leader: Optional[int] = None
    per_process_changes: Dict[int, int] = field(default_factory=dict)


def _summarize(
    sim: Simulation,
    modules: Dict[int, QuorumSelectionModule],
    faulty: Set[int],
    fired: int,
    n: int,
    f: int,
    seed: int,
) -> QsRunResult:
    correct = [modules[pid] for pid in sim.pids if pid not in faulty]
    max_per_epoch = max(
        (module.max_quorums_in_any_epoch() for module in correct), default=0
    )
    total = max((module.total_quorums_issued() for module in correct), default=0)
    leaders = {getattr(module, "leader", None) for module in correct}
    return QsRunResult(
        n=n,
        f=f,
        seed=seed,
        suspicions_fired=fired,
        quorum_changes_total=total,
        max_changes_per_epoch=max_per_epoch,
        max_epoch=max(module.epoch for module in correct),
        final_quorums_agree=agreement_holds(correct),
        no_suspicion=no_suspicion_holds(correct),
        final_quorum=correct[0].qlast if correct else None,
        final_leader=leaders.pop() if len(leaders) == 1 else None,
        per_process_changes={m.pid: m.total_quorums_issued() for m in correct},
    )


def run_thm4_adversary(
    n: int,
    f: int,
    seed: int = 1,
    faulty: Optional[Set[int]] = None,
    targets: Optional[Tuple[int, int]] = None,
    duration: float = 4000.0,
) -> QsRunResult:
    """E2: the Theorem-4 adversary against live Algorithm 1.

    Default corruption: ``F = {1..f}`` with targets ``(f+1, f+2)``, which
    keeps every ``F+2`` pair reachable from the initial quorum.
    """
    faulty_set = set(faulty) if faulty is not None else set(range(1, f + 1))
    target_pair = targets if targets is not None else (f + 1, f + 2)
    sim, modules = build_qs_world(n, f, seed)
    strategy = LowerBoundStrategy(sim, modules, faulty=faulty_set, targets=target_pair)
    strategy.install()
    sim.run_until(duration)
    if not strategy.done:
        raise ConfigurationError(
            f"Theorem-4 adversary did not finish within {duration} time units"
        )
    return _summarize(sim, modules, faulty_set, len(strategy.fired), n, f, seed)


def run_random_adversary(
    n: int,
    f: int,
    seed: int = 1,
    duration: float = 600.0,
    rate: float = 0.5,
) -> QsRunResult:
    """E3: random false-suspicion noise from ``f`` faulty processes.

    Suspicion injection stops at 60% of the run so the tail verifies
    stabilization (Termination/Agreement under a finite-failure run).
    """
    faulty_set = set(range(1, f + 1))
    sim, modules = build_qs_world(n, f, seed)
    strategy = RandomSuspicionStrategy(
        sim, modules, faulty=faulty_set, rate=rate, stop_at=duration * 0.6
    )
    strategy.install()
    sim.run_until(duration)
    return _summarize(sim, modules, faulty_set, len(strategy.fired), n, f, seed)


def run_follower_worst_case(
    f: int,
    seed: int = 1,
    n: Optional[int] = None,
    duration: float = 4000.0,
    check_period: float = 1.0,
) -> QsRunResult:
    """E4: leader-attack adversary against live Follower Selection.

    Every time the correct processes stabilize on a (leader, quorum), a
    faulty process falsely suspects the leader (or, if the leader itself
    is faulty, the leader suspects a fresh victim), pushing the maximal
    line subgraph's leader upward — the walk Theorem 9 bounds by
    ``3f + 1`` quorums per epoch.
    """
    n_val = n if n is not None else 3 * f + 1
    faulty_set = set(range(1, f + 1))
    sim, modules = build_qs_world(n_val, f, seed, selector="fs")
    fired: List[Tuple[float, int, int]] = []
    state = {"last_edge": None}

    def correct_mods() -> List[FollowerSelectionModule]:
        return [modules[pid] for pid in sim.pids if pid not in faulty_set]

    def tick() -> None:
        mods = correct_mods()
        leaders = {m.leader for m in mods}
        quorums = {m.qlast for m in mods}
        stable = all(m.stable for m in mods)
        if len(leaders) == 1 and len(quorums) == 1 and stable:
            leader = leaders.pop()
            move = None
            if leader in faulty_set:
                for other in range(1, n_val + 1):
                    if other != leader and not _has_suspicion(modules, leader, other):
                        move = (leader, other)
                        break
            else:
                for bad in sorted(faulty_set):
                    if not _has_suspicion(modules, bad, leader):
                        move = (bad, leader)
                        break
            if move is not None and move != state["last_edge"]:
                state["last_edge"] = move
                FalseSuspicionInjector(modules[move[0]]).suspect(move[1])
                fired.append((sim.now, move[0], move[1]))
        sim.scheduler.schedule(check_period, tick, label="fs-adversary")

    sim.at(check_period, tick, label="fs-adversary")
    sim.run_until(duration)
    return _summarize(sim, modules, faulty_set, len(fired), n_val, f, seed)


def _has_suspicion(modules: Dict[int, QuorumSelectionModule], a: int, b: int) -> bool:
    """Whether a's false suspicion of b is already on record (any epoch
    >= a's current epoch, i.e. still an edge for a's graph)."""
    module = modules[a]
    return module.matrix.get(a, b) >= module.epoch


@dataclass
class ChurnComparison:
    """E5/E8 outcome: selection vs enumeration under the same faults."""

    selection: ProtocolSystem
    enumeration: ProtocolSystem

    def view_changes(self) -> Tuple[int, int]:
        sel = max(
            (r.view_changes for r in self.selection.correct_replicas()), default=0
        )
        enm = max(
            (r.view_changes for r in self.enumeration.correct_replicas()), default=0
        )
        return sel, enm

    def completed(self) -> Tuple[int, int]:
        return self.selection.total_completed(), self.enumeration.total_completed()


def run_xpaxos_crash_comparison(
    n: int,
    f: int,
    crash_pids: Tuple[int, ...],
    crash_at: float = 30.0,
    seed: int = 1,
    duration: float = 800.0,
    requests_per_client: int = 20,
    clients: int = 2,
) -> ChurnComparison:
    """Run the same crash schedule under both quorum policies."""
    systems = {}
    for mode in ("selection", "enumeration"):
        system = build_system(
            n=n, f=f, mode=mode, clients=clients, seed=seed,
            client_ops=[
                [("put", f"k{c}-{i}", i) for i in range(requests_per_client)]
                for c in range(clients)
            ],
        )
        for step, pid in enumerate(crash_pids):
            system.adversary.crash(pid, at=crash_at + 5.0 * step)
        system.run(duration)
        systems[mode] = system
    return ChurnComparison(
        selection=systems["selection"], enumeration=systems["enumeration"]
    )


@dataclass
class MessageSavings:
    """E7 outcome for one ``f``."""

    f: int
    n: int
    active_size: int
    full_messages_per_request: float
    active_messages_per_request: float

    @property
    def total_reduction(self) -> float:
        return 1.0 - self.active_messages_per_request / self.full_messages_per_request

    @property
    def per_broadcast_reduction(self) -> float:
        """The paper's rough claim: each broadcast shrinks from ``n - 1``
        to ``q - 1`` targets -> a ``f / (n-1)`` fraction dropped."""
        return self.f / (self.n - 1)


def measure_message_savings(
    f: int,
    requests: int = 20,
    seed: int = 1,
    two_f_plus_one: bool = False,
) -> MessageSavings:
    """E7: inter-replica messages per request, all replicas vs active quorum.

    The three-phase pattern (the ``ibft`` backend) runs once on selector
    ``all`` — broadcast to all ``n``, proceed on ``n - f`` matching votes
    — and once on ``qs``, inside the ``n - f`` selected replicas.  With
    ``two_f_plus_one=True`` the system is sized ``n = 2f + 1`` (the
    trusted-component/XFT family from the introduction) and the active
    quorum has ``f + 1`` members; the expected per-broadcast drop is then
    ~1/2 instead of ~1/3.
    """
    n = 2 * f + 1 if two_f_plus_one else 3 * f + 1
    per_request = {}
    for selector in ("all", "qs"):
        system = build_backend_system(
            "ibft", n, f, selector, clients=1, seed=seed,
            client_ops=[[("put", f"k{i}", i) for i in range(requests)]],
        )
        system.run(40.0 * requests)
        if system.total_completed() < requests:
            raise ConfigurationError("message-savings run did not complete its workload")
        per_request[selector] = system.protocol_message_costs()["total"] / requests
    return MessageSavings(
        f=f,
        n=n,
        active_size=n - f,
        full_messages_per_request=per_request["all"],
        active_messages_per_request=per_request["qs"],
    )
