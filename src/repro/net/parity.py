"""Sim<->net parity: one crash schedule, two runtimes, same answer.

The point of the live runtime is that it changes *nothing* about the
protocol — so the same scripted crash schedule, executed by the
discrete-event simulator and by a real loopback cluster, must select the
same final quorum, and both executions must respect Theorem 3's
``f(f+1)`` per-epoch quorum-change bound.

Schedules are expressed in **heartbeat periods**, not seconds: the sim
runs with its canonical 2.0-unit period while the cluster runs with a
sub-second wall period, and scaling by period keeps the *relative*
timing (how many beats a process was dead for) identical across
runtimes.  Exact quorum-change *counts* are not required to match —
wall-clock detection latencies differ from simulated ones, so the two
runtimes may pass through different intermediate quorums — but both
must stay inside the theorem's envelope and land on the same final
quorum.

:data:`METRIC_PARITY_SCHEDULE` adds a stricter observability check on
top: under a schedule that never forces a quorum change, the registry
values ``qs_quorum_changes_total`` and ``qs_epoch`` must be *equal*
across runtimes for every correct replica
(:func:`metric_parity_problems`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.net.cluster import ClusterConfig, ClusterResult, crashed_at_end, run_cluster
from repro.net.node import live_deployment
from repro.sim.worlds import build_qs_world


@dataclass(frozen=True)
class ParitySchedule:
    """A crash/recovery script in heartbeat-period units."""

    n: int
    f: int
    #: (pid, periods-after-start) pairs.
    kills: Tuple[Tuple[int, float], ...] = ()
    recovers: Tuple[Tuple[int, float], ...] = ()
    duration_periods: float = 40.0

    def crashed_at_end(self) -> FrozenSet[int]:
        return crashed_at_end(self.kills, self.recovers)


@dataclass
class RuntimeOutcome:
    """What one runtime concluded, reduced to the parity-relevant facts."""

    runtime: str
    final_quorums: Dict[int, FrozenSet[int]]  # correct pid -> final quorum
    max_changes_per_epoch: int
    final_epochs: Dict[int, int]

    @property
    def agreed_quorum(self) -> Optional[FrozenSet[int]]:
        quorums = set(self.final_quorums.values())
        return next(iter(quorums)) if len(quorums) == 1 else None


def _play_on_sim(
    schedule: ParitySchedule,
    seed: int = 3,
    heartbeat_period: float = 2.0,
    base_timeout: float = 4.0,
):
    """Play the schedule on the simulator; returns ``(sim, modules)``."""
    sim, modules = build_qs_world(
        schedule.n,
        schedule.f,
        seed=seed,
        heartbeat_period=heartbeat_period,
        base_timeout=base_timeout,
    )
    for pid, periods in schedule.kills:
        sim.at(periods * heartbeat_period, lambda p=pid: sim.host(p).crash())
    for pid, periods in schedule.recovers:
        sim.at(periods * heartbeat_period, lambda p=pid: sim.host(p).recover())
    sim.run_until(schedule.duration_periods * heartbeat_period)
    return sim, modules


def run_sim_schedule(schedule: ParitySchedule, **sim_options) -> RuntimeOutcome:
    """Execute the schedule on the discrete-event simulator.

    ``sim_options``: ``seed``, ``heartbeat_period``, ``base_timeout``.
    """
    sim, modules = _play_on_sim(schedule, **sim_options)
    crashed = schedule.crashed_at_end()
    correct = [pid for pid in sim.pids if pid not in crashed]
    return RuntimeOutcome(
        runtime="sim",
        final_quorums={pid: modules[pid].qlast for pid in correct},
        max_changes_per_epoch=max(
            modules[pid].max_quorums_in_any_epoch() for pid in correct
        ),
        final_epochs={pid: modules[pid].epoch for pid in correct},
    )


def run_net_schedule(
    schedule: ParitySchedule,
    heartbeat_period: float = 0.3,
    base_timeout: float = 2.0,
    run_dir=None,
) -> Tuple[RuntimeOutcome, ClusterResult]:
    """Execute the schedule on a live loopback cluster."""
    config = ClusterConfig(
        deployment=live_deployment(
            n=schedule.n, f=schedule.f,
            heartbeat_period=heartbeat_period, base_timeout=base_timeout,
        ),
        duration=schedule.duration_periods * heartbeat_period,
        kills=tuple((pid, t * heartbeat_period) for pid, t in schedule.kills),
        recovers=tuple((pid, t * heartbeat_period) for pid, t in schedule.recovers),
        kill_mode="host",
        run_dir=run_dir,
    )
    result = run_cluster(config)
    outcome = RuntimeOutcome(
        runtime="net",
        final_quorums=result.final_quorums(),
        max_changes_per_epoch=result.max_changes_per_epoch(),
        final_epochs={
            pid: result.nodes[pid].final["epoch"] for pid in result.correct_pids()
        },
    )
    return outcome, result


#: Schedule for the *metric* parity check.  The killed process (pid 5)
#: is outside the lexicographically-first initial quorum {1, 2, 3}, so
#: no quorum change is ever required: every correct replica must end
#: with exactly the same ``qs_quorum_changes_total`` and ``qs_epoch``
#: values in both runtimes — equality, not just bounded-envelope parity.
METRIC_PARITY_SCHEDULE = ParitySchedule(
    n=5, f=2, kills=((5, 5.0),), duration_periods=25.0
)

#: Registry metrics that must be identical across runtimes for every
#: correct replica.  Wall-clock-valued families (latency histograms)
#: are deliberately excluded — only protocol-logic counters compare.
PARITY_METRIC_NAMES = ("qs_quorum_changes_total", "qs_epoch")


def run_sim_metrics(schedule: ParitySchedule, **sim_options) -> dict:
    """Execute the schedule on the simulator; return the metrics snapshot."""
    sim, _modules = _play_on_sim(schedule, **sim_options)
    return sim.obs.snapshot()


def run_net_metrics(
    schedule: ParitySchedule, **net_options
) -> Tuple[Dict[int, dict], ClusterResult]:
    """Execute the schedule on a live cluster; return per-node snapshots.

    ``net_options`` are :func:`run_net_schedule`'s.
    """
    _outcome, result = run_net_schedule(schedule, **net_options)
    return result.metrics_snapshots(), result


def metric_parity_problems(
    sim_snapshot: dict,
    net_snapshots: Dict[int, dict],
    schedule: ParitySchedule,
) -> List[str]:
    """Ways the runtimes' registries disagree; empty means metric parity.

    The sim carries one shared registry (all pids in one snapshot); each
    net node owns its registry, so its values are looked up in its own
    snapshot.  Only correct (never-crashed-at-end) replicas compare.
    """
    from repro.obs.registry import metric_value

    problems: List[str] = []
    crashed = schedule.crashed_at_end()
    correct = [pid for pid in range(1, schedule.n + 1) if pid not in crashed]

    for pid in correct:
        net_snapshot = net_snapshots.get(pid)
        if net_snapshot is None:
            problems.append(f"net: node {pid} emitted no metrics snapshot")
            continue
        for name in PARITY_METRIC_NAMES:
            sim_value = metric_value(sim_snapshot, name, pid=pid)
            net_value = metric_value(net_snapshot, name, pid=pid)
            if sim_value is None or net_value is None:
                problems.append(
                    f"{name}{{pid={pid}}}: missing from "
                    f"{'sim' if sim_value is None else 'net'} snapshot"
                )
            elif sim_value != net_value:
                problems.append(
                    f"{name}{{pid={pid}}}: sim={sim_value} net={net_value}"
                )

    # Vacuousness guard: both runtimes must actually have *observed* the
    # injected fault (equal-because-nothing-happened is not parity).
    for runtime, lookup in (
        ("sim", lambda pid: metric_value(sim_snapshot, "fd_suspicions_raised_total", pid=pid)),
        ("net", lambda pid: metric_value(net_snapshots.get(pid) or {"metrics": []},
                                         "fd_suspicions_raised_total", pid=pid)),
    ):
        raised = sum(lookup(pid) or 0 for pid in correct)
        if not raised:
            problems.append(
                f"{runtime}: no correct replica raised a suspicion — "
                "the injected crash went unobserved"
            )
    return problems


def thm3_bound(f: int) -> int:
    """Theorem 3: at most ``f(f+1)`` quorum changes per epoch."""
    return f * (f + 1)


def parity_problems(
    sim: RuntimeOutcome, net: RuntimeOutcome, schedule: ParitySchedule
) -> List[str]:
    """Every way the two executions disagree; empty means parity holds."""
    problems: List[str] = []
    bound = thm3_bound(schedule.f)

    for outcome in (sim, net):
        if not outcome.final_quorums:
            problems.append(f"{outcome.runtime}: no correct replica reported a final quorum")
            continue
        if outcome.agreed_quorum is None:
            problems.append(
                f"{outcome.runtime}: correct replicas disagree on the final quorum: "
                f"{ {p: sorted(q) for p, q in outcome.final_quorums.items()} }"
            )
        if outcome.max_changes_per_epoch > bound:
            problems.append(
                f"{outcome.runtime}: {outcome.max_changes_per_epoch} quorum changes in "
                f"one epoch exceeds Thm 3's f(f+1) = {bound}"
            )

    sim_quorum, net_quorum = sim.agreed_quorum, net.agreed_quorum
    if sim_quorum is not None and net_quorum is not None and sim_quorum != net_quorum:
        problems.append(
            f"final quorum differs: sim={sorted(sim_quorum)} net={sorted(net_quorum)}"
        )
    if sim_quorum is not None:
        crashed = schedule.crashed_at_end()
        if sim_quorum & crashed:
            problems.append(
                f"sim final quorum {sorted(sim_quorum)} contains crashed {sorted(crashed)}"
            )
    return problems
