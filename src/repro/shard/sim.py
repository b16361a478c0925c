"""Deterministic sharded deployment: M sim worlds in lockstep.

Each shard is one full :func:`~repro.sim.worlds.build_kv_service_world`
(its own pid space, replicas, clients, RNG streams — seeds derived per
shard so the worlds are independent), and the driver advances all M
simulations in lockstep quanta behind one
:class:`~repro.shard.router.ShardedLoadGenerator`.  A completion inside
shard A's quantum may route its follow-up operation into shard B; B's
scheduler absorbs it at B's current clock, so cross-shard skew is
bounded by the quantum and the whole run stays deterministic (the same
seed replays the identical aggregate completion sequence).

This is the reproducible twin of :mod:`repro.shard.live` — identical
report shape, sim time units instead of wall seconds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.registry import merge_snapshots
from repro.service.loadgen import Workload, load_phases, world_verdict
from repro.shard.ring import DEFAULT_VNODES, HashRing
from repro.shard.router import ShardedLoadGenerator, ShardRouter
from repro.util.errors import ConfigurationError


def run_sim_shard_load(
    shards: int = 2,
    n: int = 4,
    f: int = 1,
    clients: int = 50,
    duration: float = 120.0,
    mode: str = "closed",
    rate: Optional[float] = None,
    seed: int = 3,
    keys: int = 1000,
    zipf_s: float = 1.1,
    vnodes: int = DEFAULT_VNODES,
    kill_shard_leader_at: Optional[float] = None,
    kill_shard: int = 0,
    recover_at: Optional[float] = None,
    drain: float = 60.0,
    retry_timeout: float = 10.0,
    batch_size: int = 8,
    batch_window: float = 0.5,
    checkpoint_interval: Optional[int] = 64,
    lockstep_quantum: float = 1.0,
) -> Dict[str, Any]:
    """Drive M deterministic shard worlds under one routed workload.

    ``clients`` is *per shard* — the M=1 vs M=4 scaling comparison holds
    per-shard offered load constant so aggregate throughput is the
    moving part.  ``kill_shard_leader_at`` crashes the initial leader of
    ``kill_shard`` only; every other shard keeps its full cluster.
    """
    from repro.sim.worlds import build_sharded_kv_worlds

    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if not 0 <= kill_shard < shards:
        raise ConfigurationError(
            f"kill_shard {kill_shard} out of range for {shards} shards"
        )
    if lockstep_quantum <= 0:
        raise ConfigurationError(
            f"lockstep quantum must be positive, got {lockstep_quantum}"
        )

    worlds = build_sharded_kv_worlds(
        shards,
        n=n,
        f=f,
        clients=clients,
        seed=seed,
        retry_timeout=retry_timeout,
        batch_size=batch_size,
        batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
    )
    ring = HashRing(shards, vnodes=vnodes, seed=seed)
    router = ShardRouter(
        ring, {s: list(world.clients.values()) for s, world in enumerate(worlds)}
    )
    hosts = {s: world.gen_host for s, world in enumerate(worlds)}
    workload = Workload(seed=seed, keys=keys, zipf_s=zipf_s)
    generator = ShardedLoadGenerator(
        hosts, router, workload, mode=mode, rate=rate, duration=duration
    )

    killed_leader = None
    if kill_shard_leader_at is not None:
        victim_world = worlds[kill_shard]
        killed_leader = victim_world.replicas[1].selector.leader_of(0)
        victim_world.adversary.crash(killed_leader, at=kill_shard_leader_at)
        if recover_at is not None:
            victim_world.sim.at(
                recover_at,
                lambda: victim_world.sim.host(killed_leader).recover(),
                label=f"recover-shard{kill_shard}-p{killed_leader}",
            )

    for world in worlds:
        world.sim.start()
    generator.start()

    # Lockstep: every world reaches each quantum boundary before any
    # world passes it, bounding cross-shard routing skew by the quantum.
    horizon = duration + drain
    boundary = 0.0
    while boundary < horizon:
        boundary = min(boundary + lockstep_quantum, horizon)
        for world in worlds:
            world.sim.run_until(boundary)

    per_shard: Dict[int, Dict[str, Any]] = {}
    shard_records = generator.shard_completions()
    for s, world in enumerate(worlds):
        records = shard_records[s]
        kill_at = kill_shard_leader_at
        block = {
            "completed": len(records),
            "routed": router.routed[s],
            "phases": load_phases(
                records, duration, kill_at, recover_at, killed=(s == kill_shard)
            ),
        }
        block.update(world_verdict(world))
        per_shard[s] = block

    aggregate = load_phases(
        generator.all_completions(), duration,
        kill_shard_leader_at, recover_at, killed=False,
    )
    merged_metrics = merge_snapshots(
        [world.sim.obs.snapshot() for world in worlds]
    )

    report: Dict[str, Any] = {
        "shards": shards,
        "n": n,
        "f": f,
        "clients_per_shard": clients,
        "clients_total": clients * shards,
        "mode": mode,
        "rate": rate,
        "seed": seed,
        "duration": duration,
        "ring": ring.describe(),
        "offered": generator.offered,
        "completed": generator.completed,
        "retries": generator.total_retries,
        "aggregate": aggregate,
        "per_shard": per_shard,
        "kill": None,
        "at_most_once": all(b["at_most_once"] for b in per_shard.values()),
        "digests_agree": all(b["digests_agree"] for b in per_shard.values()),
        "metrics_families": len(merged_metrics["metrics"]),
        "worlds": worlds,
    }
    if kill_shard_leader_at is not None:
        report["kill"] = {
            "shard": kill_shard,
            "leader": killed_leader,
            "at": kill_shard_leader_at,
            "recover_at": recover_at,
            "view_change": per_shard[kill_shard]["phases"].get("view_change"),
        }
    return report


def unaffected_shards_ok(
    report: Dict[str, Any], tolerance: float = 0.5
) -> bool:
    """Did every *non-killed* shard keep serving through the crash window?

    True when each unaffected shard's crash-window throughput stayed
    within ``tolerance`` (fractional drop) of its own steady rate.
    Vacuously true without a kill schedule.
    """
    kill = report.get("kill")
    if not kill:
        return True
    ok = True
    for s, block in report["per_shard"].items():
        if int(s) == kill["shard"]:
            continue
        steady = block["phases"]["steady"]["throughput"]
        crash = block["phases"]["crash"]["throughput"]
        if steady <= 0:
            ok = False
        elif crash < steady * (1.0 - tolerance):
            ok = False
    return ok
