"""Live sharded deployment: M TCP clusters behind one router process.

Topology: ``M x n`` replica OS processes (each shard is a full
:func:`~repro.net.cluster.run_cluster` launch with its own ephemeral
ports, key registry, and fault schedule) plus **one router process** —
this one — holding the consistent-hash ring and one
:class:`~repro.service.live.ClientGateway` per shard.  All gateways
share this process's asyncio loop; each multiplexes that shard's
logical clients over a single socket to its own cluster.  Routing
happens entirely client-side: the
:class:`~repro.shard.router.ShardRouter` hashes each operation's key
and submits through the owning shard's gateway pool, so a shard's
replicas never see another shard's keys.

Because every shard runs real OS processes, aggregate throughput
genuinely uses the host's cores — the scaling claim the E30a benchmark
measures (and gates on hosts with >= 4 CPUs).

:func:`run_live_shard_load` is the wall-clock twin of
:func:`repro.shard.sim.run_sim_shard_load`: same report shape, wall
seconds for time units, per-shard cluster summaries attached, and the
cross-shard metrics rollup built with the existing
:func:`~repro.obs.registry.merge_snapshots`.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.net.node import live_deployment
from repro.obs.registry import merge_snapshots
from repro.protocol.selector import make_selector
from repro.service.live import ServiceCluster, service_verdict
from repro.service.loadgen import Workload, load_phases
from repro.shard.ring import DEFAULT_VNODES, HashRing
from repro.shard.router import ShardedLoadGenerator, ShardRouter
from repro.util.errors import ConfigurationError


async def run_live_shard_load(
    shards: int = 2,
    n: int = 4,
    f: int = 1,
    clients: int = 16,
    duration: float = 8.0,
    mode: str = "closed",
    rate: Optional[float] = None,
    seed: int = 3,
    keys: int = 1000,
    zipf_s: float = 1.1,
    vnodes: int = DEFAULT_VNODES,
    kill_shard_leader_at: Optional[float] = None,
    kill_shard: int = 0,
    recover_at: Optional[float] = None,
    drain: float = 2.0,
    settle: float = 1.0,
    retry_timeout: float = 1.0,
    batch_size: int = 64,
    batch_window: float = 0.002,
    checkpoint_interval: Optional[int] = 16,
    heartbeat_period: float = 0.3,
    base_timeout: float = 1.5,
    run_dir=None,
) -> Dict[str, Any]:
    """Drive M live shard clusters under one routed workload; report phases.

    ``clients`` is per shard (matching the sim twin).  The kill schedule
    — when given — applies to ``kill_shard`` only; the other shards run
    fault-free, which is what makes their crash-window throughput the
    blast-radius measurement.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")
    if not 0 <= kill_shard < shards:
        raise ConfigurationError(
            f"kill_shard {kill_shard} out of range for {shards} shards"
        )
    if kill_shard_leader_at is not None and kill_shard_leader_at >= duration:
        raise ConfigurationError(
            f"kill_shard_leader_at {kill_shard_leader_at} outside the load "
            f"window [0, {duration})"
        )
    deployment = live_deployment(
        n=n, f=f, protocol="xpaxos", service="kv",
        batch_size=batch_size, batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
        heartbeat_period=heartbeat_period, base_timeout=base_timeout,
    )
    deployment.validate()
    run_dir = Path(run_dir) if run_dir is not None else None
    initial_leader = make_selector(deployment.selector, n, f).leader_of(0)
    services: List[ServiceCluster] = []
    for s in range(shards):
        kills = ()
        recovers = ()
        if kill_shard_leader_at is not None and s == kill_shard:
            kills = ((initial_leader, settle + kill_shard_leader_at),)
            if recover_at is not None:
                recovers = ((initial_leader, settle + recover_at),)
        services.append(ServiceCluster(
            deployment, clients, retry_timeout,
            label=f"shard-{s}",
            duration=settle + duration + drain + 2.0,
            kills=kills,
            recovers=recovers,
            run_dir=(run_dir / f"shard_{s}") if run_dir is not None else None,
        ))
    gateways = [service.gateway for service in services]

    # One launcher thread per shard: run_cluster blocks for the whole
    # cluster lifetime, so the default executor (sized from CPU count)
    # could deadlock the rendezvous at higher M.
    executor = ThreadPoolExecutor(
        max_workers=shards, thread_name_prefix="shard-cluster"
    )
    try:
        await asyncio.gather(*(service.start(executor) for service in services))
        await asyncio.sleep(settle)

        ring = HashRing(shards, vnodes=vnodes, seed=seed)
        router = ShardRouter(
            ring, {s: list(gw.clients.values()) for s, gw in enumerate(gateways)}
        )
        hosts = {s: gw.host for s, gw in enumerate(gateways)}
        workload = Workload(seed=seed, keys=keys, zipf_s=zipf_s)
        generator = ShardedLoadGenerator(
            hosts, router, workload, mode=mode, rate=rate, duration=duration
        )
        generator.start()
        await asyncio.sleep(duration + drain)
        generator.stop()

        # Per-shard completions shifted onto load-relative seconds; the
        # shards started within one loop iteration of each other, so the
        # per-shard origins differ by microseconds.
        shard_records = {
            s: [entry._replace(completed_at=entry.completed_at - generator.t0[s])
                for entry in records]
            for s, records in generator.shard_completions().items()
        }
    finally:
        cluster_results = [await service.close() for service in services]
        executor.shutdown(wait=False)

    per_shard: Dict[int, Dict[str, Any]] = {}
    for s in range(shards):
        records = shard_records[s]
        block = {
            "completed": len(records),
            "routed": router.routed[s],
            "phases": load_phases(
                records, duration, kill_shard_leader_at, recover_at,
                killed=(s == kill_shard),
            ),
            "replies_unrouted": gateways[s].replies_unrouted,
            "cluster": cluster_results[s].summary(),
        }
        block.update(service_verdict(cluster_results[s]))
        per_shard[s] = block

    merged_all = sorted(
        (entry for records in shard_records.values() for entry in records),
        key=lambda entry: entry.completed_at,
    )
    aggregate = load_phases(
        merged_all, duration, kill_shard_leader_at, recover_at, killed=False
    )

    # Cross-shard metrics rollup: every node of every shard into one
    # deployment-wide snapshot (pid labels collide across shards by
    # design — counters sum into deployment totals).
    snapshots = [
        snapshot
        for result in cluster_results
        for snapshot in result.metrics_snapshots().values()
    ]
    deployment_metrics = merge_snapshots(snapshots) if snapshots else None
    if run_dir is not None and deployment_metrics is not None:
        (run_dir / "deployment_metrics.json").write_text(
            json.dumps(deployment_metrics, indent=2, sort_keys=True) + "\n"
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
        "at_most_once": all(
            b["at_most_once"] for b in per_shard.values()
        ),
        "digests_agree": all(b["digests_agree"] for b in per_shard.values()),
        "replies_unrouted": sum(gw.replies_unrouted for gw in gateways),
        "metrics_families": (
            len(deployment_metrics["metrics"]) if deployment_metrics else 0
        ),
    }
    if kill_shard_leader_at is not None:
        report["kill"] = {
            "shard": kill_shard,
            "leader": initial_leader,
            "at": kill_shard_leader_at,
            "recover_at": recover_at,
            "view_change": per_shard[kill_shard]["phases"].get("view_change"),
        }
    return report


def run_live_shard_load_blocking(**kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`run_live_shard_load`."""
    return asyncio.run(run_live_shard_load(**kwargs))
