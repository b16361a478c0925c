"""Command-line interface: ``python -m repro <command>``.

Quick entry points into the reproduction without writing a script:

- ``bounds [--f-max N]`` — print every closed-form bound from the paper.
- ``thm4 [--f F]`` — run the Theorem-4 adversary live and report counts.
- ``crash-compare [--f F]`` — leader crash under Quorum Selection vs
  XPaxos enumeration.
- ``savings [--f-max N]`` — the introduction's message-savings table.
- ``worst-case [--f F]`` — exhaustive/greedy per-epoch worst case
  (the "simulations suggest" experiment).
- ``sweep [--jobs N] [--no-cache]`` — the E17 crash grid through the
  parallel execution engine with the on-disk result cache
  (DESIGN.md §5.15).
- ``cluster --n 7 --f 2 [--kill PID@T] [--recover PID@T]`` — launch a
  live loopback cluster (one OS process per replica over TCP), inject
  crashes/recoveries on schedule, and report the cluster verdict.
- ``node`` — one replica of such a cluster (used internally by
  ``cluster``; documented for running replicas across machines).
- ``metrics {sim,net,render,diff}`` — snapshot the observability
  registry from a deterministic simulation or a live loopback cluster,
  re-render saved snapshots, or diff two of them; output as a table,
  Prometheus text exposition, or JSON.
- ``adversary {attack,search}`` — run one programmable-adversary attack
  trial, or the seeded randomized lower-bound chase against Theorem 4's
  ``C(f+2,2)`` proposed-quorum count (E28).

Each command prints a table built by the same code the benchmarks use.
Invalid argument combinations exit with status 2 and a one-line message
— never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.bounds import (
    cor10_total_bound,
    enumeration_cycle_length,
    observed_max_changes_claim,
    thm3_upper_bound,
    thm4_quorum_count,
    thm9_per_epoch_bound,
)
from repro.analysis.report import Table
from repro.protocol.backend import backend_names


def _invalid(message: str) -> int:
    """Reject an invalid argument combination: message to stderr, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _require_f(f: int) -> Optional[int]:
    """Shared ``--f`` sanity check; returns an exit code when invalid."""
    if f < 1:
        return _invalid(f"--f must be >= 1, got {f}")
    return None


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.f_max < 1:
        return _invalid(f"--f-max must be >= 1, got {args.f_max}")
    table = Table(
        [
            "f", "Thm 3 f(f+1)", "Thm 4 C(f+2,2)", "changes C(f+2,2)-1",
            "Thm 9 3f+1", "Cor 10 6f+2", "enum cycle C(2f+1,f)",
        ],
        title="Closed-form bounds (per-epoch counts unless noted)",
    )
    for f in range(1, args.f_max + 1):
        table.add_row(
            f, thm3_upper_bound(f), thm4_quorum_count(f),
            observed_max_changes_claim(f), thm9_per_epoch_bound(f),
            cor10_total_bound(f), enumeration_cycle_length(2 * f + 1, f),
        )
    print(table.render())
    return 0


def _cmd_thm4(args: argparse.Namespace) -> int:
    invalid = _require_f(args.f)
    if invalid is not None:
        return invalid
    from repro.analysis.runner import run_thm4_adversary

    f = args.f
    result = run_thm4_adversary(2 * f + 2, f, seed=args.seed)
    table = Table(["metric", "value"], title=f"Theorem 4 adversary, f={f}")
    table.add_row("suspicions fired", result.suspicions_fired)
    table.add_row("quorum changes", result.max_changes_per_epoch)
    table.add_row("claimed maximum C(f+2,2)-1", observed_max_changes_claim(f))
    table.add_row("Theorem 3 bound f(f+1)", thm3_upper_bound(f))
    table.add_row("final quorum", result.final_quorum)
    table.add_row("agreement / no-suspicion",
                  f"{result.final_quorums_agree} / {result.no_suspicion}")
    print(table.render())
    return 0


def _cmd_crash_compare(args: argparse.Namespace) -> int:
    invalid = _require_f(args.f)
    if invalid is not None:
        return invalid
    from repro.analysis.runner import run_xpaxos_crash_comparison

    f = args.f
    comparison = run_xpaxos_crash_comparison(
        n=2 * f + 1, f=f, crash_pids=(1,), seed=args.seed, duration=1500.0
    )
    selection, enumeration = comparison.view_changes()
    sel_done, enum_done = comparison.completed()
    table = Table(
        ["policy", "view changes", "completed requests"],
        title=f"Leader crash at t=30, n={2 * f + 1}, f={f}",
    )
    table.add_row("quorum selection", selection, sel_done)
    table.add_row("enumeration (XPaxos)", enumeration, enum_done)
    print(table.render())
    return 0


def _cmd_savings(args: argparse.Namespace) -> int:
    if args.f_max < 1:
        return _invalid(f"--f-max must be >= 1, got {args.f_max}")
    from repro.analysis.runner import measure_message_savings

    table = Table(
        ["f", "family", "msgs/req full", "msgs/req active", "per-broadcast drop"],
        title="Inter-replica message savings (introduction claim)",
    )
    for f in range(1, args.f_max + 1):
        for family, flag in (("3f+1", False), ("2f+1", True)):
            s = measure_message_savings(f, two_f_plus_one=flag)
            table.add_row(f, family, s.full_messages_per_request,
                          s.active_messages_per_request, s.per_broadcast_reduction)
    print(table.render())
    return 0


def _cmd_worst_case(args: argparse.Namespace) -> int:
    invalid = _require_f(args.f)
    if invalid is not None:
        return invalid
    from repro.analysis.abstract import exhaustive_max_changes, greedy_max_changes

    f = args.f
    n = 2 * f + 2
    table = Table(["search", "max changes/epoch", "claim"], title=f"Worst case, f={f}")
    if f <= 2:
        table.add_row("exhaustive (all faulty sets)",
                      exhaustive_max_changes(n, f), observed_max_changes_claim(f))
    elif f == 3:
        table.add_row("exhaustive (F={1..f})",
                      exhaustive_max_changes(n, f, faulty=set(range(1, f + 1))),
                      observed_max_changes_claim(f))
    table.add_row("greedy", greedy_max_changes(n, f), observed_max_changes_claim(f))
    print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        return _invalid(f"--jobs must be >= 1, got {args.jobs}")
    import time

    from repro.analysis.cache import ResultCache
    from repro.analysis.sweeps import PointError, grid_sweep
    from repro.analysis.tasks import e17_crash_case
    from repro.util.errors import ConfigurationError

    try:
        cases = [
            tuple(int(part) for part in chunk.split(":"))
            for chunk in args.cases.split(",") if chunk
        ]
        seeds = [int(chunk) for chunk in args.seeds.split(",") if chunk]
        if any(len(case) != 2 for case in cases) or not cases or not seeds:
            raise ValueError
    except ValueError:
        print("--cases must look like '5:2,10:3' and --seeds like '3,7,11'",
              file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    grid = [dict(n=n, f=f) for n, f in cases]
    started = time.perf_counter()
    try:
        results = grid_sweep(
            e17_crash_case, grid, seeds,
            jobs=args.jobs, cache=cache, on_error="record",
        )
    except ConfigurationError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started

    table = Table(
        ["n", "f", "quorum changes", "converged at (sim t)",
         "UPDATE msgs (mean)", "agree"],
        title=(
            f"E17 crash grid — jobs={args.jobs}, seeds={seeds}, "
            f"cache={'off' if cache is None else cache.root}"
        ),
    )
    failed = 0
    for point, summaries in results:
        if isinstance(summaries, PointError):
            failed += 1
            table.add_row(point["n"], point["f"], "ERROR", "-", "-",
                          summaries.describe())
            continue
        table.add_row(
            point["n"], point["f"],
            round(summaries["changes"].mean, 2),
            round(summaries["converged_at"].mean, 2),
            round(summaries["updates"].mean, 1),
            summaries["agree"].minimum == 1.0,
        )
    print(table.render())
    line = f"wall: {wall:.3f}s, jobs={args.jobs}"
    if cache is not None:
        stats = cache.stats
        line += (
            f", cache hits={stats.hits} misses={stats.misses} "
            f"(hit rate {stats.hit_rate:.0%})"
        )
    print(line)
    return 1 if failed else 0


def _cluster_config(args: argparse.Namespace, **launch):
    """The cluster the flags ``cluster`` and ``metrics net`` share describe."""
    from repro.net.cluster import ClusterConfig, parse_schedule

    return ClusterConfig(
        n=args.n,
        f=args.f,
        duration=args.duration,
        kills=parse_schedule(args.kill, "kill"),
        recovers=parse_schedule(args.recover, "recover"),
        selector=args.selector,
        heartbeat_period=args.heartbeat,
        base_timeout=args.timeout,
        run_dir=args.run_dir,
        uvloop=args.uvloop,
        **launch,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.net.cluster import run_cluster
    from repro.util.errors import ConfigurationError

    try:
        config = _cluster_config(
            args, kill_mode=args.kill_mode, anti_entropy_period=args.anti_entropy
        )
        config.validate()
    except ConfigurationError as exc:
        return _invalid(str(exc))

    result = run_cluster(config)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        table = Table(
            ["metric", "value"],
            title=(
                f"Live loopback cluster — n={args.n}, f={args.f}, "
                f"{args.duration:.1f}s, kill_mode={args.kill_mode}"
            ),
        )
        quorum = summary["final_quorum"]
        table.add_row("correct replicas", ",".join(map(str, summary["correct_pids"])))
        table.add_row("agreement", summary["agreement"])
        table.add_row("final quorum", ",".join(map(str, quorum)) if quorum else "-")
        table.add_row("active quorum (no crashed member)", summary["active_quorum"])
        table.add_row("max quorum changes / epoch", summary["max_changes_per_epoch"])
        table.add_row("Thm 3 bound f(f+1)", args.f * (args.f + 1))
        table.add_row("wall seconds", summary["wall_seconds"])
        print(table.render())
        if result.run_dir is not None:
            print(f"per-node event streams: {result.run_dir}/node_*.jsonl")
    healthy = summary["agreement"] and (
        summary["active_quorum"] or not (config.kills or config.recovers)
    )
    return 0 if healthy else 1


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.net.node import NodeConfig, parse_peer_map, run_node_blocking
    from repro.util.errors import ConfigurationError

    peers = None
    if args.peers != "-":
        try:
            entries = dict(
                part.split("=", 1) for part in args.peers.split(",") if part
            )
            peers = parse_peer_map(entries)
        except (ValueError, KeyError):
            return _invalid(
                "--peers expects '-' (stdin rendezvous) or "
                "'1=host:port,2=host:port,...'"
            )
    try:
        config = NodeConfig(
            pid=args.pid,
            n=args.n,
            f=args.f,
            port=args.port,
            peers=peers,
            selector=args.selector,
            heartbeat_period=args.heartbeat,
            base_timeout=args.timeout,
            duration=args.duration,
            queue_capacity=args.queue_capacity,
            anti_entropy_period=args.anti_entropy,
            kills_at=tuple(args.kill_at),
            recovers_at=tuple(args.recover_at),
            metrics_prom_path=args.metrics_prom,
            uvloop=args.uvloop,
            service=args.service,
            service_clients=args.service_clients,
            batch_size=args.batch_size,
            batch_window=args.batch_window,
            checkpoint_interval=args.checkpoint_interval,
            # --protocol only means something under --service.
            protocol=args.protocol if args.service else None,
        )
        config.validate()
        run_node_blocking(config)
    except ConfigurationError as exc:
        return _invalid(str(exc))
    return 0


def _load_options(args: argparse.Namespace):
    """The keywords every load driver shares, from the ``loadgen`` flags."""
    return {
        "n": args.n,
        "f": args.f,
        "clients": args.clients,
        "duration": args.duration,
        "mode": args.mode,
        "rate": args.rate,
        "seed": args.seed,
        "keys": args.keys,
        "zipf_s": args.zipf,
        "recover_at": args.recover_at,
    }


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.util.errors import ConfigurationError

    if args.mode == "open" and args.rate is None:
        return _invalid("open-loop mode needs --rate")
    kill = args.kill_leader_at
    recover = args.recover_at
    if recover is not None and kill is None:
        return _invalid("--recover-at needs --kill-leader-at")
    if args.shards < 1:
        return _invalid(f"--shards must be >= 1, got {args.shards}")
    if not 0 <= args.kill_shard < args.shards:
        return _invalid(
            f"--kill-shard {args.kill_shard} out of range for "
            f"{args.shards} shards"
        )
    if args.clients is None:
        if args.shards > 1:
            args.clients = 50 if args.runtime == "sim" else 16
        else:
            args.clients = 100 if args.runtime == "sim" else 32
    if args.duration is None:
        args.duration = 300.0 if args.runtime == "sim" else 8.0
    if args.shards > 1:
        if args.protocol != "xpaxos":
            return _invalid("--protocol is only supported with --shards 1")
        return _cmd_loadgen_sharded(args)
    try:
        if args.runtime == "sim":
            from repro.service.loadgen import run_sim_load

            report = run_sim_load(
                **_load_options(args), kill_leader_at=kill, protocol=args.protocol
            )
            report.pop("world", None)
        else:
            from repro.service.live import run_live_load_blocking

            report = run_live_load_blocking(
                **_load_options(args), kill_leader_at=kill, protocol=args.protocol,
                run_dir=args.run_dir,
            )
    except ConfigurationError as exc:
        return _invalid(str(exc))

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        unit = "s" if args.runtime == "live" else "sim-t"
        table = Table(
            ["phase", "completed", f"throughput (req/{unit})",
             "latency p50", "latency p99"],
            title=(
                f"KV service load — {args.runtime}, {args.protocol}, "
                f"n={args.n}, f={args.f}, {args.clients} clients, "
                f"{args.mode}-loop"
            ),
        )
        for name, phase in report["phases"].items():
            if name == "view_change":
                continue
            table.add_row(
                name, phase["completed"], phase["throughput"],
                phase["latency_p50"], phase["latency_p99"],
            )
        print(table.render())
        view_change = report["phases"].get("view_change")
        if view_change is not None:
            print(
                f"view-change outage: {view_change['outage']} "
                f"(new view learned by {view_change['new_view_learned_by']} clients)"
            )
        print(
            f"offered={report['offered']} completed={report['completed']} "
            f"retries={report['retries']} at_most_once={report['at_most_once']} "
            f"digests_agree={report['digests_agree']}"
        )
    healthy = bool(report["at_most_once"]) and bool(report["digests_agree"])
    return 0 if healthy else 1


def _cmd_loadgen_sharded(args: argparse.Namespace) -> int:
    """``loadgen --shards M``: the deployment-level sharded drivers."""
    from repro.util.errors import ConfigurationError

    options = dict(
        _load_options(args), kill_shard_leader_at=args.kill_leader_at,
        shards=args.shards, vnodes=args.vnodes, kill_shard=args.kill_shard,
    )
    try:
        if args.runtime == "sim":
            from repro.shard.sim import run_sim_shard_load

            report = run_sim_shard_load(**options)
            report.pop("worlds", None)
        else:
            from repro.shard.live import run_live_shard_load_blocking

            report = run_live_shard_load_blocking(**options, run_dir=args.run_dir)
    except ConfigurationError as exc:
        return _invalid(str(exc))

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        unit = "s" if args.runtime == "live" else "sim-t"
        table = Table(
            ["shard", "phase", "completed", f"throughput (req/{unit})",
             "latency p50", "latency p99"],
            title=(
                f"Sharded KV load — {args.runtime}, {args.shards} shards x "
                f"(n={args.n}, f={args.f}), {args.clients} clients/shard, "
                f"{args.mode}-loop"
            ),
        )
        blocks = [("all", report["aggregate"])] + [
            (str(s), block["phases"])
            for s, block in sorted(report["per_shard"].items())
        ]
        for shard_label, phases in blocks:
            for name, phase in phases.items():
                if name == "view_change":
                    continue
                table.add_row(
                    shard_label, name, phase["completed"], phase["throughput"],
                    phase["latency_p50"], phase["latency_p99"],
                )
        print(table.render())
        if report["kill"] is not None:
            view_change = report["kill"].get("view_change") or {}
            print(
                f"shard {report['kill']['shard']} leader killed at "
                f"{report['kill']['at']}: outage={view_change.get('outage')}"
            )
        print(
            f"offered={report['offered']} completed={report['completed']} "
            f"retries={report['retries']} at_most_once={report['at_most_once']} "
            f"digests_agree={report['digests_agree']}"
        )
    healthy = bool(report["at_most_once"]) and bool(report["digests_agree"])
    return 0 if healthy else 1


def _emit_snapshot(snapshot: dict, render: str, out: Optional[str]) -> int:
    """Render a metrics snapshot in the requested format, to stdout or file."""
    from repro.obs.registry import render_prometheus, render_table

    if render == "json":
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    elif render == "prom":
        text = render_prometheus(snapshot)
    else:
        text = render_table(snapshot)
    if not text.endswith("\n"):
        text += "\n"
    if out is not None:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _load_snapshot(path: str) -> dict:
    from repro.obs.registry import SNAPSHOT_SCHEMA
    from repro.util.errors import ConfigurationError

    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read snapshot {path}: {exc}") from None
    if not isinstance(snapshot, dict) or snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a {SNAPSHOT_SCHEMA} snapshot "
            "(produce one with `repro metrics sim --render json`)"
        )
    return snapshot


def _cmd_metrics_sim(args: argparse.Namespace) -> int:
    from repro.net.cluster import parse_schedule
    from repro.sim.worlds import build_qs_world
    from repro.util.errors import ConfigurationError

    try:
        kills = parse_schedule(args.kill, "kill")
        recovers = parse_schedule(args.recover, "recover")
        sim, _modules = build_qs_world(
            args.n, args.f, seed=args.seed, selector=args.selector
        )
    except ConfigurationError as exc:
        return _invalid(str(exc))
    for pid, t in kills:
        sim.at(t, sim.host(pid).crash)
    for pid, t in recovers:
        sim.at(t, sim.host(pid).recover)
    sim.run_until(args.duration)
    return _emit_snapshot(sim.obs.snapshot(), args.render, args.out)


def _cmd_metrics_net(args: argparse.Namespace) -> int:
    from repro.net.cluster import run_cluster
    from repro.util.errors import ConfigurationError

    try:
        config = _cluster_config(args)
        config.validate()
    except ConfigurationError as exc:
        return _invalid(str(exc))
    result = run_cluster(config)
    merged = result.merged_metrics()
    if merged is None:
        print("error: no node emitted a metrics snapshot", file=sys.stderr)
        return 1
    return _emit_snapshot(merged, args.render, args.out)


def _load_merged(paths) -> dict:
    """Load one or more snapshot files; merge when more than one.

    Merging uses :func:`~repro.obs.registry.merge_snapshots` — the same
    rollup the sharded drivers apply across shard clusters — so
    ``metrics render shard_0.json shard_1.json`` shows deployment totals.
    """
    from repro.obs.registry import merge_snapshots

    snapshots = [_load_snapshot(path) for path in paths]
    return snapshots[0] if len(snapshots) == 1 else merge_snapshots(snapshots)


def _cmd_metrics_render(args: argparse.Namespace) -> int:
    from repro.util.errors import ConfigurationError

    try:
        snapshot = _load_merged(args.snapshots)
    except ConfigurationError as exc:
        return _invalid(str(exc))
    return _emit_snapshot(snapshot, args.render, args.out)


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    from repro.obs.registry import diff_snapshots
    from repro.util.errors import ConfigurationError

    try:
        before = _load_merged(args.before.split(","))
        after = _load_merged(args.after.split(","))
    except ConfigurationError as exc:
        return _invalid(str(exc))
    return _emit_snapshot(diff_snapshots(before, after), args.render, args.out)


def _cmd_adversary_attack(args: argparse.Namespace) -> int:
    invalid = _require_f(args.f)
    if invalid is not None:
        return invalid
    from repro.adversary.search import STRATEGY_FACTORIES, run_attack_case
    from repro.util.errors import ConfigurationError

    if args.strategy not in STRATEGY_FACTORIES:
        return _invalid(
            f"unknown strategy {args.strategy!r}; "
            f"known: {', '.join(sorted(STRATEGY_FACTORIES))}"
        )
    n = args.n if args.n is not None else 2 * args.f + 2
    try:
        params = json.loads(args.params) if args.params else None
    except json.JSONDecodeError as exc:
        return _invalid(f"--params is not valid JSON: {exc}")
    try:
        result = run_attack_case(
            seed=args.seed, n=n, f=args.f, strategy=args.strategy,
            params=params, jitter=args.jitter,
        )
    except (ConfigurationError, TypeError) as exc:
        return _invalid(f"cannot build strategy {args.strategy!r}: {exc}")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    table = Table(
        ["metric", "value"],
        title=f"Adversary attack — {args.strategy}, n={n}, f={args.f}, "
              f"seed={args.seed}",
    )
    table.add_row("proposed quorums (worst epoch)", int(result["proposed_quorums"]))
    table.add_row("Thm 4 count C(f+2,2)", thm4_quorum_count(args.f))
    table.add_row("quorum changes (worst epoch)", int(result["max_changes_per_epoch"]))
    table.add_row("Thm 3 bound f(f+1)", thm3_upper_bound(args.f))
    table.add_row("max epoch", int(result["max_epoch"]))
    table.add_row("adversary actions", int(result["actions"]))
    table.add_row("strategy finished", bool(result["done"]))
    table.add_row("agreement", bool(result["agree"]))
    print(table.render())
    return 0 if result["agree"] else 1


def _cmd_adversary_search(args: argparse.Namespace) -> int:
    if args.budget < 1:
        return _invalid(f"--budget must be >= 1, got {args.budget}")
    if args.rounds < 1:
        return _invalid(f"--rounds must be >= 1, got {args.rounds}")
    if args.jobs < 1:
        return _invalid(f"--jobs must be >= 1, got {args.jobs}")
    try:
        f_values = [int(chunk) for chunk in args.f_values.split(",") if chunk]
        if not f_values or any(f < 1 for f in f_values):
            raise ValueError
    except ValueError:
        return _invalid("--f-values must be comma-separated ints >= 1, "
                        "e.g. '1,2,3'")
    import time

    from repro.adversary.search import chase_bound
    from repro.analysis.cache import ResultCache

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    started = time.perf_counter()
    report = chase_bound(
        f_values, seed=args.seed, budget=args.budget, rounds=args.rounds,
        jobs=args.jobs, cache=cache,
    )
    wall = time.perf_counter() - started
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    table = Table(
        ["f", "n", "best attack", "proposed quorums", "Thm 4 C(f+2,2)",
         "canonical exact", "Thm 3 ok", "trials (cached)"],
        title=(
            f"Lower-bound chase — seed={args.seed}, budget={args.budget}, "
            f"rounds={args.rounds}, jobs={args.jobs}"
        ),
    )
    all_met = True
    for entry in report["entries"]:
        all_met = all_met and entry["bound_met"] and entry["canonical_exact"]
        table.add_row(
            entry["f"], entry["n"], entry["best"]["strategy"],
            int(entry["best"]["proposed_quorums"]), entry["thm4_bound"],
            entry["canonical_exact"], entry["thm3_ok"],
            f"{len(entry['trials'])} ({entry['cached_trials']})",
        )
    print(table.render())
    line = f"wall: {wall:.3f}s"
    if cache is not None:
        stats = cache.stats
        line += f", cache hits={stats.hits} misses={stats.misses}"
    print(line)
    return 0 if all_met else 1


#: ``--follower-mode``: the deployment's selector is ``fs``, not ``qs``.
FOLLOWER_MODE = dict(action="store_const", dest="selector", const="fs", default="qs")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.net.node import LIVE_DEFAULTS as LIVE

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Quorum Selection for Byzantine Fault "
                    "Tolerance' (Jehl, ICDCS 2019)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print the paper's closed-form bounds")
    bounds.add_argument("--f-max", type=int, default=6)
    bounds.set_defaults(func=_cmd_bounds)

    thm4 = sub.add_parser("thm4", help="run the Theorem-4 adversary live")
    thm4.add_argument("--f", type=int, default=2)
    thm4.add_argument("--seed", type=int, default=3)
    thm4.set_defaults(func=_cmd_thm4)

    crash = sub.add_parser("crash-compare",
                           help="leader crash: quorum selection vs enumeration")
    crash.add_argument("--f", type=int, default=2)
    crash.add_argument("--seed", type=int, default=9)
    crash.set_defaults(func=_cmd_crash_compare)

    savings = sub.add_parser("savings", help="message-savings table (E7)")
    savings.add_argument("--f-max", type=int, default=3)
    savings.set_defaults(func=_cmd_savings)

    worst = sub.add_parser("worst-case",
                           help="per-epoch worst case ('simulations suggest')")
    worst.add_argument("--f", type=int, default=2)
    worst.set_defaults(func=_cmd_worst_case)

    sweep = sub.add_parser(
        "sweep",
        help="E17 crash grid via the parallel engine + result cache (E23)",
    )
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--cases", default="5:2,10:3,15:4",
                       help="comma-separated n:f grid points")
    sweep.add_argument("--seeds", default="3,7,11",
                       help="comma-separated seeds per point")
    sweep.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the on-disk cache")
    sweep.add_argument("--cache-dir", default=".benchmarks/cache",
                       help="result cache directory (default .benchmarks/cache)")
    sweep.set_defaults(func=_cmd_sweep)

    cluster = sub.add_parser(
        "cluster",
        help="live loopback cluster: one OS process per replica over TCP",
    )
    cluster.add_argument("--n", type=int, default=7, help="replicas (default 7)")
    cluster.add_argument("--f", type=int, default=2, help="fault bound (default 2)")
    cluster.add_argument("--duration", type=float, default=10.0,
                         help="run length in wall seconds (default 10)")
    cluster.add_argument("--kill", action="append", default=[], metavar="PID@T",
                         help="crash PID at T seconds after start (repeatable)")
    cluster.add_argument("--recover", action="append", default=[], metavar="PID@T",
                         help="recover PID at T seconds after start (repeatable)")
    cluster.add_argument("--kill-mode", choices=("host", "process"), default="host",
                         help="host = silent crash with state (recoverable); "
                              "process = SIGKILL the replica")
    cluster.add_argument("--follower-mode", **FOLLOWER_MODE,
                         help="run Follower Selection instead of Quorum Selection")
    cluster.add_argument("--heartbeat", type=float, default=LIVE["heartbeat_period"],
                         help="heartbeat period in seconds (default %(default)s)")
    cluster.add_argument("--timeout", type=float, default=LIVE["base_timeout"],
                         help="failure-detector base timeout in seconds "
                              "(default %(default)s)")
    cluster.add_argument("--anti-entropy", type=float, default=None,
                         help="periodic matrix sync period (default off)")
    cluster.add_argument("--run-dir", default=None,
                         help="directory for per-node JSONL event streams")
    cluster.add_argument("--uvloop", action="store_true",
                         help="run nodes under uvloop when installed "
                              "(silent fallback otherwise)")
    cluster.add_argument("--json", action="store_true",
                         help="print the machine-readable summary instead of a table")
    cluster.set_defaults(func=_cmd_cluster)

    node = sub.add_parser(
        "node",
        help="one live replica (spawned by `cluster`; usable across machines)",
    )
    node.add_argument("--pid", type=int, required=True)
    node.add_argument("--n", type=int, required=True)
    node.add_argument("--f", type=int, required=True)
    node.add_argument("--port", type=int, default=0,
                      help="listen port (default 0 = ephemeral)")
    node.add_argument("--peers", default="-",
                      help="'-' reads a JSON peer map from stdin (rendezvous); "
                           "or '1=host:port,2=host:port,...'")
    node.add_argument("--duration", type=float, default=10.0)
    node.add_argument("--heartbeat", type=float, default=LIVE["heartbeat_period"])
    node.add_argument("--timeout", type=float, default=LIVE["base_timeout"])
    node.add_argument("--queue-capacity", type=int, default=1024)
    node.add_argument("--anti-entropy", type=float, default=None)
    node.add_argument("--follower-mode", **FOLLOWER_MODE)
    node.add_argument("--kill-at", type=float, action="append", default=[],
                      metavar="T", help="crash own host T seconds after ready")
    node.add_argument("--recover-at", type=float, action="append", default=[],
                      metavar="T", help="recover own host T seconds after ready")
    node.add_argument("--metrics-prom", default=None, metavar="PATH",
                      help="write final metrics as Prometheus text to PATH")
    node.add_argument("--uvloop", action="store_true",
                      help="install uvloop before running (no-op if missing)")
    node.add_argument("--service", choices=("kv",), default=None,
                      help="run a replicated service on top of the QS stack")
    node.add_argument("--service-clients", type=int, default=0,
                      help="logical client pids covered by the key registry")
    node.add_argument("--batch-size", type=int, default=LIVE["batch_size"],
                      help="service consensus batch size (default %(default)s)")
    node.add_argument("--batch-window", type=float, default=LIVE["batch_window"],
                      help="service consensus batch window seconds "
                           "(default %(default)s)")
    node.add_argument("--checkpoint-interval", type=int,
                      default=LIVE["checkpoint_interval"],
                      help="service checkpoint every N slots (default %(default)s)")
    node.add_argument("--protocol", choices=backend_names(), default="xpaxos",
                      help="protocol backend executing the service (default xpaxos)")
    node.set_defaults(func=_cmd_node)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the replicated KV service under load (sim or live TCP)",
    )
    loadgen.add_argument("--runtime", choices=("sim", "live"), default="sim",
                         help="deterministic sim or live loopback cluster")
    loadgen.add_argument("--protocol", choices=backend_names(), default="xpaxos",
                         help="protocol backend executing the service "
                              "(default xpaxos; single-deployment runs only)")
    loadgen.add_argument("--n", type=int, default=4, help="replicas (default 4)")
    loadgen.add_argument("--f", type=int, default=1, help="fault bound (default 1)")
    loadgen.add_argument("--clients", type=int, default=None,
                         help="logical clients (default: 100 sim, 32 live)")
    loadgen.add_argument("--duration", type=float, default=None,
                         help="load window (default: 300 sim-t, 8 s live)")
    loadgen.add_argument("--mode", choices=("closed", "open"), default="closed",
                         help="closed-loop (one outstanding/client) or "
                              "open-loop fixed-rate arrivals")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate (req per time unit)")
    loadgen.add_argument("--seed", type=int, default=3)
    loadgen.add_argument("--keys", type=int, default=1000,
                         help="key-space size (default 1000)")
    loadgen.add_argument("--zipf", type=float, default=1.1,
                         help="zipf skew for key choice (default 1.1)")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="independent shard clusters behind a "
                              "consistent-hash router (default 1)")
    loadgen.add_argument("--vnodes", type=int, default=128,
                         help="virtual nodes per shard on the hash ring "
                              "(default 128; --shards > 1 only)")
    loadgen.add_argument("--kill-leader-at", type=float, default=None,
                         metavar="T", help="crash the initial leader at T "
                              "(with --shards: the leader of --kill-shard)")
    loadgen.add_argument("--kill-shard", type=int, default=0,
                         help="which shard's leader --kill-leader-at crashes "
                              "(default 0)")
    loadgen.add_argument("--recover-at", type=float, default=None,
                         metavar="T", help="recover the killed leader at T")
    loadgen.add_argument("--run-dir", default=None,
                         help="live only: per-node JSONL event streams")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full machine-readable report")
    loadgen.set_defaults(func=_cmd_loadgen)

    metrics = sub.add_parser(
        "metrics",
        help="snapshot/diff/render the observability registry (sim or live)",
    )
    metrics_sub = metrics.add_subparsers(dest="mode", required=True)

    msim = metrics_sub.add_parser(
        "sim", help="run a deterministic simulation and print its metrics"
    )
    msim.add_argument("--n", type=int, default=5)
    msim.add_argument("--f", type=int, default=2)
    msim.add_argument("--seed", type=int, default=3)
    msim.add_argument("--duration", type=float, default=60.0,
                      help="simulated seconds to run (default 60)")
    msim.add_argument("--kill", action="append", default=[], metavar="PID@T",
                      help="crash PID at sim time T (repeatable)")
    msim.add_argument("--recover", action="append", default=[], metavar="PID@T",
                      help="recover PID at sim time T (repeatable)")
    msim.add_argument("--follower-mode", **FOLLOWER_MODE)
    msim.add_argument("--render", choices=("table", "prom", "json"),
                      default="table")
    msim.add_argument("--out", default=None, metavar="FILE",
                      help="write to FILE instead of stdout")
    msim.set_defaults(func=_cmd_metrics_sim)

    mnet = metrics_sub.add_parser(
        "net", help="run a live loopback cluster and print its merged metrics"
    )
    mnet.add_argument("--n", type=int, default=5)
    mnet.add_argument("--f", type=int, default=2)
    mnet.add_argument("--duration", type=float, default=8.0,
                      help="run length in wall seconds (default 8)")
    mnet.add_argument("--kill", action="append", default=[], metavar="PID@T")
    mnet.add_argument("--recover", action="append", default=[], metavar="PID@T")
    mnet.add_argument("--heartbeat", type=float, default=LIVE["heartbeat_period"])
    mnet.add_argument("--timeout", type=float, default=LIVE["base_timeout"])
    mnet.add_argument("--follower-mode", **FOLLOWER_MODE)
    mnet.add_argument("--run-dir", default=None,
                      help="also write per-node JSONL + .prom files here")
    mnet.add_argument("--uvloop", action="store_true",
                      help="run nodes under uvloop when installed")
    mnet.add_argument("--render", choices=("table", "prom", "json"),
                      default="table")
    mnet.add_argument("--out", default=None, metavar="FILE")
    mnet.set_defaults(func=_cmd_metrics_net)

    mrender = metrics_sub.add_parser(
        "render", help="re-render a saved snapshot JSON file"
    )
    mrender.add_argument("snapshots", nargs="+", metavar="SNAPSHOT",
                         help="snapshot JSON file(s) (repro.metrics/1); "
                              "several are merged into one rollup")
    mrender.add_argument("--render", choices=("table", "prom", "json"),
                         default="table")
    mrender.add_argument("--out", default=None, metavar="FILE")
    mrender.set_defaults(func=_cmd_metrics_render)

    mdiff = metrics_sub.add_parser(
        "diff", help="delta between two saved snapshots (after - before)"
    )
    mdiff.add_argument("before", help="earlier snapshot JSON file "
                       "(comma-separate several to merge before diffing)")
    mdiff.add_argument("after", help="later snapshot JSON file "
                       "(comma-separate several to merge before diffing)")
    mdiff.add_argument("--render", choices=("table", "prom", "json"),
                       default="table")
    mdiff.add_argument("--out", default=None, metavar="FILE")
    mdiff.set_defaults(func=_cmd_metrics_diff)

    adversary = sub.add_parser(
        "adversary",
        help="programmable Byzantine adversary: one attack or the "
             "randomized lower-bound chase (E28)",
    )
    adversary_sub = adversary.add_subparsers(dest="mode", required=True)

    attack = adversary_sub.add_parser(
        "attack", help="run one engine strategy against a fresh world"
    )
    attack.add_argument("--f", type=int, default=2)
    attack.add_argument("--n", type=int, default=None,
                        help="world size (default 2f+2)")
    attack.add_argument("--seed", type=int, default=3)
    attack.add_argument("--strategy", default="lower_bound",
                        help="lower_bound, collusion, equivocation, "
                             "forged_rows, selective_omission, adaptive_timing")
    attack.add_argument("--params", default=None, metavar="JSON",
                        help='strategy kwargs, e.g. \'{"rounds": 5}\'')
    attack.add_argument("--jitter", type=float, default=0.0,
                        help="adversarial delivery jitter amplitude (default 0)")
    attack.add_argument("--json", action="store_true",
                        help="print the raw metric dict")
    attack.set_defaults(func=_cmd_adversary_attack)

    search = adversary_sub.add_parser(
        "search",
        help="seeded randomized attack search chasing Thm 4's C(f+2,2)",
    )
    search.add_argument("--f-values", default="1,2,3",
                        help="comma-separated f values (default 1,2,3)")
    search.add_argument("--seed", type=int, default=3)
    search.add_argument("--budget", type=int, default=6,
                        help="trials per round per f (default 6)")
    search.add_argument("--rounds", type=int, default=2,
                        help="search rounds: round 0 samples, later rounds "
                             "mutate the elite (default 2)")
    search.add_argument("--jobs", type=int, default=1,
                        help="parallel executor workers (default 1)")
    search.add_argument("--no-cache", action="store_true",
                        help="always simulate; skip the on-disk cache")
    search.add_argument("--cache-dir", default=".benchmarks/cache",
                        help="result cache directory (default .benchmarks/cache)")
    search.add_argument("--json", action="store_true",
                        help="print the full machine-readable report")
    search.set_defaults(func=_cmd_adversary_search)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
