"""E21 hot-path measurement harness — shared by the benchmark and the CLI.

Runs the E17 scenario (crash of ``p1`` at t=10, full stack: heartbeats,
failure detectors, gossiped suspicion matrix, quorum selection) at
consortium scales and reports, per case:

- wall-clock seconds (best of ``repeats`` — the simulation is
  deterministic, so repeated runs differ only by host-machine noise);
- the E17 correctness invariants (agreement, no-suspicion, quorum-change
  count, convergence time, surviving-quorum minimum);
- the aggregated hot-path counters from every process's
  :meth:`QuorumSelectionModule.hotpath_stats` — rebuilds avoided
  (``graph_reuses`` vs ``graph_builds``), searches memoized, incremental
  edge updates, gossip forwards suppressed;
- a digest of the quorum-change trace, so two builds can be checked for
  behavioural identity without shipping the full trace.

The cases run through the parallel execution engine (DESIGN.md §5.15):
``python benchmarks/perf_report.py --jobs N`` dispatches them across N
worker processes (never cached — the wall clock is the payload).  Before
overwriting ``BENCH_hotpath.json`` the previous report is read back and
any case whose ``wall_seconds`` regressed by more than 20% is flagged;
``--strict`` turns flags into a non-zero exit, making this the perf
regression gate for CI boxes with stable hardware.

``bench_e21_update_hotpath.py`` drives the same functions under pytest
and asserts the speedup floor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.analysis.exec import ParallelExecutor, TaskSpec  # noqa: E402
from repro.analysis.report import Table  # noqa: E402
from repro.analysis.tasks import HOTPATH_COUNTERS, e21_hotpath_case  # noqa: E402

from benchmarks._reporting import emit  # noqa: E402

CASES: Tuple[Tuple[int, int], ...] = ((5, 2), (10, 3), (15, 4), (20, 5), (30, 6))

# Seed-commit wall seconds for the same scenario, measured on the machine
# that produced the checked-in BENCH_hotpath.json (best of 3; single-vCPU
# VM).  Absolute numbers are machine-specific — the *ratios* are the
# claim.  Regenerate with ``git stash && python benchmarks/perf_report.py``
# style archaeology if the baseline machine changes.
SEED_BASELINE_WALL: Dict[int, float] = {
    5: 0.052,
    10: 0.249,
    15: 0.705,
    20: 1.566,
    30: 5.544,
}

REPORT_PATH = REPO_ROOT / "BENCH_hotpath.json"

#: A case is flagged when its wall time exceeds the previous report's by
#: more than this fraction.
REGRESSION_THRESHOLD = 0.20


def run_hotpath_case(n: int, f: int, seed: int = 7, repeats: int = 1) -> dict:
    """Run the E17 scenario once per repeat; report best wall + invariants.

    Thin wrapper over the registered ``e21.hotpath_case`` engine task so
    the smoke tier and ad-hoc callers share the measured code path.
    """
    return e21_hotpath_case(seed=seed, n=n, f=f, repeats=repeats)


def check_invariants(row: dict) -> None:
    """The E17 acceptance assertions, shared by benchmark and smoke tier."""
    assert row["agree"] and row["no_suspicion"]
    assert 1 <= row["changes"] <= row["f"] + 2
    assert row["converged_at"] < 30.0
    assert row["final_min"] == 2
    hotpath = row["hotpath"]
    # The incremental view must be doing its job: after the first build
    # per (process, epoch), every later UPDATE reuses the maintained graph.
    assert hotpath["graph_reuses"] > hotpath["graph_builds"]
    assert hotpath["incremental_edge_updates"] > 0


def _ratio_flag(
    what: str, old: Any, new: Any, threshold: float,
    rising: bool = False, fmt: str = ".0f", unit: str = "/s",
) -> Optional[str]:
    """The one ratio-against-previous check every throughput gate shares.

    A flag line when ``new / old`` moved past ``threshold`` (fractional)
    the bad way — up for a ``rising`` cost, down for a throughput —
    else ``None``.  A non-numeric or non-positive ``old`` or a
    non-numeric ``new`` flags nothing: the gate only fires on evidence.
    """
    if not isinstance(old, (int, float)) or old <= 0 or not isinstance(new, (int, float)):
        return None
    ratio = new / old
    if not (ratio > 1.0 + threshold if rising else ratio < 1.0 - threshold):
        return None
    sign = "+" if rising else "-"
    return (
        f"{what} {old:{fmt}}{unit} -> {new:{fmt}}{unit} "
        f"({(ratio - 1) * 100:+.0f}%, threshold {sign}{threshold * 100:.0f}%)"
    )


def find_regressions(
    previous: Optional[dict], cases: List[dict],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Compare new wall times against the previous report's, per case.

    Returns human-readable flag lines for every case whose
    ``wall_seconds`` grew by more than ``threshold`` (fractional).
    Missing or malformed previous reports flag nothing.
    """
    if not previous:
        return []
    old_walls = {
        (row.get("n"), row.get("f")): row.get("wall_seconds")
        for row in previous.get("cases", [])
        if isinstance(row, dict)
    }
    flags = (
        _ratio_flag(f"n={row['n']} f={row['f']}: wall", old_walls.get((row["n"], row["f"])),
                    row["wall_seconds"], threshold, rising=True, fmt=".3f", unit="s")
        for row in cases
    )
    return [flag for flag in flags if flag]


def find_net_regressions(
    previous: Optional[dict], report: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Flag ``BENCH_net_loopback.json``'s UPDATE throughput dropping.

    A flag line when ``update_throughput_frames_per_s`` fell by more than
    ``threshold`` (fractional) versus the previous report.  Missing or
    malformed previous reports flag nothing.
    """
    if not previous:
        return []
    flag = _ratio_flag("UPDATE throughput", previous.get("update_throughput_frames_per_s"),
                       report.get("update_throughput_frames_per_s"), threshold)
    return [flag] if flag else []


def _dig(block: Any, *keys: str) -> Any:
    """``block[k1][k2]...``, or ``None`` where a report lacks the path."""
    try:
        for key in keys:
            block = block[key]
    except (KeyError, TypeError):
        return None
    return block



def find_service_regressions(
    previous: Optional[dict], report: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Flag ``BENCH_service_load.json``'s live steady throughput dropping.

    A flag line when the live steady-state throughput fell by more than
    ``threshold`` (fractional) versus the previous report.  Missing or
    malformed previous reports flag nothing.
    """
    if not previous:
        return []
    path = ("live", "phases", "steady", "throughput")
    flag = _ratio_flag("service steady throughput", _dig(previous, *path),
                       _dig(report, *path), threshold)
    return [flag] if flag else []


def find_shard_regressions(
    previous: Optional[dict], report: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Flag ``BENCH_shard_scaling.json``'s live throughput dropping.

    One flag line per shard count M whose live aggregate steady
    throughput fell by more than ``threshold`` (fractional) versus the
    previous report.  Missing or malformed previous reports flag nothing.
    """
    if not previous:
        return []
    old_points = _dig(previous, "live", "points")
    new_points = _dig(report, "live", "points")
    if not isinstance(old_points, dict) or not isinstance(new_points, dict):
        return []
    path = ("aggregate", "steady", "throughput")
    flags = (
        _ratio_flag(f"shard M={m} aggregate throughput", _dig(old_points.get(m), *path),
                    _dig(new_point, *path), threshold)
        for m, new_point in new_points.items()
    )
    return [flag for flag in flags if flag]


def find_adversary_regressions(
    previous: Optional[dict], report: dict,
) -> List[str]:
    """Flag the adversarial chase losing its Theorem-4 guarantees.

    Unlike the throughput gates this is a *correctness* gate on
    ``BENCH_adversary_search.json``: every f must keep ``canonical_exact``
    (the proof's own attack still scores exactly C(f+2,2)), ``bound_met``
    and ``thm3_ok``, and an f that previously hit the bound dropping its
    best score is flagged too.  Missing or malformed previous reports
    only check the absolute invariants.
    """
    flags = []
    old_entries = {}
    if previous:
        for entry in previous.get("entries", []) or []:
            if isinstance(entry, dict) and "f" in entry:
                old_entries[entry["f"]] = entry
    for entry in report.get("entries", []):
        f = entry["f"]
        if not entry.get("canonical_exact"):
            flags.append(f"adversary f={f}: canonical attack no longer exact")
        if not entry.get("bound_met"):
            flags.append(f"adversary f={f}: best attack below C(f+2,2)")
        if not entry.get("thm3_ok"):
            flags.append(f"adversary f={f}: a trial escaped the Thm 3 envelope")
        old = old_entries.get(f)
        if not old:
            continue
        try:
            old_best = old["best"]["proposed_quorums"]
            new_best = entry["best"]["proposed_quorums"]
        except (KeyError, TypeError):
            continue
        if isinstance(old_best, (int, float)) and \
                isinstance(new_best, (int, float)) and new_best < old_best:
            flags.append(
                f"adversary f={f}: best proposed quorums "
                f"{old_best:.0f} -> {new_best:.0f}"
            )
    return flags


def find_protocol_regressions(
    previous: Optional[dict], report: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Flag the backend comparison (E29) drifting or slowing down.

    Absolute gates on ``BENCH_protocol_compare.json``: every backend's
    measured per-decision cost must still equal its closed form, the
    savings ordering must hold, and the leader-kill scenario must
    re-stabilize with a consistent history.  Relative gate: a backend's
    stabilization latency growing past the threshold (plus one probe
    step of slack — the measurement is step-quantized) is flagged.
    """
    flags = []
    old_backends = (previous or {}).get("backends", {})
    if not isinstance(old_backends, dict):
        old_backends = {}
    for protocol, block in report.get("backends", {}).items():
        for case in block.get("costs", []):
            family = case.get("family")
            if not case.get("measured_matches_analytic"):
                flags.append(
                    f"protocol {protocol} {family}: per-decision cost "
                    f"{case.get('per_decision')} != analytic "
                    f"{case.get('analytic_per_decision')}"
                )
            if not case.get("completed_all") or not case.get("histories_consistent"):
                flags.append(
                    f"protocol {protocol} {family}: cost run lost ops or "
                    f"history consistency"
                )
        stab = block.get("stabilization", {})
        new_latency = stab.get("latency")
        if new_latency is None:
            flags.append(f"protocol {protocol}: never re-stabilized after leader kill")
        if not stab.get("completed_all") or not stab.get("histories_consistent"):
            flags.append(
                f"protocol {protocol}: stabilization run lost ops or "
                f"history consistency"
            )
        old_stab = (old_backends.get(protocol) or {}).get("stabilization", {})
        old_latency = old_stab.get("latency") if isinstance(old_stab, dict) else None
        if (
            isinstance(old_latency, (int, float)) and old_latency > 0
            and isinstance(new_latency, (int, float))
            and new_latency > old_latency * (1 + threshold) + 1.0
        ):
            flags.append(
                f"protocol {protocol}: stabilization latency "
                f"{old_latency:.1f} -> {new_latency:.1f} "
                f"(threshold +{threshold * 100:.0f}%)"
            )
    return flags


def read_previous_report(path: Path = REPORT_PATH) -> Optional[dict]:
    """The report currently on disk, or ``None`` if absent/corrupt."""
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def write_report(repeats: int = 3, path: Path = REPORT_PATH, jobs: int = 1) -> dict:
    """Run every case, write ``BENCH_hotpath.json``, return the report.

    ``jobs>1`` runs the cases in worker processes via the engine (one
    case per chunk — they differ wildly in cost).  Caching is
    deliberately not offered here: the wall clock is the measurement.
    """
    specs = [
        TaskSpec.for_function(e21_hotpath_case, seed=7, n=n, f=f, repeats=repeats)
        for n, f in CASES
    ]
    outcomes = ParallelExecutor(jobs=jobs, chunk_size=1).run(specs)
    cases = []
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"hot-path case failed: {outcome.describe_error()}"
            )
        row = outcome.value
        check_invariants(row)
        baseline = SEED_BASELINE_WALL.get(row["n"])
        row["seed_wall_seconds"] = baseline
        row["speedup_vs_seed"] = (
            round(baseline / row["wall_seconds"], 2) if baseline else None
        )
        cases.append(row)
    report = {
        "benchmark": "E21 — UPDATE hot path (E17 scenario, incremental stack)",
        "scenario": "crash p1 at t=10, run to t=120, seed=7",
        "cases": cases,
        "notes": (
            "wall_seconds is best-of-%d on the current machine; "
            "seed_wall_seconds is the pre-optimization commit on the "
            "baseline machine (see SEED_BASELINE_WALL). Behaviour is "
            "deterministic: trace_sha256 identifies the quorum-change "
            "sequence, identical between seed and optimized builds."
            % repeats
        ),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_table(report: dict) -> str:
    """The human-readable summary, shared by ``main`` and ``_results/``."""
    table = Table(
        [
            "n", "f", "wall s", "seed wall s", "speedup",
            "graph builds", "graph reuses", "edge updates", "memo hits",
        ],
        title="E21 — UPDATE hot path vs seed (E17 scenario)",
    )
    for row in report["cases"]:
        hp = row["hotpath"]
        table.add_row(
            row["n"], row["f"],
            round(row["wall_seconds"], 3), row["seed_wall_seconds"],
            f"{row['speedup_vs_seed']:.1f}x",
            hp["graph_builds"], hp["graph_reuses"],
            hp["incremental_edge_updates"], hp["searches_memoized"],
        )
    return table.render()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the cases (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per case, best wall wins")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if any case regressed >20%%")
    parser.add_argument("--net", action="store_true",
                        help="also run the live loopback runtime benchmark "
                             "(E24) and write BENCH_net_loopback.json")
    parser.add_argument("--net-rounds", type=int, default=4,
                        help="stabilization rounds per case for --net")
    parser.add_argument("--service", action="store_true",
                        help="also run the replicated KV service load "
                             "benchmark (E26) and write BENCH_service_load.json")
    parser.add_argument("--shard", action="store_true",
                        help="also run the shard-scaling benchmark (E30a) "
                             "and write BENCH_shard_scaling.json")
    parser.add_argument("--adversary", action="store_true",
                        help="also run the adversarial lower-bound chase "
                             "(E28) and write BENCH_adversary_search.json")
    parser.add_argument("--protocol", action="store_true",
                        help="also run the XPaxos vs IBFT backend comparison "
                             "(E29) and write BENCH_protocol_compare.json")
    args = parser.parse_args(argv)

    previous = read_previous_report()
    report = write_report(repeats=args.repeats, jobs=args.jobs)
    emit("e21_update_hotpath", render_table(report))
    regressions = find_regressions(previous, report["cases"])
    for line in regressions:
        print(f"PERF REGRESSION: {line}")
    print(f"wrote {REPORT_PATH}")

    if args.net:
        from benchmarks import bench_e24_net_loopback as e24

        net_previous = read_previous_report(e24.REPORT_PATH)
        net_report = e24.write_report(rounds=args.net_rounds)
        emit("e24_net_loopback", e24.render_table(net_report))
        net_regressions = find_net_regressions(net_previous, net_report)
        for line in net_regressions:
            print(f"PERF REGRESSION: {line}")
        regressions.extend(net_regressions)
        print(f"wrote {e24.REPORT_PATH}")

    if args.service:
        from benchmarks import bench_e26_service_load as e26

        service_previous = read_previous_report(e26.REPORT_PATH)
        service_report = e26.write_report()
        emit("e26_service_load", e26.render_table(service_report))
        service_regressions = find_service_regressions(
            service_previous, service_report
        )
        for line in service_regressions:
            print(f"PERF REGRESSION: {line}")
        regressions.extend(service_regressions)
        print(f"wrote {e26.REPORT_PATH}")

    if args.shard:
        from benchmarks import bench_e30_shard_scaling as e30

        shard_previous = read_previous_report(e30.REPORT_PATH)
        shard_report = e30.write_report()
        emit("e30_shard_scaling", e30.render_table(shard_report))
        shard_regressions = find_shard_regressions(shard_previous, shard_report)
        for line in shard_regressions:
            print(f"PERF REGRESSION: {line}")
        regressions.extend(shard_regressions)
        print(f"wrote {e30.REPORT_PATH}")

    if args.adversary:
        from benchmarks import bench_e28_adversary_search as e28

        adversary_previous = read_previous_report(e28.REPORT_PATH)
        adversary_report = e28.write_report()
        emit("e28_adversary_search", e28.render_table(adversary_report))
        adversary_regressions = find_adversary_regressions(
            adversary_previous, adversary_report
        )
        for line in adversary_regressions:
            print(f"PERF REGRESSION: {line}")
        regressions.extend(adversary_regressions)
        print(f"wrote {e28.REPORT_PATH}")

    if args.protocol:
        from benchmarks import bench_e29_protocol_compare as e29

        protocol_previous = read_previous_report(e29.REPORT_PATH)
        protocol_report = e29.write_report()
        emit("e29_protocol_compare", e29.render_table(protocol_report))
        protocol_regressions = find_protocol_regressions(
            protocol_previous, protocol_report
        )
        for line in protocol_regressions:
            print(f"PERF REGRESSION: {line}")
        regressions.extend(protocol_regressions)
        print(f"wrote {e29.REPORT_PATH}")

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
