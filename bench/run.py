"""One command for the whole benchmark.

Two ways in, one code path:

``python -m bench.run --workload W --seed N --seconds S --trace 0|1``
    runs one workload in this process and prints, as the last line of
    standard output, ``{"correct", "attempted", "failed", "metrics"}`` —
    the end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.  Exit status 1 (and no metrics) if a correctness check
    fails.

``python -m bench.run [--workload W] [--seed N] [--traced] [--repeat K [--check-spread]]``
    runs every workload (or ``W``) that way in a fresh subprocess each
    and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT_DIR = BENCH_DIR / "_out"
#: Counts that must repeat exactly between two runs of one seed: these on
#: the deterministic sim, and the messages per decision everywhere.
EXACT_ON_SIM = (
    "core.qs.searches", "core.qs.search_memo_hit_share", "core.qs.updates_sent",
    "core.qs.quorum_changes", "core.qs.forwards_suppressed", "fd.expectations",
    "sim.network.msgs_sent", "crypto.signs_per_req", "crypto.verifies_per_req",
)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run one workload here; returns the result object to print."""
    from bench import layers
    from bench.tracer import Tracer
    from bench.workloads import RUNNERS

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        run = RUNNERS[name](seed, seconds, tracer, quick)
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics, attempted, failed, notes = layers.end_to_end(run)
    declared = SPEC["end_to_end"]
    if trace:
        metrics = layers.per_layer(run)
        expected = run.expected_msgs_per_decision
        if expected and metrics["replica.msgs_per_decision"] != expected:
            run.violations.append(
                f"replica.msgs_per_decision {metrics['replica.msgs_per_decision']:g} "
                f"is not the closed form {expected}"
            )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}.spans.jsonl")
        notes["spans"] = len(tracer.spans)
        declared = SPEC["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics emitted and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}"
        )
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)} notes={json.dumps(notes)}",
          file=sys.stderr)
    for violation in run.violations:
        print(f"# VIOLATION {name}: {violation}", file=sys.stderr)
    correct = not run.violations
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        } if correct else {},
    }


def host_facts() -> Dict[str, Any]:
    from repro.net.loop import uvloop_active
    from repro.net.wire import WIRE_V2

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wire_version": WIRE_V2,
        "uvloop": uvloop_active(),
        "note": "all nodes of a live workload share one process on this host",
    }


def _spawn(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{name}: run failed or incorrect (exit {done.returncode})")
    return result


def run_sets(args: argparse.Namespace) -> int:
    """Orchestrate: every workload in a fresh subprocess, K times over."""
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    print(f"host: {json.dumps(host_facts())}")
    values: Dict[Any, List[float]] = {}
    units: Dict[Any, str] = {}
    for _ in range(args.repeat):
        for name in names:
            for trace in ([False, True] if args.traced else [False]):
                result = _spawn(name, args.seed, args.seconds, trace, args.quick)
                print(f"{name} trace={int(trace)}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
                for metric, entry in result["metrics"].items():
                    values.setdefault((name, metric), []).append(entry["value"])
                    units[(name, metric)] = entry["unit"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    failures = []
    for (name, metric), series in values.items():
        median = statistics.median(series)
        spread = (max(series) - min(series)) / median if median else 0.0
        shown = " ".join(f"{value:.6g}" for value in series)
        print(f"{name:16s} {metric:42s} {median:14.6g} {units[(name, metric)]:6s} "
              f"spread {spread:6.2%}  [{shown}]")
        if not args.check_spread:
            continue
        if metric in bounds and spread > bounds[metric]:
            failures.append(f"{name} {metric}: spread {spread:.2%} over bound {bounds[metric]:.0%}")
        exact = metric == "replica.msgs_per_decision" or (
            name == "sim_qs_churn" and metric in EXACT_ON_SIM)
        if exact and len(set(series)) != 1:
            failures.append(f"{name} {metric}: count differs between sets: {shown}")
    for failure in failures:
        print(f"SPREAD {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="also repeat each workload with the tracer installed")
    parser.add_argument("--repeat", type=int, default=1, help="run this many full sets")
    parser.add_argument("--check-spread", action="store_true",
                        help="fail if sets differ by more than a metric's bound")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing; the numbers are not comparable")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_sets(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
