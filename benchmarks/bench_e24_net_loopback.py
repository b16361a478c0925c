"""E24 — live loopback runtime: gossip throughput + stabilization latency.

Measures the asyncio network runtime (``repro.net``) the way E21
measures the simulator's hot path, and writes ``BENCH_net_loopback.json``
at the repo root:

- **UPDATE-gossip throughput**: signed ``UPDATE`` envelopes pushed
  through one real TCP link (wire encode → batched envelope + link
  HMAC → socket → frame decode → HMAC verify → deliver), in
  frames/second;
- **stabilization latency**: full in-process meshes (n live hosts, one
  event loop, real sockets) in which ``p1`` crashes; per surviving
  replica, the wall time from the crash to its *final* quorum event.
  p50/p99 are taken over ``rounds × (n-1)`` samples at n ∈ {4, 7, 10}.

The in-process mesh keeps the benchmark about the runtime itself —
subprocess startup noise is excluded, but every byte still crosses a
loopback socket.  ``python benchmarks/perf_report.py --net`` runs the
same harness and flags wall regressions against the previous report.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from repro.analysis.report import Table  # noqa: E402
from repro.core.messages import KIND_UPDATE, UpdatePayload  # noqa: E402
from repro.crypto.authenticator import Authenticator  # noqa: E402
from repro.crypto.keys import KeyRegistry  # noqa: E402
from repro.deployment import Deployment, mount  # noqa: E402
from repro.net.batch import BatchAuthenticator  # noqa: E402
from repro.net.host import NetHost  # noqa: E402
from repro.net.loop import uvloop_active  # noqa: E402
from repro.net.peer import PeerManager  # noqa: E402
from repro.net.timers import NetTimerService  # noqa: E402
from repro.net.wire import WIRE_V2  # noqa: E402

from benchmarks._reporting import emit  # noqa: E402

#: (n, f) cases; the classic 3f+1 ladder the issue asks for.
CASES: Tuple[Tuple[int, int], ...] = ((4, 1), (7, 2), (10, 3))

REPORT_PATH = REPO_ROOT / "BENCH_net_loopback.json"


# ----------------------------------------------------------- throughput


async def _throughput_async(frames: int) -> float:
    """Push ``frames`` signed UPDATEs over one loopback link; frames/s.

    Both endpoints run with link-level batch MACs, so the measured path
    is the production one: wire encode → batch envelope + HMAC →
    socket → frame decode → envelope HMAC verify → signature verify →
    deliver.
    """
    loop = asyncio.get_running_loop()
    registry = KeyRegistry(2)
    sender = PeerManager(
        1, queue_capacity=frames + 16, rng_seed=1,
        batch_auth=BatchAuthenticator(registry, 1),
    )
    receiver = PeerManager(
        2, queue_capacity=frames + 16, rng_seed=2,
        batch_auth=BatchAuthenticator(registry, 2),
    )
    addr = await receiver.start_server()
    sender.addresses = {2: addr}

    done = asyncio.Event()
    received = 0
    verifier = Authenticator(registry, 2)

    def ingress(kind, payload, src):
        nonlocal received
        assert verifier.verify(payload)
        received += 1
        if received >= frames:
            done.set()

    receiver.ingress = ingress
    await sender.warm_up(timeout=5.0)

    message = Authenticator(registry, 1).sign(UpdatePayload(row=(0, 0, 1)))
    start = loop.time()
    for _ in range(frames):
        sender.send(2, KIND_UPDATE, message)
    await asyncio.wait_for(done.wait(), timeout=60.0)
    elapsed = loop.time() - start

    assert sender.stats.frames_dropped_backpressure == 0
    assert receiver.stats.batches_rejected == 0
    await sender.close()
    await receiver.close()
    return frames / elapsed


def measure_update_throughput(frames: int = 2000) -> float:
    """Signed-UPDATE frames per second over one loopback TCP link."""
    return asyncio.run(_throughput_async(frames))


# -------------------------------------------------- stabilization latency


async def _mesh(n: int, f: int, heartbeat: float, timeout: float):
    managers, addrs = {}, {}
    for pid in range(1, n + 1):
        managers[pid] = PeerManager(pid, rng_seed=pid)
        addrs[pid] = await managers[pid].start_server()
    hosts, modules = {}, {}
    loop = asyncio.get_running_loop()
    for pid in range(1, n + 1):
        managers[pid].addresses = {p: a for p, a in addrs.items() if p != pid}
        host = NetHost(
            pid, managers[pid], Authenticator(KeyRegistry(n), pid),
            NetTimerService(loop),
        )
        hosts[pid] = host
        modules[pid] = mount(host, Deployment(
            n=n, f=f, heartbeat_period=heartbeat, base_timeout=timeout
        )).module
    for pid in range(1, n + 1):
        await managers[pid].warm_up(timeout=5.0)
    for host in hosts.values():
        host.start()
    return hosts, modules, managers


async def _stabilization_round(
    n: int, f: int, heartbeat: float = 0.05, timeout: float = 0.3
) -> List[float]:
    """Crash p1 in a live n-host mesh; per-survivor seconds to final quorum."""
    hosts, modules, managers = await _mesh(n, f, heartbeat, timeout)
    loop = asyncio.get_running_loop()
    try:
        await asyncio.sleep(4 * heartbeat)  # a few beats of steady state
        crash_wall = loop.time()
        hosts[1].crash()
        await asyncio.sleep(2 * timeout + 0.6)  # detect + gossip + settle

        expected = frozenset(range(2, n - f + 2))
        latencies = []
        for pid in range(2, n + 1):
            assert modules[pid].qlast == expected, (
                f"p{pid} ended on {sorted(modules[pid].qlast)}, "
                f"expected {sorted(expected)}"
            )
            t_crash = crash_wall - hosts[pid].timers._t0
            after = [
                e.time for e in hosts[pid].log.events(kind="qs.quorum")
                if e.time >= t_crash
            ]
            assert after, f"p{pid} saw no quorum change after the crash"
            latencies.append(max(after) - t_crash)
        return latencies
    finally:
        for manager in managers.values():
            await manager.close()


def measure_stabilization(n: int, f: int, rounds: int = 4) -> List[float]:
    """Stabilization-latency samples over ``rounds`` fresh meshes."""
    samples: List[float] = []
    for _ in range(rounds):
        samples.extend(asyncio.run(_stabilization_round(n, f)))
    return samples


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


# ------------------------------------------------------------- reporting


def write_report(
    rounds: int = 4, frames: int = 2000, path: Path = REPORT_PATH
) -> dict:
    """Run every case and write ``BENCH_net_loopback.json``."""
    throughput = measure_update_throughput(frames=frames)
    cases = []
    for n, f in CASES:
        samples = measure_stabilization(n, f, rounds=rounds)
        cases.append({
            "n": n,
            "f": f,
            "samples": len(samples),
            "stabilization_p50_s": round(percentile(samples, 50), 4),
            "stabilization_p99_s": round(percentile(samples, 99), 4),
            "stabilization_max_s": round(max(samples), 4),
        })
    report = {
        "benchmark": "E24 — live loopback runtime (repro.net)",
        "update_throughput_frames_per_s": round(throughput, 1),
        "throughput_frames": frames,
        "wire": {
            "version": WIRE_V2,
            "batch_policy": PeerManager(1).batch_policy.as_dict(),
            "uvloop": uvloop_active(),
        },
        "scenario": (
            "in-process meshes over loopback TCP; crash p1 after warm-up; "
            "latency = seconds from crash to each survivor's final quorum "
            "(heartbeat 0.05s, base timeout 0.3s)"
        ),
        "cases": cases,
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_table(report: dict) -> str:
    wire = report.get("wire", {})
    table = Table(
        ["n", "f", "samples", "p50 s", "p99 s", "max s"],
        title=(
            "E24 — stabilization latency over loopback "
            f"(UPDATE throughput {report['update_throughput_frames_per_s']:.0f}/s "
            f"V{wire.get('version', '?')}"
            f"{', uvloop' if wire.get('uvloop') else ''})"
        ),
    )
    for row in report["cases"]:
        table.add_row(
            row["n"], row["f"], row["samples"],
            row["stabilization_p50_s"], row["stabilization_p99_s"],
            row["stabilization_max_s"],
        )
    return table.render()


# ----------------------------------------------------------------- pytest


@pytest.mark.net
def test_e24_net_loopback_report():
    """One-round version of the report: sane numbers, file written."""
    report = write_report(rounds=1, frames=500)
    assert report["update_throughput_frames_per_s"] > 100
    assert report["wire"]["version"] == WIRE_V2
    for row in report["cases"]:
        assert 0 < row["stabilization_p50_s"] <= row["stabilization_p99_s"]
        # Detection cannot beat the failure-detector timeout, and a healthy
        # loopback mesh settles well inside the sleep window.
        assert row["stabilization_p99_s"] < 1.2
    emit("e24_net_loopback", render_table(report))


if __name__ == "__main__":
    emit("e24_net_loopback", render_table(write_report()))
    print(f"wrote {REPORT_PATH}")
