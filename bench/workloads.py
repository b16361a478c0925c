"""The five workloads: what each one runs, measures and checks.

Every workload returns a :class:`Run`: measured windows (wall, CPU and
the public counters' movement inside each), the offered requests, the
set-up samples and the list of correctness violations.  A traced run
measures a third of its time with the tracer off (the reference slice
behind ``bench.trace_overhead_share``) and the rest with it on; an
untraced run never creates a tracer.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.spec import agreement_holds, no_suspicion_holds
from repro.protocol.backend import get_backend
from repro.sim.worlds import build_qs_world

from bench.load import ClosedLoop, Load, OpenLoop, Request
from bench.mesh import Mesh
from bench.tracer import Tracer

#: name -> one-line reason, in BENCHMARK.json order.
WORKLOADS: Dict[str, str] = {
    "live_closed_sat": (
        "XPaxos n=4, 64 closed-loop clients: CPU-bound with full batches, so any CPU "
        "saving in crypto, wire, peer, replica or service shows as ops_per_s"
    ),
    "live_open_light": (
        "XPaxos n=4, open loop at 200 req/s (~15% of saturation): singleton batches and an "
        "idle loop, so latency is timers, batch windows and hops, not CPU"
    ),
    "live_failover": (
        "XPaxos n=4, open loop 200 req/s on schedule through a leader crash on fresh "
        "meshes: FD timeouts, view change and client leader rediscovery"
    ),
    "live_ibft_n7": (
        "IBFT n=7 f=2, 64 closed-loop clients: 36 messages per decision, so vote handling "
        "and per-message wire and crypto cost dominate on the second backend"
    ),
    "sim_qs_churn": (
        "deterministic sim, QS stack only, n=31 with ten crashes: Algorithm 1 at consortium "
        "scale; wire, replicas and service are bypassed and must read no change"
    ),
}

DRAIN = 2.0
#: Requests later than this from their due time count as late.
LATENCY_LIMIT = 0.100
OPEN_RATE = 200.0
FAILOVER_ROUNDS = 3
SETUP_SAMPLES = 3
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Window:
    """One measured interval and what the public counters did in it."""

    traced: bool
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    gc_seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """Everything one workload run observed."""

    windows: List[Window] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    #: Seconds each open-loop arrival fired after it was due.
    lags: List[float] = field(default_factory=list)
    warmup_retries: int = 0
    #: One dict per failover round: seconds after the kill of each stage.
    faults: List[Dict[str, float]] = field(default_factory=list)
    #: Wall seconds of each sim repeat (the sim's "operations").
    sim_walls: List[float] = field(default_factory=list)
    #: What the closed form says one decision costs, or 0 for the sim.
    expected_msgs_per_decision: int = 0
    replica_pids: Tuple[int, ...] = ()
    tracer: Optional[Tracer] = None


class _GcClock:
    """Seconds the collector ran, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.monotonic()
        else:
            self.total += time.monotonic() - self._started


# --------------------------------------------------------------------- live


def mesh_counters(mesh: Mesh) -> Dict[str, float]:
    """Sums of the counters the program already keeps, over all nodes."""
    out: Dict[str, float] = {
        "frames_sent": 0, "bytes_sent": 0, "frames_dropped": 0, "batches_rejected": 0,
        "frames_unusable": 0, "batch_flushes": 0, "batch_frames": 0,
    }
    for manager in mesh.managers:
        stats = manager.stats
        out["frames_sent"] += stats.frames_sent
        out["bytes_sent"] += stats.bytes_sent
        out["frames_dropped"] += stats.frames_dropped_backpressure
        out["batches_rejected"] += stats.batches_rejected
        out["frames_unusable"] += stats.frames_malformed + stats.frames_auth_rejected
        out["batch_flushes"] += manager.wire_stats.batch_flushes
        out["batch_frames"] += manager.wire_stats.batch_frames_sum
    out["retries"] = sum(client.retries for client in mesh.clients)
    backend = get_backend(mesh.protocol)
    status = [backend.observe(replica) for replica in mesh.replicas.values()]
    out["executed"] = max(s.executed for s in status)
    out["slots"] = max(replica.total_slots for replica in mesh.replicas.values())
    out.update(qs_counters(mesh.qs_modules.values(), [h.fd for h in mesh.hosts.values()]))
    return out


def qs_counters(modules: Any, detectors: Any) -> Dict[str, float]:
    out = {"qs_searches": 0, "qs_memoized": 0, "qs_forwards_suppressed": 0,
           "qs_quorum_changes": 0, "fd_expectations": 0}
    for module in modules:
        stats = module.hotpath_stats()
        out["qs_searches"] += stats["quorum_searches"]
        out["qs_memoized"] += stats["searches_memoized"]
        out["qs_forwards_suppressed"] += stats["forwards_suppressed"]
        out["qs_quorum_changes"] += module.total_quorums_issued()
    for detector in detectors:
        out["fd_expectations"] += detector.expectations_issued
    return out


class _Measure:
    """Context manager filling one :class:`Window` around a mesh."""

    def __init__(self, run: Run, mesh: Mesh, traced: bool, gc_clock: _GcClock) -> None:
        self.window = Window(traced=traced)
        self.run = run
        self.mesh = mesh
        self.gc_clock = gc_clock
        self._before: Dict[str, float] = {}

    def __enter__(self) -> Window:
        if self.window.traced:
            self.run.tracer.on = True
        self._before = mesh_counters(self.mesh)
        self.window.gc_seconds = -self.gc_clock.total
        self.window.cpu = -time.process_time()
        self.window.start = time.monotonic()
        return self.window

    def __exit__(self, *exc: Any) -> None:
        window = self.window
        window.end = time.monotonic()
        window.cpu += time.process_time()
        window.gc_seconds += self.gc_clock.total
        if window.traced:
            self.run.tracer.on = False
        after = mesh_counters(self.mesh)
        window.counters = {key: after[key] - self._before[key] for key in after}
        self.run.windows.append(window)


async def _first_reply(mesh: Mesh) -> None:
    """Complete one request, so set-up covers everything up to service."""
    done = asyncio.get_running_loop().create_future()
    mesh.clients[0].submit(("get", "key-0"), lambda op, result, latency: done.set_result(None))
    await asyncio.wait_for(done, 30.0)


async def _ready_mesh(run: Run, n: int, f: int, clients: int, protocol: str) -> Mesh:
    started = time.monotonic()
    mesh = Mesh(n, f, clients, protocol)
    await mesh.start()
    await _first_reply(mesh)
    run.setups.append(time.monotonic() - started)
    run.replica_pids = tuple(mesh.hosts)
    q = n - f
    run.expected_msgs_per_decision = get_backend(protocol).analytic_messages_per_decision(q)
    return mesh


def verify_service(run: Run, mesh: Mesh, load: Load) -> None:
    """At-most-once everywhere, one digest at the frontier, nothing lost."""
    for pid, replica in mesh.replicas.items():
        if not replica.kv.at_most_once_intact():
            run.violations.append(f"replica {pid}: at-most-once broken")
    live = [r for pid, r in mesh.replicas.items() if mesh.hosts[pid].running]
    frontier = max(replica.kv.applied_requests for replica in live)
    at_frontier = [r for r in live if r.kv.applied_requests == frontier]
    if len({replica.kv.state_digest() for replica in at_frontier}) != 1:
        run.violations.append("state digests differ at the execution frontier")
    if len(at_frontier) <= mesh.f:
        run.violations.append(f"only {len(at_frontier)} replicas reached the frontier")
    # Every client-stamped operation runs exactly once: the frontier has
    # applied each completed request (and the set-up probe), and nothing
    # that was never offered.
    completed = 1 + load.completed
    if not completed <= frontier <= 1 + len(load.requests):
        run.violations.append(
            f"frontier applied {frontier} requests, clients completed {completed}"
        )


def _slices(seconds: float, traced: bool) -> List[Tuple[float, bool]]:
    if not traced:
        return [(seconds, False)]
    return [(seconds / 3.0, False), (2.0 * seconds / 3.0, True)]


async def _steady(
    run: Run, seed: int, seconds: float, gc_clock: _GcClock,
    n: int, f: int, protocol: str, clients: int, rate: Optional[float], warmup: float,
) -> None:
    mesh = await _ready_mesh(run, n, f, clients, protocol)
    try:
        load: Load = (
            ClosedLoop(mesh.clients, seed) if rate is None
            else OpenLoop(mesh.clients, seed, rate)
        )
        load.start()
        await asyncio.sleep(warmup)
        run.warmup_retries = int(mesh_counters(mesh)["retries"])
        for length, traced in _slices(seconds, run.tracer is not None):
            with _Measure(run, mesh, traced, gc_clock):
                await asyncio.sleep(length)
        load.stop()
        await load.drain(DRAIN)
        run.requests = load.requests
        run.lags = getattr(load, "lags", [])
        verify_service(run, mesh, load)
    finally:
        await mesh.close()


async def _throwaway_setup(run: Run, n: int, f: int, clients: int, protocol: str) -> None:
    mesh = await _ready_mesh(run, n, f, clients, protocol)
    await mesh.close()


def run_steady(
    seed: int, seconds: float, tracer: Optional[Tracer], quick: bool,
    n: int, f: int, protocol: str, clients: int, rate: Optional[float], warmup: float,
) -> Run:
    """A fault-free live workload: warm up, measure, drain, verify."""
    run = Run(tracer=tracer)
    gc_clock = _GcClock()
    gc.callbacks.append(gc_clock)
    try:
        # Set-up is timed on fresh meshes, each on its own loop so that
        # nothing of one outlives it; the median is reported.
        for _ in range(0 if quick else SETUP_SAMPLES - 1):
            asyncio.run(_throwaway_setup(run, n, f, clients, protocol))
        gc.collect()
        asyncio.run(_steady(
            run, seed, seconds, gc_clock, n, f, protocol, clients, rate,
            1.0 if quick else warmup,
        ))
    finally:
        gc.callbacks.remove(gc_clock)
    return run


def _fault_stages(mesh: Mesh, load: Load, victim: int, kill: float) -> Dict[str, float]:
    """Seconds after the kill of each step from crash to service."""
    stages: Dict[str, float] = {}

    def after_kill(host: Any, kind: str, **match: Any) -> List[float]:
        return [
            t for t in (
                mesh.loop_time(host, event.time) - kill
                for event in host.log.events(kind=kind)
                if all(event.payload.get(k) == v for k, v in match.items())
            ) if t >= 0
        ]

    survivors = [host for pid, host in mesh.hosts.items() if pid != victim]
    retries = after_kill(mesh.gateway.host, "svc.client.retry")
    suspects = [t for host in survivors for t in after_kill(host, "fd.suspect", target=victim)]
    quorums = [max(after_kill(host, "qs.quorum"), default=0.0) for host in survivors]
    newviews = [max(after_kill(host, "xp.newview"), default=0.0) for host in survivors]
    served = [
        request for request in load.requests
        if request.done is not None and request.done > kill and request.view > 0
    ]
    first = min(served, key=lambda request: request.done, default=None)
    stages["first_retry_s"] = min(retries, default=0.0)
    stages["detect_s"] = min(suspects, default=0.0)
    stages["quorum_s"] = max(quorums, default=0.0)
    stages["new_view_s"] = max(newviews, default=0.0)
    stages["client_learns_s"] = first.done - kill if first is not None else 0.0
    stages["retry_rounds"] = float(sum(
        1 for event in mesh.gateway.host.log.events(kind="svc.client.retry")
        if first is not None
        and (event.payload["client"], event.payload["seq"]) == first.rid
    ))
    return stages


async def _failover_round(
    run: Run, seed: int, observe: float, traced: bool, gc_clock: _GcClock, quick: bool,
) -> None:
    mesh = await _ready_mesh(run, 4, 1, 16, "xpaxos")
    try:
        load = OpenLoop(mesh.clients, seed, OPEN_RATE)
        load.start()
        await asyncio.sleep(1.0 if quick else 3.0)  # 1 s warm-up + 2 s steady
        victim = mesh.leader()
        with _Measure(run, mesh, traced, gc_clock) as window:
            mesh.hosts[victim].crash()
            await asyncio.sleep(observe)
        load.stop()
        await load.drain(DRAIN)
        stages = _fault_stages(mesh, load, victim, window.start)
        if stages["client_learns_s"] <= 0.0:
            run.violations.append("no request was served in a higher view after the kill")
        ordered = [stages[k] for k in
                   ("detect_s", "quorum_s", "new_view_s", "client_learns_s")]
        if ordered != sorted(ordered):
            run.violations.append(f"fault stages out of order: {stages}")
        run.faults.append(stages)
        run.requests.extend(load.requests)
        run.lags.extend(load.lags)
        verify_service(run, mesh, load)
    finally:
        await mesh.close()


def run_failover(seed: int, seconds: float, tracer: Optional[Tracer], quick: bool) -> Run:
    """Leader crash under on-schedule load, on fresh meshes.

    The measured windows are the ``seconds / rounds`` after each kill;
    requests due while no leader exists count from their due time.  In a
    traced run the first round is the untraced reference.
    """
    run = Run(tracer=tracer)
    rounds = 1 if quick else FAILOVER_ROUNDS
    gc_clock = _GcClock()
    gc.callbacks.append(gc_clock)
    try:
        for index in range(rounds):
            traced = tracer is not None and (index > 0 or rounds == 1)
            gc.collect()
            asyncio.run(_failover_round(
                run, seed + index, seconds / rounds, traced, gc_clock, quick
            ))
    finally:
        gc.callbacks.remove(gc_clock)
    return run


# ---------------------------------------------------------------------- sim

#: (n, f, crashes, horizon): ten crashes 15 apart from t=10, then quiet.
SIM_FULL = (31, 10, 10, 220.0)
SIM_QUICK = (13, 4, 4, 90.0)
SIM_MIN_WORLDS = 3
#: World seeds are drawn from this many, all pinned in expected.json.
PINNED_WORLDS = 64
FIRST_CRASH = 10.0
CRASH_GAP = 15.0


def quorum_trace_sha256(modules: Dict[int, Any]) -> str:
    trace = [
        (event.time, event.process, event.epoch, tuple(sorted(event.quorum)))
        for pid in sorted(modules)
        for event in modules[pid].quorum_events
    ]
    return hashlib.sha256(json.dumps(trace, separators=(",", ":")).encode()).hexdigest()


def churn_world(size: Tuple[int, int, int, float], world_seed: int) -> Tuple[Any, Dict[int, Any]]:
    """The QS-only world with its crash schedule armed, not yet run."""
    n, f, crashes, _horizon = size
    sim, modules = build_qs_world(n, f, seed=world_seed)
    for index in range(crashes):
        sim.at(FIRST_CRASH + CRASH_GAP * index,
               lambda pid=index + 1: sim.host(pid).crash())
    return sim, modules


def expected_sha256(size: Tuple[int, int, int, float], world_seed: int) -> Optional[str]:
    """The pinned quorum-trace digest of one world."""
    pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    key = "n{}_f{}_crashes{}_horizon{:g}".format(*size)
    return pinned["sim_qs_churn"][key].get(str(world_seed))


def _sim_world(run: Run, size: Tuple[int, int, int, float], world_seed: int, traced: bool) -> None:
    crashes, horizon = size[2], size[3]
    gc.collect()  # one world's garbage must not slow the next one's collector
    window = Window(traced=traced)
    if traced:
        run.tracer.on = True
    window.cpu = -time.process_time()
    window.start = time.monotonic()
    sim, modules = churn_world(size, world_seed)
    sim.run_until(FIRST_CRASH)
    run.setups.append(time.monotonic() - window.start)
    sim.run_until(horizon)
    window.end = time.monotonic()
    window.cpu += time.process_time()
    if traced:
        run.tracer.on = False
    window.counters = qs_counters(
        modules.values(), [sim.host(pid).fd for pid in sim.pids]
    )
    window.counters["sim_msgs_sent"] = sim.stats.total_sent()
    window.counters["qs_updates_sent"] = sim.stats.sent_by_kind.get("qs.update", 0)
    window.counters["sim_events"] = sim.scheduler.steps_executed
    run.windows.append(window)
    run.sim_walls.append(window.wall)
    correct = [modules[pid] for pid in sim.pids if pid > crashes]
    if not agreement_holds(correct):
        run.violations.append(f"world {world_seed}: agreement violated")
    if not no_suspicion_holds(correct):
        run.violations.append(f"world {world_seed}: no-suspicion violated")
    if any(pid <= crashes for pid in correct[0].qlast):
        run.violations.append(
            f"world {world_seed}: final quorum {sorted(correct[0].qlast)} holds a crashed process"
        )
    digest = quorum_trace_sha256(modules)
    if digest != expected_sha256(size, world_seed):
        run.violations.append(
            f"world {world_seed}: quorum trace {digest[:16]} differs from the pinned one"
        )


def run_sim(seed: int, seconds: float, tracer: Optional[Tracer], quick: bool) -> Run:
    """Churn worlds drawn from ``seed`` for ``seconds`` (at least three).

    The quorum search's cost depends on the suspect graphs a world's
    message timing produces (one world in ten costs a third more), so a
    run covers several worlds, each with its pinned trace digest.  A
    traced run runs its first world twice: untraced, as the reference,
    then traced.
    """
    run = Run(tracer=tracer)
    size = SIM_QUICK if quick else SIM_FULL
    if tracer is not None:
        # Two million spans per world: one world, untraced then traced.
        for traced in (False, True):
            _sim_world(run, size, (4 * seed) % PINNED_WORLDS, traced)
        return run
    started = time.monotonic()
    worlds = 0
    while worlds < SIM_MIN_WORLDS or time.monotonic() - started < seconds:
        _sim_world(run, size, (4 * seed + worlds) % PINNED_WORLDS, traced=False)
        worlds += 1
    return run


RUNNERS: Dict[str, Callable[[int, float, Optional[Tracer], bool], Run]] = {
    "live_closed_sat": lambda seed, seconds, tracer, quick: run_steady(
        seed, seconds, tracer, quick,
        n=4, f=1, protocol="xpaxos", clients=64, rate=None, warmup=3.0),
    "live_open_light": lambda seed, seconds, tracer, quick: run_steady(
        seed, seconds, tracer, quick,
        n=4, f=1, protocol="xpaxos", clients=16, rate=OPEN_RATE, warmup=2.0),
    "live_failover": run_failover,
    "live_ibft_n7": lambda seed, seconds, tracer, quick: run_steady(
        seed, seconds, tracer, quick,
        n=7, f=2, protocol="ibft", clients=64, rate=None, warmup=3.0),
    "sim_qs_churn": run_sim,
}
