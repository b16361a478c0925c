"""Load generation for the replicated KV service.

Runtime-agnostic pieces (used by both the deterministic sim and the live
gateway, which both run on :class:`repro.host.Host`):

- :class:`Workload` — seeded operation stream: zipfian key choice over a
  fixed key space, weighted GET/PUT/DEL/CAS mix;
- :class:`LoadGenerator` — drives a set of :class:`ServiceClient`\\ s in
  **closed-loop** mode (every client keeps exactly one request
  outstanding; think time optional) or **open-loop** mode (requests
  arrive on a fixed-rate clock regardless of completions, round-robin
  across clients whose queues absorb the backlog);
- :func:`percentile` / :func:`summarize_phase` — phase-windowed
  throughput and latency statistics for the benchmark report.

The sim driver :func:`run_sim_load` builds a full world (replicas +
thousands of simulated clients), optionally kills and recovers the
initial leader mid-run, and reports per-phase stats — the deterministic
twin of the live path in :mod:`repro.service.live`.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.client import Completion, ServiceClient

__all__ = [
    "Completion", "Workload", "LoadGenerator", "percentile",
    "summarize_phase", "run_sim_load", "DEFAULT_MIX",
]

#: Default operation mix: read-heavy, as the zipfian web workloads are.
DEFAULT_MIX = (("get", 0.70), ("put", 0.20), ("cas", 0.05), ("del", 0.05))


class Workload:
    """Seeded zipfian operation stream.

    Key ``i`` (rank ``i + 1``) is drawn with probability proportional to
    ``1 / (i + 1) ** zipf_s`` via a precomputed CDF — hot keys are a
    real contention source for CAS while the tail keeps the key space
    wide.  Fully deterministic for a given seed.
    """

    def __init__(
        self,
        seed: int,
        keys: int = 1000,
        zipf_s: float = 1.1,
        mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
    ) -> None:
        if keys < 1:
            raise ValueError(f"need at least one key, got {keys}")
        self.rng = random.Random(f"svc-workload-{seed}")
        self.keys = [f"key-{i}" for i in range(keys)]
        weights = [1.0 / ((rank + 1) ** zipf_s) for rank in range(keys)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0
        names = [name for name, _ in mix]
        op_weights = [max(0.0, weight) for _, weight in mix]
        if sum(op_weights) <= 0:
            raise ValueError("operation mix weights must sum to > 0")
        self._op_names = names
        op_total = sum(op_weights)
        cumulative = 0.0
        self._op_cdf: List[float] = []
        for weight in op_weights:
            cumulative += weight / op_total
            self._op_cdf.append(cumulative)
        self._op_cdf[-1] = 1.0
        self._value_counter = 0

    def next_key(self) -> str:
        return self.keys[bisect.bisect_left(self._cdf, self.rng.random())]

    def next_op(self) -> Tuple[Any, ...]:
        name = self._op_names[bisect.bisect_left(self._op_cdf, self.rng.random())]
        key = self.next_key()
        if name == "get":
            return ("get", key)
        if name == "put":
            self._value_counter += 1
            return ("put", key, self._value_counter)
        if name == "del":
            return ("del", key)
        if name == "cas":
            self._value_counter += 1
            # Expected=None succeeds on absent keys; otherwise this is an
            # optimistic swap that legitimately fails under contention.
            expected = None if self.rng.random() < 0.5 else self._value_counter - 1
            return ("cas", key, expected, self._value_counter)
        raise ValueError(f"unknown op {name!r} in mix")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]); 0.0 on empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # Nearest-rank: ceil(p/100 * N), clamped to [1, N].
    rank = min(len(ordered), max(1, -(-len(ordered) * p // 100)))
    return ordered[int(rank) - 1]


def as_completion(entry: Any) -> Completion:
    """Coerce a legacy positional tuple into a :class:`Completion`."""
    return entry if isinstance(entry, Completion) else Completion(*entry)


def summarize_phase(
    completions: Sequence[Tuple[Any, ...]],
    start: float,
    end: float,
) -> Dict[str, float]:
    """Throughput and latency stats over completions in ``[start, end)``.

    Windowing keys off the *named* ``completed_at`` / ``latency`` fields
    (bare six-tuples are coerced), so a record-layout change can never
    silently slice the wrong column.
    """
    window = [entry for entry in map(as_completion, completions)
              if start <= entry.completed_at < end]
    latencies = [entry.latency for entry in window]
    duration = max(end - start, 1e-9)
    return {
        "start": round(start, 6),
        "end": round(end, 6),
        "completed": len(window),
        "throughput": round(len(window) / duration, 3),
        "latency_mean": round(sum(latencies) / len(latencies), 6) if latencies else 0.0,
        "latency_p50": round(percentile(latencies, 50), 6),
        "latency_p99": round(percentile(latencies, 99), 6),
    }


class LoadGenerator:
    """Drives many logical clients through one host's timer service.

    ``host`` only needs :class:`repro.host.Host`'s ``now`` and ``scheduler``,
    so the same generator runs on a sim :class:`ProcessHost` and on the
    live gateway's :class:`~repro.net.host.NetHost`.
    """

    def __init__(
        self,
        host,
        clients: Sequence[ServiceClient],
        workload: Workload,
        mode: str = "closed",
        rate: Optional[float] = None,
        duration: float = 60.0,
    ) -> None:
        if mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
        if mode == "open" and (rate is None or rate <= 0):
            raise ValueError("open-loop mode needs a positive rate")
        self.host = host
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("need at least one client")
        self.workload = workload
        self.mode = mode
        self.rate = rate
        self.duration = duration
        self.offered = 0
        self.started_at: Optional[float] = None
        self.stop_at: Optional[float] = None
        self._arrival_handle = None
        self._next_client = 0

    def start(self) -> None:
        self.started_at = self.host.now
        self.stop_at = self.started_at + self.duration
        if self.mode == "closed":
            for client in self.clients:
                self._feed(client)
        else:
            period = 1.0 / float(self.rate)
            self._arrival_handle = self.host.scheduler.schedule_every(
                period, self._arrival, label="svc-loadgen-arrival"
            )

    def stop(self) -> None:
        if self._arrival_handle is not None:
            self._arrival_handle.cancel()
            self._arrival_handle = None
        self.stop_at = self.host.now

    # ------------------------------------------------------------ closed loop

    def _feed(self, client: ServiceClient) -> None:
        if self.stop_at is not None and self.host.now >= self.stop_at:
            return
        self.offered += 1
        client.submit(
            self.workload.next_op(),
            callback=lambda op, result, latency, c=client: self._feed(c),
        )

    # -------------------------------------------------------------- open loop

    def _arrival(self) -> None:
        if self.stop_at is not None and self.host.now >= self.stop_at:
            if self._arrival_handle is not None:
                self._arrival_handle.cancel()
                self._arrival_handle = None
            return
        self.offered += 1
        client = self.clients[self._next_client]
        self._next_client = (self._next_client + 1) % len(self.clients)
        client.submit(self.workload.next_op())

    # ------------------------------------------------------------ diagnostics

    def all_completions(self) -> List[Completion]:
        """Completion records of every client, ordered by completion time.

        Entries are :class:`Completion` named records; ``view`` is the
        view the serving quorum reported, which is how the benchmark
        finds the first post-kill completion in a new view.
        """
        merged: List[Completion] = []
        for client in self.clients:
            merged.extend(map(as_completion, client.completed))
        merged.sort(key=lambda entry: entry.completed_at)
        return merged

    @property
    def completed(self) -> int:
        return sum(len(client.completed) for client in self.clients)

    @property
    def backlog(self) -> int:
        """Open-loop pressure: offered requests not yet completed."""
        return self.offered - self.completed

    @property
    def total_retries(self) -> int:
        return sum(client.retries for client in self.clients)


def load_phases(
    completions,
    duration: float,
    kill_at: Optional[float],
    recover_at: Optional[float],
    killed: bool = True,
) -> Dict[str, Any]:
    """Phase summaries of one run, one shard of a deployment, or its aggregate.

    Phases: ``steady`` (start -> kill), ``crash`` (kill -> recovery or
    end), ``recovery`` (recover -> end); without a kill schedule the
    whole run is one steady phase.  For a shard that was not ``killed``
    the "crash" window is the evidence that the fault stayed contained.
    ``view_change`` — only where the leader was killed — is the measured
    window between the kill and the first completion served in a higher
    view (in-flight old-view replies excluded): the client-visible outage.
    """
    phases: Dict[str, Any] = {}
    if kill_at is None:
        phases["steady"] = summarize_phase(completions, 0.0, duration)
        return phases
    crash_end = recover_at if recover_at is not None else duration
    phases["steady"] = summarize_phase(completions, 0.0, kill_at)
    phases["crash"] = summarize_phase(completions, kill_at, crash_end)
    if recover_at is not None:
        phases["recovery"] = summarize_phase(completions, recover_at, duration)
    if killed:
        resumed = [entry.completed_at for entry in completions
                   if entry.completed_at > kill_at and entry.view > 0]
        phases["view_change"] = {
            "start": kill_at,
            "end": round(min(resumed), 6) if resumed else None,
            "outage": round(min(resumed) - kill_at, 6) if resumed else None,
        }
    return phases


def client_phases(clients, completions, duration, kill_at, recover_at) -> Dict[str, Any]:
    """:func:`load_phases` of one deployment, counting in ``view_change``
    how many ``clients`` learned a higher view."""
    phases = load_phases(completions, duration, kill_at, recover_at)
    if "view_change" in phases:
        phases["view_change"]["new_view_learned_by"] = sum(
            1 for client in clients if client.believed_view > 0
        )
    return phases


def verdict_of(summaries: Dict[int, Dict[str, Any]], running) -> Dict[str, Any]:
    """At-most-once and frontier-digest verdicts over per-replica store
    ``summaries`` (pid -> :meth:`ServiceKVStore.summary`), of which the
    ``running`` pids are still up.

    Replicas outside the active quorum legitimately lag; safety says
    replicas at the *same* execution point hold the same state.
    """
    applied = {pid: summaries[pid]["applied_requests"] for pid in sorted(running)}
    most_applied = max(applied.values(), default=0)
    frontier = {
        summaries[pid]["state_digest"] for pid in applied if applied[pid] == most_applied
    }
    blocks = summaries.values()
    return {
        "at_most_once": all(b["at_most_once"] for b in blocks) if summaries else None,
        "duplicates_refused": sum(b["duplicates_refused"] for b in blocks),
        "replica_applied": applied,
        "digests_agree": len(frontier) <= 1,
    }


def world_verdict(world) -> Dict[str, Any]:
    """:func:`verdict_of` one sim service world."""
    replicas = world.replicas.values()
    return verdict_of(
        {r.pid: r.kv.summary() for r in replicas},
        [r.pid for r in replicas if r.host.running],
    )


def run_sim_load(
    n: int = 4,
    f: int = 1,
    clients: int = 100,
    duration: float = 300.0,
    mode: str = "closed",
    rate: Optional[float] = None,
    seed: int = 3,
    keys: int = 1000,
    zipf_s: float = 1.1,
    kill_leader_at: Optional[float] = None,
    recover_at: Optional[float] = None,
    drain: float = 60.0,
    retry_timeout: float = 10.0,
    batch_size: int = 8,
    batch_window: float = 0.5,
    checkpoint_interval: Optional[int] = 64,
    protocol: str = "xpaxos",
    selector: str = "qs",
) -> Dict[str, Any]:
    """Run the service under load in the deterministic sim; report phases
    (:func:`client_phases`) and the service verdicts (:func:`world_verdict`).
    """
    from repro.sim.worlds import build_kv_service_world

    world = build_kv_service_world(
        n=n,
        f=f,
        clients=clients,
        seed=seed,
        retry_timeout=retry_timeout,
        batch_size=batch_size,
        batch_window=batch_window,
        checkpoint_interval=checkpoint_interval,
        protocol=protocol,
        selector=selector,
    )
    workload = Workload(seed=seed, keys=keys, zipf_s=zipf_s)
    generator = LoadGenerator(
        world.gen_host,
        list(world.clients.values()),
        workload,
        mode=mode,
        rate=rate,
        duration=duration,
    )
    world.sim.scheduler.schedule(0.0, generator.start, label="svc-loadgen-start")

    initial_leader = world.replicas[1].selector.leader_of(0)
    if kill_leader_at is not None:
        world.adversary.crash(initial_leader, at=kill_leader_at)
        if recover_at is not None:
            world.sim.at(
                recover_at,
                lambda: world.sim.host(initial_leader).recover(),
                label=f"recover-p{initial_leader}",
            )

    world.sim.run_until(duration + drain)

    completions = generator.all_completions()
    phases = client_phases(
        world.clients.values(), completions, duration, kill_leader_at, recover_at
    )
    return {
        "n": n,
        "f": f,
        "protocol": protocol,
        "selector": selector,
        "clients": clients,
        "mode": mode,
        "rate": rate,
        "seed": seed,
        "duration": duration,
        "offered": generator.offered,
        "completed": generator.completed,
        "retries": generator.total_retries,
        "phases": phases,
        "kill_leader_at": kill_leader_at,
        "recover_at": recover_at,
        "initial_leader": initial_leader,
        **world_verdict(world),
        "world": world,
    }
