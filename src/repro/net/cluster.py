"""Loopback/LAN cluster harness: one OS process per replica.

:func:`run_cluster` launches ``n`` replica processes (``python -m repro
node``), performs the ephemeral-port rendezvous (each node binds port 0,
reports its port, and receives the full peer map on stdin once everyone
listens), streams every node's JSON events into memory and a run
directory, injects the crash/recovery schedule, and returns a
:class:`ClusterResult` with per-node outcomes plus cluster-level
verdicts (agreement on the final quorum, Theorem 3's per-epoch bound).

Two kill modes:

- ``host`` (default): the *node schedules its own* host crash — the
  process stays alive but silent, state intact, so a later recovery
  resumes it exactly like the simulator's crash-recovery model.  This is
  the mode the sim<->net parity harness uses.
- ``process``: the harness SIGKILLs the replica at the scheduled time —
  a real OS-level crash: sockets reset, peers' reconnect loops start
  backing off, no recovery possible (state is gone).

All timings in the schedule are seconds after the cluster-wide start
barrier (every node ready).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.deployment import Deployment, takes_deployment_fields
from repro.net.node import NodeConfig, live_deployment, node_spec
from repro.util.errors import ConfigurationError

#: Extra wall time allowed beyond ``duration`` before children are reaped.
GRACE_SECONDS = 20.0


def crashed_at_end(kills, recovers) -> FrozenSet[int]:
    """Pids whose last scheduled transition — ``(pid, t)`` pairs — leaves
    them crashed."""
    last: Dict[int, Tuple[float, str]] = {}
    for pid, t in kills:
        if pid not in last or t >= last[pid][0]:
            last[pid] = (t, "kill")
    for pid, t in recovers:
        if pid not in last or t >= last[pid][0]:
            last[pid] = (t, "recover")
    return frozenset(pid for pid, (_, what) in last.items() if what == "kill")


@takes_deployment_fields(live_deployment)
@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: the :class:`Deployment`, timing and fault schedule.

    ``ClusterConfig(n=5, f=1, ...)`` builds the deployment as
    :func:`~repro.net.node.live_deployment` of those fields.
    """

    deployment: Deployment
    duration: float = 10.0
    #: Free-form tag carried into the summary (e.g. ``"shard-2"`` when a
    #: sharded deployment runs several clusters side by side).
    label: str = ""
    #: (pid, seconds-after-ready) pairs.
    kills: Tuple[Tuple[int, float], ...] = ()
    recovers: Tuple[Tuple[int, float], ...] = ()
    kill_mode: str = "host"  # "host" | "process"
    queue_capacity: int = 1024
    run_dir: Optional[Path] = None
    startup_timeout: float = 30.0
    uvloop: bool = False
    #: Logical client pids reserved in every node's key registry.
    service_clients: int = 0
    #: Extra (pid, "host:port") entries merged into the rendezvous peer
    #: map — how client pids and the gateway pid route to the gateway
    #: process, which binds *before* the cluster launches.
    extra_peers: Tuple[Tuple[int, str], ...] = ()

    @property
    def n(self) -> int:
        return self.deployment.n

    @property
    def f(self) -> int:
        return self.deployment.f

    def validate(self) -> None:
        self.deployment.validate()
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.kill_mode not in ("host", "process"):
            raise ConfigurationError(f"kill mode must be host|process, got {self.kill_mode!r}")
        for pid, t in (*self.kills, *self.recovers):
            if not 1 <= pid <= self.n:
                raise ConfigurationError(f"schedule pid {pid} out of range for n={self.n}")
            if t < 0 or t >= self.duration:
                raise ConfigurationError(
                    f"schedule time {t} outside the run window [0, {self.duration})"
                )
        if self.recovers and self.kill_mode == "process":
            raise ConfigurationError(
                "recovery requires kill_mode='host' (a SIGKILLed process has no state)"
            )
        if self.service_clients < 0:
            raise ConfigurationError(
                f"service_clients must be >= 0, got {self.service_clients}"
            )
        for pid, _addr in self.extra_peers:
            if pid <= self.n:
                raise ConfigurationError(
                    f"extra_peers pid {pid} collides with replica pids 1..{self.n}"
                )

    def crashed_at_end(self) -> FrozenSet[int]:
        return crashed_at_end(self.kills, self.recovers)


@dataclass
class NodeOutcome:
    """Everything observed about one replica process."""

    pid: int
    events: List[dict] = field(default_factory=list)
    final: Optional[dict] = None
    exit_code: Optional[int] = None
    sigkilled: bool = False

    @property
    def quorum_events(self) -> List[dict]:
        return [e for e in self.events if e.get("event") == "quorum"]

    @property
    def final_quorum(self) -> Optional[FrozenSet[int]]:
        if self.final is None:
            return None
        return frozenset(self.final["quorum"])

    @property
    def metrics(self) -> Optional[dict]:
        """The node's last metrics-registry snapshot, if it emitted one."""
        for record in reversed(self.events):
            if record.get("event") == "metrics":
                return record.get("snapshot")
        return None


@dataclass
class ClusterResult:
    """Cluster-level view over all node outcomes."""

    config: ClusterConfig
    nodes: Dict[int, NodeOutcome]
    run_dir: Optional[Path]
    started_at: float
    wall_seconds: float

    def correct_pids(self) -> List[int]:
        """Replicas running (never killed, or recovered) at run end."""
        return sorted(
            pid
            for pid, node in self.nodes.items()
            if node.final is not None and node.final.get("running")
        )

    def final_quorums(self) -> Dict[int, FrozenSet[int]]:
        return {
            pid: self.nodes[pid].final_quorum  # type: ignore[misc]
            for pid in self.correct_pids()
        }

    def agreement(self) -> bool:
        """Every correct replica ended on the same quorum."""
        quorums = set(self.final_quorums().values())
        return len(quorums) == 1

    def final_quorum(self) -> Optional[FrozenSet[int]]:
        quorums = set(self.final_quorums().values())
        return next(iter(quorums)) if len(quorums) == 1 else None

    def max_changes_per_epoch(self) -> int:
        """Max quorum changes any correct replica saw in one epoch."""
        return max(
            (
                self.nodes[pid].final.get("max_changes_per_epoch", 0)
                for pid in self.correct_pids()
            ),
            default=0,
        )

    def active_quorum(self) -> bool:
        """The agreed final quorum contains no process crashed at the end."""
        quorum = self.final_quorum()
        if quorum is None:
            return False
        return not (quorum & self.config.crashed_at_end())

    def metrics_snapshots(self) -> Dict[int, dict]:
        """Per-node metrics snapshots (only nodes that emitted one)."""
        return {
            pid: node.metrics
            for pid, node in sorted(self.nodes.items())
            if node.metrics is not None
        }

    def merged_metrics(self) -> Optional[dict]:
        """One cluster-wide snapshot: per-node registries merged.

        Metric families are pid-labelled, so the merge is mostly a
        union; genuinely shared names (none today) would sum.
        """
        from repro.obs.registry import merge_snapshots

        snapshots = list(self.metrics_snapshots().values())
        return merge_snapshots(snapshots) if snapshots else None

    def summary(self) -> dict:
        quorum = self.final_quorum()
        return {
            **({"label": self.config.label} if self.config.label else {}),
            **({"protocol": self.config.deployment.protocol}
               if self.config.deployment.service else {}),
            "selector": self.config.deployment.selector,
            "n": self.config.n,
            "f": self.config.f,
            "duration": self.config.duration,
            "kill_mode": self.config.kill_mode,
            "kills": list(self.config.kills),
            "recovers": list(self.config.recovers),
            "correct_pids": self.correct_pids(),
            "agreement": self.agreement(),
            "final_quorum": sorted(quorum) if quorum is not None else None,
            "active_quorum": self.active_quorum(),
            "max_changes_per_epoch": self.max_changes_per_epoch(),
            "wall_seconds": round(self.wall_seconds, 3),
            "exit_codes": {str(p): self.nodes[p].exit_code for p in sorted(self.nodes)},
        }


def _node_command(config: ClusterConfig, pid: int) -> List[str]:
    """The command line launching replica ``pid``: its whole config as JSON."""
    host_mode = config.kill_mode == "host"
    node = NodeConfig(
        pid=pid,
        deployment=config.deployment,
        duration=config.duration,
        queue_capacity=config.queue_capacity,
        kills_at=tuple(t for p, t in config.kills if p == pid and host_mode),
        recovers_at=tuple(t for p, t in config.recovers if p == pid and host_mode),
        metrics_prom_path=(
            None if config.run_dir is None else str(Path(config.run_dir) / f"node_{pid}.prom")
        ),
        uvloop=config.uvloop,
        service_clients=config.service_clients,
    )
    return [sys.executable, "-m", "repro.net.node", node_spec(node)]


def _child_env() -> Dict[str, str]:
    """Child environment with the repro package importable.

    The harness may run from a source tree (``PYTHONPATH=src``) or an
    installed package; deriving the path from the imported package keeps
    both working without caring which.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _reader(proc: subprocess.Popen, outcome: NodeOutcome, sink, lock) -> None:
    """Drain one child's stdout into its outcome (and the run dir)."""
    assert proc.stdout is not None
    for raw in proc.stdout:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = {"event": "noise", "raw": line}
        with lock:
            outcome.events.append(record)
            if sink is not None:
                sink.write(line + "\n")
            if record.get("event") == "final":
                outcome.final = record
    if sink is not None:
        with lock:
            sink.flush()


def run_cluster(config: ClusterConfig, on_ready=None) -> ClusterResult:
    """Launch, rendezvous, inject, collect.  Blocking; returns the result.

    ``on_ready(addresses)`` — if given — is called right after the peer
    map is distributed, with the full ``{pid: "host:port"}`` map
    (replicas plus ``extra_peers``).  The service gateway uses it to
    learn replica addresses and start driving load.
    """
    config.validate()
    started_at = time.time()

    run_dir = config.run_dir
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)

    env = _child_env()
    procs: Dict[int, subprocess.Popen] = {}
    outcomes = {pid: NodeOutcome(pid) for pid in range(1, config.n + 1)}
    sinks: Dict[int, object] = {}
    lock = threading.Lock()
    threads: List[threading.Thread] = []
    timers: List[threading.Timer] = []

    try:
        for pid in range(1, config.n + 1):
            procs[pid] = subprocess.Popen(
                _node_command(config, pid),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL if run_dir is None else open(
                    run_dir / f"node_{pid}.stderr", "w"
                ),
                env=env,
                text=True,
            )

        # ---- rendezvous: collect every node's ephemeral port ----------
        addresses: Dict[int, str] = {}
        deadline = time.time() + config.startup_timeout
        for pid, proc in procs.items():
            assert proc.stdout is not None
            while True:
                if time.time() > deadline:
                    raise ConfigurationError(
                        f"node {pid} did not report a listening port in time"
                    )
                line = proc.stdout.readline()
                if not line:
                    raise ConfigurationError(
                        f"node {pid} exited before listening (see stderr)"
                    )
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                outcomes[pid].events.append(record)
                if record.get("event") == "listening":
                    addresses[pid] = f"{record['host']}:{record['port']}"
                    break

        for pid, addr in config.extra_peers:
            addresses[pid] = addr
        peer_map = json.dumps({str(pid): addr for pid, addr in addresses.items()})
        for pid, proc in procs.items():
            assert proc.stdin is not None
            proc.stdin.write(peer_map + "\n")
            proc.stdin.flush()
        if on_ready is not None:
            on_ready(dict(addresses))

        # ---- stream events -------------------------------------------
        for pid, proc in procs.items():
            sink = open(run_dir / f"node_{pid}.jsonl", "w") if run_dir else None
            sinks[pid] = sink
            thread = threading.Thread(
                target=_reader, args=(proc, outcomes[pid], sink, lock), daemon=True
            )
            thread.start()
            threads.append(thread)

        # ---- process-mode kill injection -----------------------------
        if config.kill_mode == "process":
            for pid, t in config.kills:
                def _kill(p=procs[pid], o=outcomes[pid]) -> None:
                    o.sigkilled = True
                    try:
                        p.send_signal(signal.SIGKILL)
                    except (ProcessLookupError, OSError):
                        pass

                timer = threading.Timer(t, _kill)
                timer.daemon = True
                timer.start()
                timers.append(timer)

        # ---- wait ----------------------------------------------------
        reap_deadline = time.time() + config.duration + GRACE_SECONDS
        for pid, proc in procs.items():
            remaining = max(0.1, reap_deadline - time.time())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
            outcomes[pid].exit_code = proc.returncode
        for thread in threads:
            thread.join(timeout=5)
    finally:
        for timer in timers:
            timer.cancel()
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
        for sink in sinks.values():
            if sink is not None:
                try:
                    sink.close()  # type: ignore[union-attr]
                except Exception:
                    pass

    result = ClusterResult(
        config=config,
        nodes=outcomes,
        run_dir=run_dir,
        started_at=started_at,
        wall_seconds=time.time() - started_at,
    )
    if run_dir is not None:
        (run_dir / "cluster.json").write_text(
            json.dumps(result.summary(), indent=2) + "\n"
        )
    return result


def parse_schedule(entries: Sequence[str], what: str) -> Tuple[Tuple[int, float], ...]:
    """Parse CLI ``PID@T`` schedule entries (e.g. ``--kill 1@2.5``)."""
    parsed: List[Tuple[int, float]] = []
    for entry in entries:
        pid_part, sep, time_part = entry.partition("@")
        try:
            if not sep:
                raise ValueError
            parsed.append((int(pid_part), float(time_part)))
        except ValueError:
            raise ConfigurationError(
                f"--{what} expects PID@SECONDS (e.g. 1@2.5), got {entry!r}"
            ) from None
    return tuple(parsed)
