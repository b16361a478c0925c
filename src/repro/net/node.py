"""One live replica: host + Figure-1 stack + JSON event stream.

A node is one OS process hosting one :class:`~repro.net.host.NetHost`
with the exact module stack the simulator uses
(:func:`repro.sim.worlds.attach_qs_stack`): failure detector, heartbeat
application, and Quorum (or Follower) Selection.  It speaks the
length-prefixed binary wire protocol with its peers and narrates itself as
JSON lines on stdout — one line per protocol transition — so the cluster
harness (and any log shipper) can consume the run structurally.

Stdout protocol, in order:

1. ``{"event": "listening", "pid": P, "port": N}`` — the server is up.
2. (when ``peers`` is deferred) one JSON line is *read from stdin*
   mapping pid -> "host:port" for every replica — the cluster harness's
   rendezvous, which makes ephemeral (collision-safe) ports possible.
3. ``{"event": "ready", ...}`` — peers warmed up, modules started.
4. Streamed transitions: ``quorum``, ``epoch``, ``suspect``,
   ``unsuspect``, ``crash``, ``recover`` — each stamped with node time
   ``t`` (seconds since ready) and absolute ``wall`` time.
5. ``{"event": "metrics", "pid": P, "snapshot": {...}}`` — the node's
   full metrics-registry snapshot (schema ``repro.metrics/1``), taken
   after the run window closes.  Optionally also written as Prometheus
   text exposition to ``NodeConfig.metrics_prom_path``.
6. ``{"event": "final", ...}`` — end-of-run summary: final quorum and
   epoch, per-epoch quorum-change counts, wire statistics.

Crash/recovery injection (``kills_at`` / ``recovers_at``, in seconds
after ready) runs on the *environment* timer service, not host timers —
a crash cancels host timers, and the recovery must still fire.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.net.batch import BatchAuthenticator
from repro.net.host import NetHost
from repro.net.loop import maybe_install_uvloop, uvloop_active
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.obs.observability import Observability
from repro.obs.registry import render_prometheus
from repro.protocol.backend import backend_names
from repro.sim.worlds import attach_kv_service_stack, attach_qs_stack
from repro.util.errors import ConfigurationError
from repro.util.eventlog import EventLog
from repro.util.files import atomic_write_text

#: Event-log kinds mirrored onto the JSON stream, log kind -> event name.
STREAMED_KINDS = {
    "qs.quorum": "quorum",
    "qs.epoch": "epoch",
    "fd.suspect": "suspect",
    "fd.unsuspect": "unsuspect",
    "crash": "crash",
    "recover": "recover",
}


@dataclass
class NodeConfig:
    """Everything one replica needs to join a cluster."""

    pid: int
    n: int
    f: int
    port: int = 0
    bind_host: str = "127.0.0.1"
    #: pid -> (host, port); ``None`` means "read the map from stdin".
    peers: Optional[Dict[int, Tuple[str, int]]] = None
    follower_mode: bool = False
    heartbeat_period: float = 0.3
    base_timeout: float = 2.0
    duration: float = 10.0
    warmup_timeout: float = 10.0
    queue_capacity: int = 1024
    anti_entropy_period: Optional[float] = None
    #: Seconds after ready at which this node's host crashes / recovers.
    kills_at: Tuple[float, ...] = field(default_factory=tuple)
    recovers_at: Tuple[float, ...] = field(default_factory=tuple)
    #: Where to write this node's final metrics in Prometheus text
    #: exposition format (``None`` disables the file; the JSONL
    #: ``metrics`` event is emitted regardless).
    metrics_prom_path: Optional[str] = None
    #: Install uvloop before running (no-op where unavailable).
    uvloop: bool = False
    #: Run a replicated service on top of the QS stack (``"kv"``), or
    #: ``None`` for the bare selection stack.
    service: Optional[str] = None
    #: Logical client pids the key registry must cover in service mode
    #: (clients occupy ``n+1 .. n+service_clients``; the gateway takes
    #: ``n+service_clients+1``).
    service_clients: int = 0
    #: Service-mode consensus tuning (ignored without ``service``).
    batch_size: int = 8
    batch_window: float = 0.002
    checkpoint_interval: Optional[int] = 128
    #: Which protocol backend executes the service (ignored without
    #: ``service``); any name in :func:`repro.protocol.backend.backend_names`.
    protocol: str = "xpaxos"

    def validate(self) -> None:
        if not 1 <= self.f < self.n - self.f:
            raise ConfigurationError(
                f"need 1 <= f and q = n - f > f; got n={self.n}, f={self.f}"
            )
        if not 1 <= self.pid <= self.n:
            raise ConfigurationError(f"pid {self.pid} out of range for n={self.n}")
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.heartbeat_period <= 0 or self.base_timeout <= 0:
            raise ConfigurationError("heartbeat period and base timeout must be positive")
        for t in (*self.kills_at, *self.recovers_at):
            if t < 0:
                raise ConfigurationError(f"injection times must be >= 0, got {t}")
        if self.service not in (None, "kv"):
            raise ConfigurationError(f"service must be 'kv' or omitted, got {self.service!r}")
        if self.service_clients < 0:
            raise ConfigurationError(
                f"service_clients must be >= 0, got {self.service_clients}"
            )
        if self.service is not None and self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.protocol not in backend_names():
            raise ConfigurationError(
                f"protocol must be one of {backend_names()}, got {self.protocol!r}"
            )


class StreamingEventLog(EventLog):
    """EventLog that mirrors protocol transitions as JSON stream events."""

    def __init__(self, emit, pid: int) -> None:
        super().__init__()
        self._emit = emit
        self._pid = pid

    def append(self, time_: float, process: int, kind: str, **payload: Any):
        event = super().append(time_, process, kind, **payload)
        name = STREAMED_KINDS.get(kind)
        if name is not None:
            record = {"event": name, "pid": self._pid, "t": round(time_, 6)}
            for key, value in payload.items():
                if isinstance(value, (tuple, frozenset, set)):
                    value = sorted(value)
                record[key] = value
            self._emit(record)
        return event


def parse_peer_map(raw: Dict[str, Any]) -> Dict[int, Tuple[str, int]]:
    """Decode the rendezvous line: ``{"1": "127.0.0.1:4242", ...}``."""
    peers: Dict[int, Tuple[str, int]] = {}
    for key, value in raw.items():
        host, _, port = str(value).rpartition(":")
        peers[int(key)] = (host or "127.0.0.1", int(port))
    return peers


def make_emitter(stream=None):
    """A line emitter that also wall-stamps every record."""
    out = stream if stream is not None else sys.stdout

    def emit(record: Dict[str, Any]) -> None:
        record.setdefault("wall", round(time.time(), 6))
        out.write(json.dumps(record, separators=(",", ":")) + "\n")
        out.flush()

    return emit


async def run_node(config: NodeConfig, emit=None) -> Dict[str, Any]:
    """Run one replica to completion; returns (and emits) the final record."""
    config.validate()
    emit = emit if emit is not None else make_emitter()
    loop = asyncio.get_running_loop()

    # The key registry exists before the server does, so streams accepted
    # during warm-up already verify link-level batch MACs.  In service
    # mode it also covers the logical client pids and the gateway pid —
    # keys are derived per pid, so differently-sized registries agree on
    # every pid they share.
    registry_size = config.n
    if config.service is not None:
        registry_size = config.n + config.service_clients + 1
    registry = KeyRegistry(registry_size)
    manager = PeerManager(
        config.pid,
        queue_capacity=config.queue_capacity,
        rng_seed=config.pid,  # reproducible backoff per replica
        batch_auth=BatchAuthenticator(registry, config.pid),
    )
    host_addr, port = await manager.start_server(config.bind_host, config.port)
    emit({"event": "listening", "pid": config.pid, "host": host_addr, "port": port})

    peers = config.peers
    if peers is None:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line.strip():
            raise ConfigurationError("expected a peer-map JSON line on stdin")
        peers = parse_peer_map(json.loads(line))
    manager.addresses = {pid: addr for pid, addr in peers.items() if pid != config.pid}

    # Warm the mesh before starting modules: the live analogue of GST
    # already holding at t=0 (dial-on-demand still covers latecomers).
    # Service mode warms only the replica mesh — every client pid in the
    # map routes to one gateway that is dialed on the first reply.
    warm_targets = range(1, config.n + 1) if config.service is not None else None
    warmed = await manager.warm_up(timeout=config.warmup_timeout, peers=warm_targets)

    timers = NetTimerService(loop)
    log = StreamingEventLog(emit, config.pid)
    obs = Observability()
    host = NetHost(
        config.pid, manager, Authenticator(registry, config.pid), timers,
        log=log, obs=obs,
    )
    replica = None
    if config.service is not None:
        module, replica = attach_kv_service_stack(
            host,
            config.n,
            config.f,
            heartbeat_period=config.heartbeat_period,
            base_timeout=config.base_timeout,
            batch_size=config.batch_size,
            batch_window=config.batch_window,
            checkpoint_interval=config.checkpoint_interval,
            protocol=config.protocol,
        )
    else:
        module = attach_qs_stack(
            host,
            config.n,
            config.f,
            follower_mode=config.follower_mode,
            heartbeat_period=config.heartbeat_period,
            base_timeout=config.base_timeout,
            anti_entropy_period=config.anti_entropy_period,
        )
    host.start()
    emit({"event": "ready", "pid": config.pid, "t": round(timers.now, 6), "warmed": warmed})

    for t in config.kills_at:
        timers.schedule(t, host.crash, label=f"inject-kill@p{config.pid}")
    for t in config.recovers_at:
        timers.schedule(t, host.recover, label=f"inject-recover@p{config.pid}")

    await asyncio.sleep(config.duration)

    snapshot = obs.snapshot()
    emit({
        "event": "metrics",
        "pid": config.pid,
        "t": round(timers.now, 6),
        "snapshot": snapshot,
        "spans": len(obs.spans),
        "spans_dropped": obs.spans.dropped,
    })
    if config.metrics_prom_path:
        # Atomic so a scraper (or a crash mid-write) never sees a torn file.
        atomic_write_text(config.metrics_prom_path, render_prometheus(snapshot))

    stats = manager.stats.as_dict()
    stats["frames_ignored_crashed"] = host.frames_ignored_crashed
    stats["timers_fired"] = timers.timers_fired
    final = {
        "event": "final",
        "pid": config.pid,
        "t": round(timers.now, 6),
        "running": host.running,
        "epoch": module.epoch,
        "quorum": sorted(module.qlast),
        "quorum_changes": module.total_quorums_issued(),
        "max_changes_per_epoch": module.max_quorums_in_any_epoch(),
        "quorums_per_epoch": {str(e): c for e, c in sorted(module.quorums_per_epoch.items())},
        "suspecting": sorted(module.suspecting),
        "stats": stats,
        "wire": {
            "uvloop": uvloop_active(),
            "batch_policy": manager.batch_policy.as_dict(),
            **manager.wire_stats.as_dict(),
        },
    }
    if replica is not None:
        final["service"] = {
            "kind": config.service,
            "protocol": config.protocol,
            "view": replica.view,
            "executed": replica.executed_base + len(replica.executed),
            "applied_requests": replica.kv.applied_requests,
            "duplicates_refused": replica.kv.duplicates_refused,
            "known_clients": replica.kv.known_clients,
            "at_most_once": replica.kv.at_most_once_intact(),
            "state_digest": replica.kv.state_digest(),
        }
    emit(final)
    await manager.close()
    return final


def run_node_blocking(config: NodeConfig, emit=None) -> Dict[str, Any]:
    """Synchronous wrapper: run the node on a fresh event loop."""
    # ``--uvloop`` (or REPRO_UVLOOP=1) swaps the loop policy before the
    # loop exists; on machines without uvloop this is a recorded no-op.
    maybe_install_uvloop(config.uvloop or None)
    return asyncio.run(run_node(config, emit=emit))
