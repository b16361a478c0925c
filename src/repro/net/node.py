"""One live replica: host + Figure-1 stack + JSON event stream.

A node is one OS process hosting one :class:`~repro.net.host.NetHost`
with the stack its :class:`~repro.deployment.Deployment` names, mounted
by the same :func:`~repro.deployment.mount` the simulator uses: failure
detector, heartbeat application, Quorum (or Follower) Selection and, in
service mode, a protocol replica.  It speaks the length-prefixed binary
wire protocol with its peers and narrates itself as JSON lines on stdout
— one line per protocol transition — so the cluster harness (and any
log shipper) can consume the run structurally.

The cluster harness launches a node as ``python -m repro.net.node
SPEC``, ``SPEC`` being the whole :class:`NodeConfig` as one JSON
document (:func:`node_spec`); ``python -m repro node`` builds the same
config from flags.

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
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.deployment import Deployment, mount, takes_deployment_fields
from repro.net.batch import BatchAuthenticator
from repro.net.host import NetHost
from repro.net.loop import maybe_install_uvloop, uvloop_active
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.obs.observability import Observability
from repro.obs.registry import render_prometheus
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


#: Deployment knobs of a live node or cluster that leaves them unset; also
#: the defaults of the matching ``repro node``/``cluster``/``metrics net``
#: flags.
LIVE_DEFAULTS = dict(
    heartbeat_period=0.3,
    base_timeout=2.0,
    batch_size=8,
    batch_window=0.002,
    checkpoint_interval=128,
)


def live_deployment(**fields: Any) -> Deployment:
    """A live :class:`Deployment`: ``fields`` over :data:`LIVE_DEFAULTS`.

    Every live deployment is built here — a :class:`NodeConfig` or
    :class:`~repro.net.cluster.ClusterConfig` given its fields, the live
    load drivers, the parity runner — so a knob left unset always takes
    the live default, never the simulated world's.
    """
    return Deployment(**{**LIVE_DEFAULTS, **fields})


@takes_deployment_fields(live_deployment)
@dataclass
class NodeConfig:
    """One replica's launch around the cluster's :class:`Deployment`.

    ``NodeConfig(pid=1, n=4, f=1, service="kv", ...)`` builds the
    deployment as :func:`live_deployment` of those fields.
    """

    pid: int
    deployment: Deployment
    port: int = 0
    bind_host: str = "127.0.0.1"
    #: pid -> (host, port); ``None`` means "read the map from stdin".
    peers: Optional[Dict[int, Tuple[str, int]]] = None
    duration: float = 10.0
    warmup_timeout: float = 10.0
    queue_capacity: int = 1024
    #: Seconds after ready at which this node's host crashes / recovers.
    kills_at: Tuple[float, ...] = field(default_factory=tuple)
    recovers_at: Tuple[float, ...] = field(default_factory=tuple)
    #: Where to write this node's final metrics in Prometheus text
    #: exposition format (``None`` disables the file; the JSONL
    #: ``metrics`` event is emitted regardless).
    metrics_prom_path: Optional[str] = None
    #: Install uvloop before running (no-op where unavailable).
    uvloop: bool = False
    #: Logical client pids the key registry must cover in service mode
    #: (clients occupy ``n+1 .. n+service_clients``; the gateway takes
    #: ``n+service_clients+1``).
    service_clients: int = 0

    @property
    def n(self) -> int:
        return self.deployment.n

    @property
    def f(self) -> int:
        return self.deployment.f

    def validate(self) -> None:
        self.deployment.validate()
        if not 1 <= self.pid <= self.n:
            raise ConfigurationError(f"pid {self.pid} out of range for n={self.n}")
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        for t in (*self.kills_at, *self.recovers_at):
            if t < 0:
                raise ConfigurationError(f"injection times must be >= 0, got {t}")
        if self.service_clients < 0:
            raise ConfigurationError(
                f"service_clients must be >= 0, got {self.service_clients}"
            )


def node_spec(config: NodeConfig) -> str:
    """``config`` as the one JSON argument of ``python -m repro.net.node``."""
    return json.dumps(dataclasses.asdict(config), separators=(",", ":"))


def parse_node_spec(text: str) -> NodeConfig:
    """Inverse of :func:`node_spec`."""
    raw = json.loads(text)
    raw["deployment"] = Deployment(**raw["deployment"])
    raw["kills_at"] = tuple(raw["kills_at"])
    raw["recovers_at"] = tuple(raw["recovers_at"])
    if raw["peers"] is not None:
        raw["peers"] = {int(pid): tuple(addr) for pid, addr in raw["peers"].items()}
    return NodeConfig(**raw)


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
    deployment = config.deployment
    emit = emit if emit is not None else make_emitter()
    loop = asyncio.get_running_loop()

    # The key registry exists before the server does, so streams accepted
    # during warm-up already verify link-level batch MACs.  In service
    # mode it also covers the logical client pids and the gateway pid —
    # keys are derived per pid, so differently-sized registries agree on
    # every pid they share.
    registry_size = config.n
    if deployment.service is not None:
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
    warm_targets = range(1, config.n + 1) if deployment.service is not None else None
    warmed = await manager.warm_up(timeout=config.warmup_timeout, peers=warm_targets)

    timers = NetTimerService(loop)
    log = StreamingEventLog(emit, config.pid)
    obs = Observability()
    host = NetHost(
        config.pid, manager, Authenticator(registry, config.pid), timers,
        log=log, obs=obs,
    )
    selector, replica = mount(host, deployment)
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
    module = selector.module
    if module is not None:
        selection = {
            "epoch": module.epoch,
            "quorum": sorted(module.qlast),
            "quorum_changes": module.total_quorums_issued(),
            "max_changes_per_epoch": module.max_quorums_in_any_epoch(),
            "quorums_per_epoch": {
                str(e): c for e, c in sorted(module.quorums_per_epoch.items())
            },
            "suspecting": sorted(module.suspecting),
        }
    else:
        # No selection module (enum, all): the replica's view is the
        # selection state, read through the selector.
        selection = {
            "epoch": replica.view,
            "quorum": sorted(selector.quorum_of(replica.view)),
            "quorum_changes": replica.view_changes,
            "max_changes_per_epoch": replica.view_changes,
            "quorums_per_epoch": {},
            "suspecting": sorted(host.fd.suspected),
        }
    final = {
        "event": "final",
        "pid": config.pid,
        "t": round(timers.now, 6),
        "running": host.running,
        **selection,
        "stats": stats,
        "wire": {
            "uvloop": uvloop_active(),
            "batch_policy": manager.batch_policy.as_dict(),
            **manager.wire_stats.as_dict(),
        },
    }
    if deployment.service is not None:
        final["service"] = {
            "kind": deployment.service,
            "protocol": deployment.protocol,
            "selector": deployment.selector,
            "view": replica.view,
            "executed": replica.executed_base + len(replica.executed),
            **replica.kv.summary(),
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


if __name__ == "__main__":
    run_node_blocking(parse_node_spec(sys.argv[1]))
