"""The live runtime's host: :class:`~repro.host.Host` over sockets and wall clocks.

Ingress hardening, per the paper's authentication assumption: frames
whose payload claims a signature are verified *here*, before any module
(even the failure detector) sees them; failures are counted in the peer
stats and dropped.  Unsigned payloads pass through — deliberately so,
because the anti-entropy digest probe is unsigned by design — and the
failure detector applies its own ``require_signatures`` policy next.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.host import Host
from repro.net.batch import BatchAuthenticator
from repro.net.peer import PeerManager
from repro.obs.observability import (
    Observability,
    peer_stats_collector,
    wire_stats_collector,
)
from repro.net.timers import NetTimerService
from repro.util.eventlog import EventLog
from repro.util.ids import ProcessId


class NetHost(Host):
    """One live process: identity, module stack, wall timers, TCP links."""

    def __init__(
        self,
        pid: ProcessId,
        manager: PeerManager,
        authenticator: Authenticator,
        timers: NetTimerService,
        log: Optional[EventLog] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        # Per-node observability (one registry per OS process; the node
        # runner exports it as a JSONL event and Prometheus text).  Wire
        # statistics are folded in at snapshot time.
        super().__init__(
            pid,
            timers,
            authenticator,
            log if log is not None else EventLog(),
            obs if obs is not None else Observability(),
        )
        self.manager = manager
        self.timers = timers
        self.obs.add_collector(peer_stats_collector(manager.stats, pid))
        self.obs.add_collector(wire_stats_collector(manager, pid))
        # Derive the link-level batch MAC key from the same registry the
        # protocol signatures use: batches from any registered peer can
        # then be verified wholesale with one HMAC per envelope.
        if manager.batch_auth is None:
            registry = getattr(authenticator, "registry", None)
            if registry is not None:
                manager.batch_auth = BatchAuthenticator(registry, pid)
        # Ingress drops while crashed (a crashed process reads nothing).
        self.frames_ignored_crashed = 0
        manager.ingress = self.ingress

    def ingress(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Wire entry point: authenticate signed envelopes, then receive.

        The signer is re-verified by the failure detector too (the
        verification memo makes the second check a dict hit), but doing
        it at ingress lets the runtime count unauthenticated frames as a
        *wire*-level statistic and drop them before any protocol code.
        """
        if not self.running:
            self.frames_ignored_crashed += 1
            return
        if isinstance(payload, SignedMessage) and not self.authenticator.verify(payload):
            self.manager.stats.frames_auth_rejected += 1
            self.log.append(self.now, self.pid, "net.authfail", claimed=payload.signer, via=src)
            return
        self.on_receive(kind, payload, src)

    def _transmit(self, dst: ProcessId, kind: str, payload: Any) -> None:
        if dst == self.pid:
            self._deliver_self(kind, payload)
        else:
            self.manager.send(dst, kind, payload)

    def _deliver_self(self, kind: str, payload: Any) -> None:
        self.timers._loop.call_soon(lambda: self.on_receive(kind, payload, self.pid))
