"""Heartbeat application driving the failure detector.

Section II opens by assuming "every process is expected to send infinitely
many messages ... systems that use heartbeats to detect crash failures".
This module is that minimal application: every process periodically
broadcasts a signed heartbeat and, for every peer, keeps an expectation
for the peer's next heartbeat open with the failure detector.  It turns
crashes, (per-link) omissions, and timing failures into ``SUSPECTED``
events without needing a full BFT protocol on top — the workhorse of the
pure Quorum Selection experiments (E2-E4).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.crypto.authenticator import SignedMessage
from repro.fd.expectations import ExpectationHandle
from repro.host import Host, Module
from repro.obs.observability import get_obs
from repro.util.ids import ProcessId
from repro.util.wire_schema import register_kind_ids

HEARTBEAT = "heartbeat"
PING = "fd.ping"
PONG = "fd.pong"
register_kind_ids({HEARTBEAT: 1, PING: 2, PONG: 3})


def _is_heartbeat(kind: str, payload: Any) -> bool:
    """Shared predicate — one function object instead of one per EXPECT."""
    return kind == HEARTBEAT


class HeartbeatModule(Module):
    """Periodic signed heartbeats plus rolling expectations for peers."""

    def __init__(self, host: Host, n: int, period: float = 2.0) -> None:
        super().__init__(host)
        self.n = n
        self.period = period
        self.sequence = 0
        self._expectations: Dict[int, ExpectationHandle] = {}

    def start(self) -> None:
        if self.host.fd is None:
            raise RuntimeError("HeartbeatModule requires a failure detector on the host")
        get_obs(self.host).add_collector(self._collect_metrics)
        self.host.subscribe(HEARTBEAT, self._on_heartbeat)
        for peer in range(1, self.n + 1):
            if peer != self.pid:
                self._expect_next(peer)
        self._beat()

    def recover(self) -> None:
        """Re-arm the beat loop and peer expectations after a restart."""
        for peer in range(1, self.n + 1):
            if peer != self.pid:
                self._expect_next(peer)
        self._beat()

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: beats emitted by this process."""
        registry.counter("hb_beats_sent_total", help="heartbeat rounds emitted",
                         pid=self.pid).set(self.sequence)

    # ------------------------------------------------------------------ beats

    def _beat(self) -> None:
        if not self.host.running:
            return
        self.sequence += 1
        payload = self.host.authenticator.sign(("heartbeat", self.pid, self.sequence))
        for peer in range(1, self.n + 1):
            if peer != self.pid:
                self.host.send(peer, HEARTBEAT, payload)
        self.host.set_timer(self.period, self._beat, label=f"hb@p{self.pid}")

    def _expect_next(self, peer: ProcessId) -> None:
        """Expect *some* next heartbeat from ``peer`` (any sequence)."""
        self._expectations[peer] = self.host.fd.expect(
            source=peer,
            predicate=_is_heartbeat,
            group="heartbeat",
            label=f"hb<-p{peer}",
        )

    def _on_heartbeat(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or src == self.pid:
            return
        # The just-delivered beat satisfied the open expectation (the FD
        # matched it already); roll the window forward by expecting the
        # next one.
        handle = self._expectations.get(src)
        if handle is None or not handle.pending:
            self._expect_next(src)


class PingPongModule(Module):
    """Request/response probing: detects *increasing timing failures*.

    :class:`HeartbeatModule` expects "some next heartbeat", which measures
    inter-arrival spacing — a process whose delay grows without bound but
    keeps emitting stale beats is suspected at most once there.  Section
    II's increasing-timing failure is about *response* time ("processes
    and responds to any received message within Delta"), so this module
    sends a nonce'd PING to every peer each period and expects the PONG
    echoing that exact nonce.  A growing response delay beats every
    (doubling, but always finite) timeout again and again: suspicions are
    raised and cancelled infinitely often — eventual detection, exactly
    as the paper's classification promises.
    """

    def __init__(self, host: Host, n: int, period: float = 4.0) -> None:
        super().__init__(host)
        self.n = n
        self.period = period
        self._nonce = 0

    def start(self) -> None:
        if self.host.fd is None:
            raise RuntimeError("PingPongModule requires a failure detector on the host")
        self.host.subscribe(PING, self._on_ping)
        self.host.subscribe(PONG, lambda kind, payload, src: None)  # matched by FD
        self._probe()

    def recover(self) -> None:
        """Re-arm the probe loop after a restart."""
        self._probe()

    def _probe(self) -> None:
        if not self.host.running:
            return
        for peer in range(1, self.n + 1):
            if peer == self.pid:
                continue
            self._nonce += 1
            nonce = (self.pid, self._nonce)
            self.host.send(peer, PING, self.host.authenticator.sign(("ping", nonce)))
            self.host.fd.expect(
                source=peer,
                predicate=self._pong_matcher(nonce),
                group="pingpong",
                label=f"pong<-p{peer}#{self._nonce}",
            )
        self.host.set_timer(self.period, self._probe, label=f"pingpong@p{self.pid}")

    @staticmethod
    def _pong_matcher(nonce):
        def match(kind: str, payload: Any) -> bool:
            return (
                kind == PONG
                and isinstance(payload, SignedMessage)
                and isinstance(payload.payload, tuple)
                and len(payload.payload) == 2
                and payload.payload[0] == "pong"
                and payload.payload[1] == nonce
            )

        return match

    def _on_ping(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage):
            return
        body = payload.payload
        if not isinstance(body, tuple) or len(body) != 2 or body[0] != "ping":
            return
        self.host.send(src, PONG, self.host.authenticator.sign(("pong", body[1])))
