"""Reliable delivery on top of lossy channels: ack + backoff + dedup.

The paper assumes reliable channels (Section IV); production networks and
the simulator's :class:`~repro.sim.network.ChaosConfig` regime do not
provide them.  :class:`ReliableTransport` restores per-link reliability
the way production RPC stacks do:

- every outgoing protocol message is wrapped with a per-destination
  sequence number and tracked until the destination acknowledges it;
- an unacknowledged message is retransmitted with exponential backoff
  (initial timeout seeded from the latency model's round-trip bound,
  doubling up to a cap), so loss is survived and a healthy link is not
  flooded;
- the receiver acknowledges *every* copy (acks are lossy too) but
  delivers each sequence number at most once, using a cumulative floor
  plus an out-of-order window, so chaos duplication and retransmission
  never double-deliver.

Authentication is untouched: the wrapper carries the original payload
(usually a :class:`~repro.crypto.authenticator.SignedMessage`) verbatim,
and unwrapped messages re-enter the host through the normal
``on_receive`` path — signature verification and failure-detector
expectation matching happen exactly as for a direct send.  Acks are
unsigned; a Byzantine peer refusing to ack only makes us retransmit to
*it*, and a forged ack can only come from the true link peer (network
source addresses are trustworthy in the simulator), so correctness for
correct-process pairs is unaffected.

Crash/recovery follows the host's semantics: a crash kills the pending
retransmission timers with every other timer, and :meth:`recover` re-arms
them — unacknowledged messages survive the outage, which is exactly the
retry behaviour the suspicion matrix's eventual consistency (Lemma 1)
needs under the crash-recovery model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

from repro.host import Host, Module
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId

KIND_REL_DATA = "rel.data"
KIND_REL_ACK = "rel.ack"


@dataclass(slots=True)
class _Pending:
    """One unacknowledged outgoing message."""

    dst: ProcessId
    seq: int
    kind: str
    payload: Any
    rto: float
    attempts: int = 0
    timer: Any = field(default=None)


class ReliableTransport(Module):
    """Ack-based retransmission layer for one process.

    Protocol modules opt in by routing sends through :meth:`send` instead
    of ``host.send``; everything else (timers, signing, delivery order at
    the receiver) is unchanged.  The module must be attached to the host
    (``host.add_module``) so it subscribes its wire kinds at start.
    """

    def __init__(
        self,
        host: Host,
        rto: Optional[float] = None,
        backoff: float = 2.0,
        max_rto: float = 60.0,
        max_retries: Optional[int] = None,
    ) -> None:
        super().__init__(host)
        if rto is not None and rto <= 0:
            raise ConfigurationError(f"rto must be positive, got {rto}")
        if backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {backoff}")
        if max_rto <= 0:
            raise ConfigurationError(f"max_rto must be positive, got {max_rto}")
        if max_retries is not None and max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        self.rto = rto
        self.backoff = backoff
        self.max_rto = max_rto
        # None = retransmit forever (a reliable channel); the backoff cap
        # bounds the residual traffic of a permanently dead destination.
        self.max_retries = max_retries
        self._next_seq: Dict[ProcessId, int] = {}
        self._pending: Dict[Tuple[ProcessId, int], _Pending] = {}
        # Receiver-side dedup per source: every seq <= floor was delivered;
        # seqs above it that arrived out of order wait in the window until
        # the floor catches up, so memory is bounded by the reorder window,
        # not the run length.
        self._recv_floor: Dict[ProcessId, int] = {}
        self._recv_window: Dict[ProcessId, Set[int]] = {}
        # --- instrumentation ---
        self.retransmissions = 0
        self.acks_received = 0
        self.duplicates_suppressed = 0
        self.delivered = 0
        self.abandoned = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self.host.subscribe(KIND_REL_DATA, self._on_data)
        self.host.subscribe(KIND_REL_ACK, self._on_ack)

    def recover(self) -> None:
        """Re-arm retransmission for everything still unacknowledged —
        the crash cancelled the timers but not the obligation to deliver."""
        for entry in list(self._pending.values()):
            self._arm(entry)

    # --------------------------------------------------------------- sending

    def send(self, dst: ProcessId, kind: str, payload: Any) -> int:
        """Send ``(kind, payload)`` reliably; returns the sequence number."""
        if dst == self.pid:
            raise ConfigurationError("reliable self-sends are meaningless: deliver locally")
        seq = self._next_seq.get(dst, 0) + 1
        self._next_seq[dst] = seq
        entry = _Pending(
            dst=dst, seq=seq, kind=kind, payload=payload, rto=self._initial_rto()
        )
        self._pending[(dst, seq)] = entry
        self._transmit(entry)
        return seq

    def pending_count(self) -> int:
        """Unacknowledged messages currently tracked (tests/benchmarks)."""
        return len(self._pending)

    def _initial_rto(self) -> float:
        if self.rto is not None:
            return self.rto
        return self.host.network.latency.round_trip(self.host.now)

    def _transmit(self, entry: _Pending) -> None:
        self.host.send(entry.dst, KIND_REL_DATA, (entry.seq, entry.kind, entry.payload))
        self._arm(entry)

    def _arm(self, entry: _Pending) -> None:
        entry.timer = self.host.set_timer(
            entry.rto, partial(self._on_timeout, entry), label=f"rel-rto@p{self.pid}"
        )

    def _on_timeout(self, entry: _Pending) -> None:
        if (entry.dst, entry.seq) not in self._pending:
            return  # acked while the timer was in flight
        if self.max_retries is not None and entry.attempts >= self.max_retries:
            del self._pending[(entry.dst, entry.seq)]
            self.abandoned += 1
            self.host.log.append(
                self.host.now, self.pid, "rel.giveup",
                dst=entry.dst, seq=entry.seq, msg=entry.kind,
            )
            return
        entry.attempts += 1
        entry.rto = min(entry.rto * self.backoff, self.max_rto)
        self.retransmissions += 1
        self._transmit(entry)

    # ------------------------------------------------------------- receiving

    def _on_data(self, kind: str, wrapper: Any, src: ProcessId) -> None:
        if not isinstance(wrapper, tuple) or len(wrapper) != 3:
            return  # Byzantine garbage: ignore silently
        seq, inner_kind, inner = wrapper
        if not isinstance(seq, int) or isinstance(seq, bool) or seq <= 0:
            return
        if not isinstance(inner_kind, str):
            return
        # Ack every copy: the previous ack may itself have been lost.
        self.host.send(src, KIND_REL_ACK, seq)
        floor = self._recv_floor.get(src, 0)
        window = self._recv_window.get(src)
        if seq <= floor or (window is not None and seq in window):
            self.duplicates_suppressed += 1
            return
        if window is None:
            window = self._recv_window.setdefault(src, set())
        window.add(seq)
        while floor + 1 in window:
            floor += 1
            window.discard(floor)
        self._recv_floor[src] = floor
        self.delivered += 1
        # Re-enter the host's normal receive path: the failure detector
        # authenticates and matches expectations exactly as for a direct
        # send, so the transport is invisible to the protocol above it.
        self.host.on_receive(inner_kind, inner, src)

    def _on_ack(self, kind: str, seq: Any, src: ProcessId) -> None:
        if not isinstance(seq, int) or isinstance(seq, bool):
            return
        entry = self._pending.pop((src, seq), None)
        if entry is None:
            return  # duplicate or stale ack
        self.acks_received += 1
        if entry.timer is not None:
            entry.timer.cancel()

    # ---------------------------------------------------------- diagnostics

    def stats(self) -> Dict[str, int]:
        """Counters for the lossy-gossip benchmark harness."""
        return {
            "retransmissions": self.retransmissions,
            "acks_received": self.acks_received,
            "duplicates_suppressed": self.duplicates_suppressed,
            "delivered": self.delivered,
            "abandoned": self.abandoned,
            "pending": len(self._pending),
        }
