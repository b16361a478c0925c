"""Send-side batching policy, link-level batch MAC, and wire statistics.

The peer layer (:mod:`repro.net.peer`) coalesces each link's outbound
frames into one write — one batch envelope carrying a single HMAC — instead of one write (and one per-frame
signature check on the receiving ingress) per frame.  Everything that
parameterizes or observes that behaviour lives here:

- :class:`BatchPolicy` — *when* to flush: frame-count budget, byte
  budget, or time budget, whichever trips first;
- :class:`BatchBuffer` — the coalescing buffer those triggers query
  (pure data, unit-testable without sockets or an event loop);
- :class:`BatchAuthenticator` — HMAC-SHA256 over a whole envelope, keyed
  per sender from the shared :class:`~repro.crypto.keys.KeyRegistry`;
- :class:`WireStats` — plain-int/array hot-path counters folded into the
  metrics registry only at snapshot time (the E25 collect-on-snapshot
  discipline), via ``wire_stats_collector`` in
  :mod:`repro.obs.observability`.
"""

from __future__ import annotations

import hashlib
import hmac
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.obs.registry import BATCH_FRAME_BUCKETS, ENCODE_SECONDS_BUCKETS

#: Per-member framing overhead a batch envelope pays (length prefix).
MEMBER_OVERHEAD = 4


@dataclass(frozen=True)
class BatchPolicy:
    """Flush triggers for one link's coalescing buffer.

    A buffer is flushed as soon as it holds ``max_frames`` frames or
    ``max_bytes`` encoded bytes, or once ``max_delay`` seconds have
    passed since its first frame arrived — whichever trips first.  The
    defaults trade at most 2 ms of added latency (far below any protocol
    timeout) for an order-of-magnitude fewer writes and MACs under load.
    """

    max_frames: int = 128
    max_bytes: int = 1 << 17
    max_delay: float = 0.002

    def __post_init__(self) -> None:
        if self.max_frames < 1 or self.max_bytes < 1 or self.max_delay < 0:
            raise ValueError(f"invalid batch policy {self}")

    @classmethod
    def disabled(cls) -> "BatchPolicy":
        """One frame per flush: the pre-E27 write-per-frame behaviour."""
        return cls(max_frames=1, max_bytes=1, max_delay=0.0)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


class BatchBuffer:
    """Coalescing buffer for one flush; the policy triggers are queries."""

    __slots__ = ("policy", "bodies", "nbytes", "first_at")

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self.bodies: List[bytes] = []
        self.nbytes = 0
        self.first_at: Optional[float] = None

    def __len__(self) -> int:
        return len(self.bodies)

    def add(self, body: bytes, now: float) -> None:
        if self.first_at is None:
            self.first_at = now
        self.bodies.append(body)
        self.nbytes += len(body) + MEMBER_OVERHEAD

    def full(self) -> bool:
        """Frame-count or byte budget exhausted: flush immediately."""
        return (
            len(self.bodies) >= self.policy.max_frames
            or self.nbytes >= self.policy.max_bytes
        )

    def deadline(self) -> Optional[float]:
        """When the time budget of the oldest buffered frame runs out."""
        if self.first_at is None:
            return None
        return self.first_at + self.policy.max_delay

    def expired(self, now: float) -> bool:
        deadline = self.deadline()
        return deadline is not None and now >= deadline

    def drain(self) -> List[bytes]:
        bodies = self.bodies
        self.bodies = []
        self.nbytes = 0
        self.first_at = None
        return bodies


class BatchAuthenticator:
    """One HMAC-SHA256 per batch envelope, keyed by the sender's secret.

    Link-level, not protocol-level: the MAC proves the envelope came from
    the peer it claims and arrived intact (tampering with any member
    frame invalidates the whole batch).  Protocol signatures inside the
    payloads are still checked by the host ingress and the failure
    detector — a Byzantine peer with a valid link key can still only
    equivocate as itself.
    """

    __slots__ = ("registry", "pid", "_secret")

    def __init__(self, registry: Any, pid: int) -> None:
        self.registry = registry
        self.pid = pid
        self._secret = registry.secret_for(pid)

    def mac(self, data: bytes) -> bytes:
        return hmac.new(self._secret, data, hashlib.sha256).digest()

    def verify(self, src: int, data: bytes, tag: bytes) -> bool:
        try:
            secret = self.registry.secret_for(src)
        except Exception:
            return False  # unknown sender: no key, no trust
        return hmac.compare_digest(hmac.new(secret, data, hashlib.sha256).digest(), tag)


class WireStats:
    """Hot-path codec/batching counters for one :class:`PeerManager`.

    Plain ints and fixed arrays only — no registry objects are touched on
    the send path.  ``wire_stats_collector`` folds these into
    ``net_batch_frames`` / ``wire_encode_seconds`` histograms and the
    ``net_bytes_*`` counters at snapshot time.
    """

    __slots__ = (
        "encode_seconds_sum",
        "encode_count",
        "encode_bucket_counts",
        "batch_frames_sum",
        "batch_flushes",
        "batch_bucket_counts",
    )

    def __init__(self) -> None:
        self.encode_seconds_sum = 0.0
        self.encode_count = 0
        self.encode_bucket_counts = [0] * (len(ENCODE_SECONDS_BUCKETS) + 1)
        self.batch_frames_sum = 0
        self.batch_flushes = 0
        self.batch_bucket_counts = [0] * (len(BATCH_FRAME_BUCKETS) + 1)

    def record_encode(self, seconds: float) -> None:
        self.encode_seconds_sum += seconds
        self.encode_count += 1
        self.encode_bucket_counts[bisect_left(ENCODE_SECONDS_BUCKETS, seconds)] += 1

    def record_encode_bulk(self, total_seconds: float, count: int) -> None:
        """``count`` encode samples in one shot (one bisect per flush).

        Frames coalesced into one flush encode back-to-back with nearly
        identical costs, so bucketing all of them at their mean keeps the
        histogram honest while taking the recording overhead off the
        per-frame path.
        """
        if count <= 0:
            return
        self.encode_seconds_sum += total_seconds
        self.encode_count += count
        bucket = bisect_left(ENCODE_SECONDS_BUCKETS, total_seconds / count)
        self.encode_bucket_counts[bucket] += count

    def record_flush(self, frames: int) -> None:
        self.batch_frames_sum += frames
        self.batch_flushes += 1
        self.batch_bucket_counts[bisect_left(BATCH_FRAME_BUCKETS, frames)] += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "encode_count": self.encode_count,
            "encode_seconds_sum": self.encode_seconds_sum,
            "batch_flushes": self.batch_flushes,
            "batch_frames_sum": self.batch_frames_sum,
        }
