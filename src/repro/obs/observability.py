"""The per-run observability object: one registry + one span sink.

``Observability`` is what hosts expose as ``host.obs``
(:class:`repro.host.Host`).  The simulator shares a single instance
across every simulated process — metrics are labelled by ``pid``, and the
shared instance is what lets detection latency be measured from the fault
*injection* (host A crashes) to the *detection* (host B suspects A).  A
live node owns one instance per OS process; it only ever sees its own
faults, so cross-process detection latency is measured in the sim and the
net runtime reports the per-node metrics the parity test compares.

Disabled instances (``enabled=False``, and the :data:`NULL_OBS` fallback
for bare stub hosts in unit tests) turn every recording method into an
early return and refuse collector registration, so a metrics-off run does
no observability work at all — that, plus the collect-on-snapshot
discipline (:mod:`repro.obs.registry`), is the zero-overhead story.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.obs.registry import (
    BATCH_FRAME_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    ENCODE_SECONDS_BUCKETS,
    Collector,
    MetricsRegistry,
)
from repro.obs.spans import (
    DEFAULT_MAX_SPANS,
    SPAN_DETECTION,
    SPAN_FAULT,
    SpanSink,
)


class Observability:
    """Metrics + spans + fault bookkeeping for one run."""

    def __init__(self, enabled: bool = True, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.spans = SpanSink(max_spans=max_spans)
        # pid -> time its current fault was injected (cleared on recover).
        self._fault_at: Dict[int, float] = {}
        # (observer, target, fault_time) triples already measured, so a
        # repeated SUSPECTED publish never double-counts one detection.
        self._measured: Set[Tuple[int, int, float]] = set()

    # ------------------------------------------------------------- recording

    def add_collector(self, collector: Collector) -> None:
        """Register a snapshot-time collector (no-op when disabled)."""
        if self.enabled:
            self.registry.add_collector(collector)

    def span(self, name: str, pid: int, start: float,
             end: Optional[float] = None, **attrs: Any) -> None:
        if self.enabled:
            self.spans.record(name, pid, start, end=end, **attrs)

    def fault_injected(self, pid: int, now: float) -> None:
        """A host crashed: remember when, for detection-latency spans."""
        if not self.enabled:
            return
        self._fault_at[pid] = now
        self.spans.record(SPAN_FAULT, pid, now, what="crash")

    def fault_cleared(self, pid: int, now: float) -> None:
        """A host recovered: the fault window is over."""
        if not self.enabled:
            return
        self._fault_at.pop(pid, None)
        self.spans.record(SPAN_FAULT, pid, now, what="recover")

    def detection_observed(self, observer: int, target: int, now: float) -> None:
        """``observer`` just started suspecting ``target``.

        If a fault injection against ``target`` is on record, the elapsed
        time is one fault-to-suspicion latency sample — observed once per
        (observer, target, fault) into the fixed-bucket histogram and
        recorded as a :data:`SPAN_DETECTION` span covering the interval.
        Suspicions with no recorded fault (false alarms, Byzantine
        behaviour) are not latency samples and are skipped.
        """
        if not self.enabled:
            return
        fault_time = self._fault_at.get(target)
        if fault_time is None:
            return
        key = (observer, target, fault_time)
        if key in self._measured:
            return
        self._measured.add(key)
        latency = now - fault_time
        self.registry.histogram(
            "fd_detection_latency",
            help="time from fault injection to the observer suspecting the target",
            buckets=DEFAULT_TIME_BUCKETS,
            pid=observer,
        ).observe(latency)
        self.spans.record(
            SPAN_DETECTION, observer, fault_time, end=now,
            target=target, latency=latency,
        )

    # --------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, Any]:
        """Collect and export the registry (see :mod:`repro.obs.registry`)."""
        return self.registry.snapshot()


#: Fallback for hosts built without observability (bare stub hosts in unit
#: tests); every method is a cheap no-op.
NULL_OBS = Observability(enabled=False)


def get_obs(host: Any) -> Observability:
    """The host's observability, or :data:`NULL_OBS` for bare stubs."""
    obs = getattr(host, "obs", None)
    return obs if obs is not None else NULL_OBS


# ----------------------------------------------------- standard collectors
# Adapters folding the pre-existing scattered counters into the registry.
# Each returns a collector closure suitable for ``obs.add_collector``.


def message_stats_collector(stats: Any) -> Collector:
    """Fold the simulator's :class:`~repro.sim.tracing.MessageStats` in."""

    def collect(registry: MetricsRegistry) -> None:
        for family, counter in (
            ("messages_sent_total", stats.sent_by_kind),
            ("messages_delivered_total", stats.delivered_by_kind),
            ("messages_dropped_total", stats.dropped_by_kind),
            ("messages_lost_total", stats.lost_by_kind),
        ):
            for kind, count in counter.items():
                registry.counter(family, help="simulated network traffic by kind",
                                 kind=kind).set(count)

    return collect


def peer_stats_collector(stats: Any, pid: int) -> Collector:
    """Fold a live node's :class:`~repro.net.peer.PeerStats` in."""

    def collect(registry: MetricsRegistry) -> None:
        for name, value in stats.as_dict().items():
            registry.counter(f"peer_{name}_total", help="live TCP peer statistics",
                             pid=pid).set(value)

    return collect


def wire_stats_collector(manager: Any, pid: int) -> Collector:
    """Fold a live node's codec/batching statistics in (duck-typed).

    ``manager`` is anything shaped like :class:`~repro.net.peer.PeerManager`
    (``wire_stats`` and ``stats`` attributes); keeping the
    dependency duck-typed means the obs layer never imports the network
    stack.  Histogram state is *overwritten* from the manager's plain
    arrays — the same collect-on-snapshot discipline as every other
    collector, so the send hot path never touches a registry object.
    """

    def collect(registry: MetricsRegistry) -> None:
        stats = manager.stats
        ws = manager.wire_stats
        registry.counter(
            "net_bytes_sent_total", help="bytes written to peer sockets", pid=pid
        ).set(stats.bytes_sent)
        registry.counter(
            "net_bytes_received_total", help="bytes read from peer sockets", pid=pid
        ).set(stats.bytes_received)
        batch_hist = registry.histogram(
            "net_batch_frames", help="frames coalesced per outbound flush",
            buckets=BATCH_FRAME_BUCKETS, pid=pid,
        )
        batch_hist.counts = list(ws.batch_bucket_counts)
        batch_hist.sum = float(ws.batch_frames_sum)
        batch_hist.count = ws.batch_flushes
        encode_hist = registry.histogram(
            "wire_encode_seconds", help="time spent encoding one frame body",
            buckets=ENCODE_SECONDS_BUCKETS, pid=pid,
        )
        encode_hist.counts = list(ws.encode_bucket_counts)
        encode_hist.sum = ws.encode_seconds_sum
        encode_hist.count = ws.encode_count

    return collect


def cache_stats_collector(stats: Any) -> Collector:
    """Fold the result cache's :class:`~repro.analysis.cache.CacheStats` in."""

    def collect(registry: MetricsRegistry) -> None:
        registry.counter("cache_hits_total", help="result-cache hits").set(stats.hits)
        registry.counter("cache_misses_total", help="result-cache misses").set(stats.misses)
        registry.counter("cache_stores_total", help="result-cache stores").set(stats.stores)
        registry.counter("cache_corrupt_discarded_total",
                         help="corrupt cache entries discarded").set(stats.corrupt_discarded)
        registry.counter("cache_evictions_total",
                         help="cache entries evicted (LRU)").set(stats.evictions)
        registry.gauge("cache_hit_rate", help="hits / lookups").set(stats.hit_rate)

    return collect
