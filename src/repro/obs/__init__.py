"""Unified observability: metrics registry + protocol trace spans.

One subsystem, two runtimes: the discrete-event simulator shares a single
:class:`Observability` across all simulated processes (deterministic,
tick-stamped), while each live node owns one (wall-clock, exported as
Prometheus text and JSONL).  Protocol modules reach it through
``host.obs`` (:class:`repro.host.Host`), so the instrumentation points
are written once and feed both runtimes.

See DESIGN.md §5.16 and the "Observability" section of
``docs/architecture.md`` for the metric names and span taxonomy.
"""

from repro.obs.observability import (
    NULL_OBS,
    Observability,
    cache_stats_collector,
    get_obs,
    message_stats_collector,
    peer_stats_collector,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    diff_snapshots,
    merge_snapshots,
    metric_value,
    render_prometheus,
    render_table,
)
from repro.obs.spans import (
    SPAN_ADVERSARY_ACTION,
    SPAN_DECISION_CHANGE,
    SPAN_DETECTION,
    SPAN_EPOCH_ADVANCE,
    SPAN_EXPECTATION,
    SPAN_FAULT,
    SPAN_QUORUM_CHANGE,
    SPAN_SUSPICION_EDGE,
    Span,
    SpanSink,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "SNAPSHOT_SCHEMA",
    "NULL_OBS",
    "Observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanSink",
    "SPAN_ADVERSARY_ACTION",
    "SPAN_DECISION_CHANGE",
    "SPAN_DETECTION",
    "SPAN_EPOCH_ADVANCE",
    "SPAN_EXPECTATION",
    "SPAN_FAULT",
    "SPAN_QUORUM_CHANGE",
    "SPAN_SUSPICION_EDGE",
    "cache_stats_collector",
    "diff_snapshots",
    "get_obs",
    "merge_snapshots",
    "message_stats_collector",
    "metric_value",
    "peer_stats_collector",
    "render_prometheus",
    "render_table",
]
