"""Turn what a run observed into the named metrics of BENCHMARK.json.

End-to-end metrics come from the windows and requests of an untraced
run.  Per-layer metrics come from a traced run: self times from the
tracer's spans, counts from the public counters' movement inside the
traced windows, and three cold replays (codec, stream decoder, quorum
search) over inputs captured while tracing.  A layer a workload never
enters reports 0 — its "no change" prediction made visible.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.graphs.independent_set import lex_first_independent_set
from repro.net import wire
from repro.service.loadgen import percentile
from repro.xpaxos.messages import KIND_REPLY, KIND_REQUEST

from bench.load import Request
from bench.tracer import Tracer
from bench.workloads import LATENCY_LIMIT, Run, Window

VOTE_HANDLERS = (
    "handler.xp.prepare", "handler.xp.commit",
    "handler.ibft.preprepare", "handler.ibft.prepare", "handler.ibft.commit",
)


def _in_windows(windows: Iterable[Window], t: Optional[float]) -> bool:
    return t is not None and any(w.start <= t < w.end for w in windows)


def _total(windows: Iterable[Window], key: str) -> float:
    return sum(w.counters.get(key, 0) for w in windows)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------- end to end


def tail_percent(samples: int) -> float:
    """99, or the highest percentile with ten samples beyond it.

    The four worlds of a sim run support nothing above their median; the
    slowest of four is one draw from a heavy tail, not a percentile.
    """
    return 99.0 if samples >= 1000 else max(50.0, 100.0 * (1.0 - 10.0 / max(samples, 1)))


def end_to_end(run: Run) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """``(metrics, attempted, failed, notes)`` of an untraced run.

    One *operation* is a client request on the live workloads and one
    whole churn run on ``sim_qs_churn``.
    """
    windows = run.windows
    wall = sum(w.wall for w in windows)
    cpu = sum(w.cpu for w in windows)
    if run.sim_walls:
        # Worlds differ in cost (the quorum search depends on the suspect
        # graphs), so rate and CPU are the median world's, not the mean's.
        latencies = list(run.sim_walls)
        attempted, failed, completed = len(latencies), 0, 1
        wall = statistics.median(latencies)
        cpu = statistics.median(w.cpu for w in windows)
    else:
        offered = [r for r in run.requests if _in_windows(windows, r.due)]
        latencies = [r.done - r.due for r in offered if r.done is not None]
        attempted, failed = len(offered), len(offered) - len(latencies)
        completed = sum(1 for r in run.requests if _in_windows(windows, r.done))
    metrics = {
        "setup_s": statistics.median(run.setups),
        "ops_per_s": _ratio(completed, wall),
        "cpu_ms_per_op": _ratio(1e3 * cpu, completed),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, tail_percent(len(latencies))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes: Dict[str, Any] = {
        "latency_samples": len(latencies),
        "tail_percent": tail_percent(len(latencies)),
        "setup_samples": [round(s, 4) for s in run.setups],
    }
    if run.faults:
        notes["outage_s"] = [round(f["client_learns_s"], 4) for f in run.faults]
    if run.sim_walls:
        notes["sim_wall_s"] = [round(s, 4) for s in run.sim_walls]
    else:
        notes["late_share"] = _ratio(
            failed + sum(1 for latency in latencies if latency > LATENCY_LIMIT), attempted
        )
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------- per layer


def _spans_by_mesh(tracer: Tracer, traced: List[Window]) -> List[List[Any]]:
    """The spans of each traced window.

    Each traced window of a failover run is a mesh of its own, and its
    request ids and slot numbers start over; the tracer is off between
    windows, so a span belongs to the last window that began before it.
    """
    groups: List[List[Any]] = [[] for _ in traced]
    starts = [window.start for window in traced]
    for span in tracer.spans:
        index = sum(1 for start in starts if start <= span[2]) - 1
        if index >= 0:
            groups[index].append(span)
    return groups


def _first_by_request(
    spans: List[Any], name: str, keep: Callable[[Any], bool] = lambda attrs: True
) -> Dict[Any, float]:
    """Start time of the first ``name`` span of each request."""
    first: Dict[Any, float] = {}
    for _sid, span_name, start, _end, _parent, rid, attrs in spans:
        if span_name == name and rid is not None and rid not in first and keep(attrs):
            first[rid] = start
    return first


def _request_timeline(
    spans: List[Any], requests: List[Request], replicas: Tuple[int, ...],
    out: Dict[str, List[float]],
) -> None:
    """Append the stage durations (seconds) of one mesh's requests."""
    sent = _first_by_request(
        spans, "net.host.send", lambda a: a[2] == KIND_REQUEST and a[0] not in replicas)
    at_leader = _first_by_request(
        spans, "net.host.ingress", lambda a: a[2] == KIND_REQUEST and a[0] in replicas)
    applied = _first_by_request(spans, "service.kv.apply")
    replied = _first_by_request(spans, "service.client.on_reply")
    proposed: Dict[Any, float] = {}
    for _sid, name, start, _end, _parent, _rid, attrs in spans:
        if name == "net.peer.send" and attrs[4]:
            for rid in attrs[4]:
                proposed.setdefault(rid, start)
    for request in requests:
        rid = request.rid
        if request.done is None:
            continue
        if rid in sent:
            out["client_queue"].append(sent[rid] - request.due)
        if not all(rid in table for table in (sent, at_leader, applied, replied)):
            continue  # a boundary fell outside the traced window
        out["request_hop"].append(at_leader[rid] - sent[rid])
        out["order"].append(applied[rid] - at_leader[rid])
        out["reply_hop"].append(replied[rid] - applied[rid])
        out["vote_collect"].append(request.done - replied[rid])
        out["latency"].append(request.done - request.due)
        if rid in proposed:
            out["batch_wait"].append(proposed[rid] - at_leader[rid])


def _hops(spans: List[Any], hops: List[float]) -> None:
    """Append send-to-ingress times of request and reply frames.

    Matching by ``(request id, link)`` rather than by position on the
    link stays valid when frames are in flight as tracing turns on.
    """
    sends: Dict[Any, float] = {}
    for _sid, name, start, _end, _parent, rid, attrs in spans:
        if rid is None:
            continue
        if name == "net.peer.send" and attrs[2] in (KIND_REQUEST, KIND_REPLY):
            # Replies travel on one link per client pid; requests from the
            # gateway's own pid.
            dst = attrs[1] if attrs[2] == KIND_REQUEST else None
            sends.setdefault((rid, attrs[2], attrs[0], dst), start)
        elif name == "net.host.ingress" and attrs[2] in (KIND_REQUEST, KIND_REPLY):
            dst = attrs[0] if attrs[2] == KIND_REQUEST else None
            sent_at = sends.pop((rid, attrs[2], attrs[1], dst), None)
            if sent_at is not None:
                hops.append(start - sent_at)


def _vote_tally(spans: List[Any], tally: List[int]) -> None:
    """Append the vote frames sent for each (view or round, slot)."""
    counts: Dict[Any, int] = defaultdict(int)
    for _sid, name, _start, _end, _parent, _rid, attrs in spans:
        if name == "net.peer.send" and attrs[3] is not None:
            counts[attrs[3]] += 1
    tally.extend(counts.values())


def _clear_codec_memos() -> None:
    for name in ("_ENCODE_MEMO", "_DECODE_MEMO"):
        memo = getattr(wire, name, None)
        if memo is not None:
            memo.clear()


def _codec_replay(tracer: Tracer) -> Dict[str, float]:
    """Time the codec alone over the captured frame mix, memos cold."""
    frames = tracer.frames
    if not frames:
        return {"net.wire.encode_us_per_frame": 0.0, "net.wire.decode_us_per_frame": 0.0,
                "net.wire.bytes_per_frame": 0.0, "net.wire.feed_us_per_kb": 0.0}
    _clear_codec_memos()
    started = time.perf_counter()
    bodies = [wire.encode_frame_body(kind, payload, src, wire.WIRE_V2)
              for kind, payload, src in frames]
    encode = time.perf_counter() - started
    _clear_codec_memos()
    started = time.perf_counter()
    for body in bodies:
        wire.decode_frame_body(body)
    decode = time.perf_counter() - started
    _clear_codec_memos()
    stream = b"".join(wire.frame_bytes(body) for body in bodies)
    decoder = wire.FrameDecoder()
    started = time.perf_counter()
    for offset in range(0, len(stream), 65536):
        decoder.feed(stream[offset:offset + 65536])
    feed = time.perf_counter() - started
    return {
        "net.wire.encode_us_per_frame": 1e6 * encode / len(frames),
        "net.wire.decode_us_per_frame": 1e6 * decode / len(frames),
        "net.wire.bytes_per_frame": sum(map(len, bodies)) / len(frames),
        "net.wire.feed_us_per_kb": 1e6 * feed / (len(stream) / 1024.0),
    }


def _search_replay(tracer: Tracer) -> float:
    """Microseconds per quorum search over the captured suspect graphs."""
    if not tracer.graphs:
        return 0.0
    search = getattr(lex_first_independent_set, "__wrapped__", lex_first_independent_set)
    started = time.perf_counter()
    for graph, q in tracer.graphs:
        search(graph, q, assume_exists=True)
    return 1e6 * (time.perf_counter() - started) / len(tracer.graphs)


def per_layer(run: Run) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from a traced run."""
    tracer = run.tracer
    traced = [w for w in run.windows if w.traced]
    reference = [w for w in run.windows if not w.traced]

    def ops_in(windows: List[Window]) -> int:
        if run.sim_walls:
            return len(windows)
        return sum(1 for r in run.requests if _in_windows(windows, r.done))

    ops = ops_in(traced)
    calls = tracer.calls
    cpu = sum(w.cpu for w in traced)
    stages: Dict[str, List[float]] = defaultdict(list)
    hops: List[float] = []
    votes: List[int] = []
    for window, spans in zip(traced, _spans_by_mesh(tracer, traced)):
        due_here = [r for r in run.requests if window.start <= r.due < window.end]
        _request_timeline(spans, due_here, run.replica_pids, stages)
        _hops(spans, hops)
        _vote_tally(spans, votes)
    clean = _total(run.windows, "frames_dropped") + _total(run.windows, "frames_unusable") == 0
    offered = [r for r in run.requests if _in_windows(traced, r.due)]
    late = sum(1 for r in offered if r.done is None or r.done - r.due > LATENCY_LIMIT)

    def p50_ms(stage: str) -> float:
        return 1e3 * percentile(stages[stage], 50)

    def fault(stage: str, pick: Callable[[List[float]], float] = statistics.median) -> float:
        return pick([f[stage] for f in run.faults]) if run.faults else 0.0

    # The sim counts its own traffic; on a live mesh the UPDATE frames
    # handed to the peer layer are counted from the spans.
    updates_sent = _total(traced, "qs_updates_sent") + sum(
        1 for s in tracer.spans if s[1] == "net.peer.send" and s[6][2] == "qs.update")
    untraced = reference or traced  # a quick run may have no untraced slice
    reference_wall = sum(w.wall for w in untraced)
    reference_cpu = sum(w.cpu for w in untraced)
    # CPU per operation with the tracer on, against the untraced slice
    # of the same run; 0 when a quick run has no untraced slice.
    overhead = 1.0 - _ratio(_ratio(reference_cpu, ops_in(reference)), _ratio(cpu, ops))
    if not reference or overhead < 0.0:
        overhead = 0.0

    def per_op(key: str) -> float:
        return _ratio(_total(traced, key), ops)

    out = {
        "service.client.submit_us": tracer.self_us("service.client.submit"),
        "service.client.on_reply_us": tracer.self_us("service.client.on_reply"),
        "service.client.replies_per_req": _ratio(calls["service.client.on_reply"], ops),
        "service.client.retries_per_kreq": _ratio(1e3 * _total(traced, "retries"), ops),
        "service.client.warmup_retries": float(run.warmup_retries),
        "service.client.queue_wait_ms_p50": p50_ms("client_queue"),
        "net.host.send_us": tracer.self_us("net.host.send"),
        "net.host.ingress_us": tracer.self_us("net.host.ingress"),
        "net.peer.frames_per_req": _ratio(_total(traced, "frames_sent"), ops),
        "net.peer.bytes_per_req": _ratio(_total(traced, "bytes_sent"), ops),
        "net.peer.send_us": tracer.self_us("net.peer.send"),
        "net.peer.frames_dropped": _total(traced, "frames_dropped"),
        "net.batch.rejected": _total(traced, "batches_rejected"),
        "net.hop_ms_p50": 1e3 * percentile(hops, 50) if clean else 0.0,
        "net.hop_ms_p99": 1e3 * percentile(hops, 99) if clean else 0.0,
        "net.batch.frames_per_envelope": _ratio(
            _total(traced, "batch_frames"), _total(traced, "batch_flushes")),
        "net.batch.mac_us": tracer.self_us("net.batch.mac"),
        "net.batch.verify_us": tracer.self_us("net.batch.verify"),
        "crypto.sign_us": tracer.self_us("crypto.sign"),
        "crypto.verify_us": tracer.self_us("crypto.verify"),
        "crypto.signs_per_req": _ratio(calls["crypto.sign"], ops),
        "crypto.verifies_per_req": _ratio(calls["crypto.verify"], ops),
        "replica.request_us": tracer.self_us("handler." + KIND_REQUEST),
        "replica.vote_us": tracer.self_us(*VOTE_HANDLERS),
        "replica.msgs_per_decision": float(statistics.median_low(votes)) if votes else 0.0,
        "replica.reqs_per_batch": _ratio(_total(traced, "executed"), _total(traced, "slots")),
        "replica.batch_wait_ms_p50": p50_ms("batch_wait"),
        "service.kv.apply_us": tracer.self_us("service.kv.apply"),
        "service.kv.applies_per_req": _ratio(calls["service.kv.apply"], ops),
        "stage.client_queue_ms": p50_ms("client_queue"),
        "stage.request_hop_ms": p50_ms("request_hop"),
        "stage.order_ms": p50_ms("order"),
        "stage.reply_hop_ms": p50_ms("reply_hop"),
        "stage.vote_collect_ms": p50_ms("vote_collect"),
        "fault.first_retry_s": fault("first_retry_s"),
        "fault.detect_s": fault("detect_s"),
        "fault.quorum_s": fault("quorum_s"),
        "fault.new_view_s": fault("new_view_s"),
        "fault.client_learns_s": fault("client_learns_s"),
        "fault.outage_max_s": fault("client_learns_s", max),
        "fault.late_share": _ratio(late, len(offered)) if run.faults else 0.0,
        "service.client.retry_rounds_to_new_view": fault("retry_rounds"),
        "net.timers.late_ms_p99": 1e3 * percentile(tracer.timer_lateness, 99),
        "loop.idle_share": max(0.0, 1.0 - _ratio(reference_cpu, reference_wall)),
        "runtime.gc_share": _ratio(sum(w.gc_seconds for w in untraced), reference_wall),
        "graphs.independent_set_us": _search_replay(tracer),
        "core.qs.update_us": tracer.self_us("handler.qs.update"),
        "core.qs.searches": per_op("qs_searches"),
        "core.qs.search_memo_hit_share": _ratio(
            _total(traced, "qs_memoized"),
            _total(traced, "qs_memoized") + _total(traced, "qs_searches")),
        "core.qs.updates_sent": _ratio(updates_sent, ops),
        "core.qs.quorum_changes": per_op("qs_quorum_changes"),
        "core.qs.forwards_suppressed": per_op("qs_forwards_suppressed"),
        "fd.on_receive_us": tracer.self_us("fd.on_receive"),
        "fd.expectations": per_op("fd_expectations"),
        "sim.network.msgs_sent": per_op("sim_msgs_sent"),
        "sim.scheduler.events_per_s": _ratio(_total(untraced, "sim_events"), reference_wall),
        "bench.loadgen_lag_ms_p99": 1e3 * percentile(run.lags, 99),
        "bench.trace_overhead_share": overhead,
        "bench.latency_samples": float(len(stages["latency"])),
    }
    out.update(_codec_replay(tracer))
    # What the stage medians leave unexplained is a layer of its own.
    out["stage.gap_ms"] = 1e3 * percentile(stages["latency"], 50) - sum(
        out[key] for key in ("stage.client_queue_ms", "stage.request_hop_ms",
                             "stage.order_ms", "stage.reply_hop_ms", "stage.vote_collect_ms"))
    return out
