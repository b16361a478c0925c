"""In-memory span recorder and the wrappers that feed it.

``src/`` is not edited: spans are recorded from here, by replacing public
callables of each layer with timing wrappers (class attributes, two
module-level names, and the handlers passed to ``subscribe``).  Install
the wrappers before building a mesh or a world, because hosts keep bound
methods (``manager.ingress = self.ingress``) from construction time.

A span is ``(id, name, start, end, parent, request-id, attrs)`` with
times from ``time.monotonic()`` — the clock asyncio's loop uses, so span
times compare directly with the load generators' due and done times.
Every wrapped callable is synchronous and the loop is single-threaded,
so open spans form one stack; a layer's *self time* is its duration
minus the durations of the spans opened inside it.  Spans of one request
share the ``(client, sequence)`` id: a span that cannot name its own
request inherits the id of the span that caused it.

While ``Tracer.on`` is false a wrapper costs one attribute test, which is
how a traced run measures an untraced reference slice in the same
process (``bench.trace_overhead_share``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import quorum_selection
from repro.crypto.authenticator import Authenticator
from repro.fd.detector import FailureDetector
from repro.net import peer as net_peer
from repro.net.batch import BatchAuthenticator
from repro.net.host import NetHost
from repro.net.peer import PeerManager
from repro.net.timers import NetTimerService
from repro.net.wire import FrameDecoder
from repro.service.client import ServiceClient
from repro.service.kv import ServiceKVStore
from repro.sim.process import ProcessHost

Span = Tuple[int, str, float, float, int, Optional[Tuple[int, int]], Any]

#: Frames and suspect graphs kept for the cold replays in ``layers``.
SAMPLE_LIMIT = 4096


def request_id(payload: Any) -> Optional[Tuple[int, int]]:
    """``(client, sequence)`` of a signed request or reply, else ``None``."""
    body = getattr(payload, "payload", None)
    client = getattr(body, "client", None)
    if client is None:
        return None
    return (client, body.sequence)


class Tracer:
    """Span store plus the side tables the per-layer report needs."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[Span] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_id = 0
        #: Seconds each timer fired after it was due.
        self.timer_lateness: List[float] = []
        #: ``(kind, payload, src)`` of frames handed to the peer layer.
        self.frames: List[Tuple[str, Any, int]] = []
        self._frame_ids: set = set()
        #: ``(graph copy, q)`` of quorum searches.
        self.graphs: List[Tuple[Any, int]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def enter(self, name: str, rid: Any = None, attrs: Any = None) -> list:
        stack = self._stack
        parent = -1
        if stack:
            top = stack[-1]
            parent = top[0]
            if rid is None:
                rid = top[4]
        frame = [self._next_id, name, monotonic(), 0.0, rid, parent, attrs]
        self._next_id += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = monotonic()
        stack = self._stack
        stack.pop()
        sid, name, start, child_time, rid, parent, attrs = frame
        duration = end - start
        self.spans.append((sid, name, start, end, parent, rid, attrs))
        self.self_time[name] += duration - child_time
        self.calls[name] += 1
        if stack:
            stack[-1][3] += duration

    def self_us(self, *names: str) -> float:
        """Mean self time per call over the named spans, microseconds."""
        calls = sum(self.calls[name] for name in names)
        if not calls:
            return 0.0
        return 1e6 * sum(self.self_time[name] for name in names) / calls

    def write(self, path: Any) -> None:
        """One JSON line per span; called once, when the run is over."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, rid, attrs in self.spans:
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "request": rid, "attrs": attrs},
                    separators=(",", ":"),
                ))
                out.write("\n")

    # -------------------------------------------------------------- wrapping

    def _replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Optional[Callable[..., Tuple[Any, Any]]] = None,
    ) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``describe(*args)`` returns ``(request-id, attrs)`` for the call.
        """
        tracer = self

        def make(original: Any) -> Any:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.on:
                    return original(*args, **kwargs)
                rid, attrs = describe(*args) if describe is not None else (None, None)
                frame = tracer.enter(name, rid, attrs)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit(frame)

            traced.__wrapped__ = original
            return traced

        self._replace(owner, attr, make)

    def _wrap_subscribe(self, host_class: Any) -> None:
        tracer = self

        def make(original: Any) -> Any:
            def subscribe(host: Any, kind: str, handler: Any) -> None:
                name = "handler." + kind

                def traced(kind_: str, payload: Any, src: int) -> None:
                    if not tracer.on:
                        return handler(kind_, payload, src)
                    frame = tracer.enter(name, request_id(payload), (host.pid, src))
                    try:
                        return handler(kind_, payload, src)
                    finally:
                        tracer.exit(frame)

                original(host, kind, traced)

            return subscribe

        self._replace(host_class, "subscribe", make)

    def _wrap_peer_send(self) -> None:
        tracer = self

        def make(original: Any) -> Any:
            def send(manager: Any, dst: int, kind: str, payload: Any) -> bool:
                if not tracer.on:
                    return original(manager, dst, kind, payload)
                body = getattr(payload, "payload", None)
                slot = getattr(body, "slot", None)
                if slot is not None:  # a vote frame: tally it per decision
                    slot = (getattr(body, "view", None), getattr(body, "round", None), slot)
                batch = getattr(body, "signed_requests", None)
                carried = tuple(signed.payload.request_id() for signed in batch) if batch else None
                frame = tracer.enter(
                    "net.peer.send", request_id(payload), (manager.pid, dst, kind, slot, carried)
                )
                try:
                    return original(manager, dst, kind, payload)
                finally:
                    tracer.exit(frame)
                    if len(tracer.frames) < SAMPLE_LIMIT and id(payload) not in tracer._frame_ids:
                        tracer._frame_ids.add(id(payload))
                        tracer.frames.append((kind, payload, manager.pid))

            return send

        self._replace(PeerManager, "send", make)

    def _wrap_timers(self) -> None:
        tracer = self

        def make(original: Any) -> Any:
            def schedule(timers: Any, delay: float, action: Any, label: str = "") -> Any:
                if not tracer.on:
                    return original(timers, delay, action, label=label)
                due = monotonic() + delay

                def fired() -> None:
                    tracer.timer_lateness.append(monotonic() - due)
                    action()

                return original(timers, delay, fired, label=label)

            return schedule

        self._replace(NetTimerService, "schedule", make)

    def _wrap_quorum_search(self) -> None:
        tracer = self

        def make(original: Any) -> Any:
            def search(graph: Any, q: int, assume_exists: bool = False) -> Any:
                if not tracer.on:
                    return original(graph, q, assume_exists=assume_exists)
                if len(tracer.graphs) < SAMPLE_LIMIT:
                    tracer.graphs.append((graph.copy(), q))
                frame = tracer.enter("graphs.independent_set")
                try:
                    return original(graph, q, assume_exists=assume_exists)
                finally:
                    tracer.exit(frame)

            return search

        self._replace(quorum_selection, "lex_first_independent_set", make)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer report reads."""
        wrap = self.wrap
        wrap(Authenticator, "sign", "crypto.sign")
        wrap(Authenticator, "verify", "crypto.verify")
        wrap(BatchAuthenticator, "mac", "net.batch.mac")
        wrap(BatchAuthenticator, "verify", "net.batch.verify")
        wrap(net_peer, "encode_batch", "net.batch.encode")
        wrap(FrameDecoder, "feed", "net.wire.feed",
             lambda decoder, data: (None, len(data)))
        wrap(ServiceKVStore, "apply_request", "service.kv.apply",
             lambda kv, client, sequence, op: ((client, sequence), None))
        wrap(NetHost, "send", "net.host.send",
             lambda host, dst, kind, payload: (request_id(payload), (host.pid, dst, kind)))
        wrap(NetHost, "broadcast", "net.host.broadcast")
        wrap(NetHost, "ingress", "net.host.ingress",
             lambda host, kind, payload, src: (request_id(payload), (host.pid, src, kind)))
        wrap(ServiceClient, "submit", "service.client.submit",
             lambda client, op, callback=None: (
                 (client.client_id, client.next_sequence + client.queued), None))
        wrap(ServiceClient, "on_reply", "service.client.on_reply",
             lambda client, kind, payload, src: (request_id(payload), None))
        wrap(FailureDetector, "on_receive", "fd.on_receive")
        self._wrap_peer_send()
        self._wrap_timers()
        self._wrap_quorum_search()
        self._wrap_subscribe(NetHost)
        self._wrap_subscribe(ProcessHost)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
