"""Service client library: request ids, backoff retry, leader redirect.

A :class:`ServiceClient` is one *logical* client: it stamps every
operation with ``(client_id, sequence)``, keeps exactly one request
outstanding (FIFO queue behind it), sends to the replica it believes
leads (``leader_of`` its believed view, by the deployment's selector),
and accepts a result once ``f + 1`` replicas report the same value for
the same sequence.  On timeout it retransmits as a broadcast
with exponential backoff and learns the current view — hence the leader
— from the replies it gets back.

It runs on any :class:`repro.host.Host`, so the same class drives the
deterministic simulator (one :class:`~repro.sim.process.ProcessHost` per
client) and the live runtime, where a gateway host multiplexes many
logical clients over one socket endpoint (``subscribe=False``; the
gateway routes replies by ``reply.client`` — see
:mod:`repro.service.live`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.host import Module, TimerHandle
from repro.protocol.selector import make_selector
from repro.util.ids import ProcessId
from repro.xpaxos.messages import KIND_REPLY, KIND_REQUEST, ClientRequest, ReplyPayload

#: Completion callback: (op, result, latency).
CompletionCallback = Callable[[Tuple[Any, ...], Any, float], None]


class Completion(NamedTuple):
    """One completed request, as recorded by :attr:`ServiceClient.completed`.

    A named record rather than a bare tuple so phase-window slicing and
    cross-shard merging key off field names (``completed_at``,
    ``latency``) instead of positional indices.  Field order is the
    historical tuple layout, so positional consumers keep working.
    """

    sequence: int
    op: Tuple[Any, ...]
    result: Any
    latency: float
    completed_at: float
    view: int


class ServiceClient(Module):
    """One logical client of the replicated KV service."""

    def __init__(
        self,
        host,
        n: int,
        f: int,
        client_id: Optional[int] = None,
        authenticator=None,
        retry_timeout: float = 2.0,
        backoff: float = 2.0,
        max_retry_timeout: float = 30.0,
        subscribe: bool = True,
        leader_of: Optional[Callable[[int], ProcessId]] = None,
    ) -> None:
        super().__init__(host)
        self.n = n
        self.f = f
        self.client_id = host.pid if client_id is None else client_id
        self.authenticator = authenticator if authenticator is not None else host.authenticator
        self.retry_timeout = retry_timeout
        self.backoff = backoff
        self.max_retry_timeout = max_retry_timeout
        self._subscribe = subscribe
        #: view -> the replica that leads it, by the deployment's selector
        #: (default ``qs``'s mapping).
        self.leader_of = leader_of if leader_of is not None else make_selector("qs", n, f).leader_of
        self.believed_view = 0
        self.next_sequence = 0
        self.current: Optional[ClientRequest] = None
        self._signed_current: Optional[SignedMessage] = None
        self._current_callback: Optional[CompletionCallback] = None
        self._current_timeout = retry_timeout
        self._queue: Deque[Tuple[Tuple[Any, ...], Optional[CompletionCallback]]] = deque()
        self._votes: Dict[Any, set] = {}
        self._submitted_at = 0.0
        self._retry_timer: Optional[TimerHandle] = None
        #: Retries of the *current* request (resets on dispatch).
        self._retry_round = 0
        #: True once any valid reply has confirmed a serving view — the
        #: leader learned from it is worth one targeted retry before the
        #: n-fold broadcast escalation.
        self._leader_learned = False
        self.started_at = 0.0
        self.retries = 0
        self.completed: List[Completion] = []

    def start(self) -> None:
        self.started_at = self.host.now
        if self._subscribe:
            self.host.subscribe(KIND_REPLY, self.on_reply)

    # --------------------------------------------------------------- sending

    @property
    def idle(self) -> bool:
        return self.current is None and not self._queue

    @property
    def queued(self) -> int:
        return len(self._queue)

    def submit(self, op: Tuple[Any, ...], callback: Optional[CompletionCallback] = None) -> None:
        """Enqueue one operation; dispatches immediately when idle."""
        self._queue.append((tuple(op), callback))
        if self.current is None:
            self._dispatch_next()

    def _dispatch_next(self) -> None:
        self._cancel_retry()
        if not self._queue:
            self.current = None
            self._signed_current = None
            self._current_callback = None
            return
        op, callback = self._queue.popleft()
        self.current = ClientRequest(
            client=self.client_id, sequence=self.next_sequence, op=op
        )
        self.next_sequence += 1
        self._signed_current = self.authenticator.sign(self.current)
        self._current_callback = callback
        self._current_timeout = self.retry_timeout
        self._retry_round = 0
        self._votes = {}
        self._submitted_at = self.host.now
        self._send_current(broadcast=False)
        self._arm_retry()

    def _send_current(self, broadcast: bool) -> None:
        if self._signed_current is None:
            return
        if broadcast:
            for replica in range(1, self.n + 1):
                self.host.send(replica, KIND_REQUEST, self._signed_current)
        else:
            self.host.send(self.leader_of(self.believed_view), KIND_REQUEST, self._signed_current)

    def _arm_retry(self) -> None:
        self._cancel_retry()
        sequence = self.current.sequence if self.current is not None else None

        def retry() -> None:
            if self.current is None or self.current.sequence != sequence:
                return
            self.retries += 1
            # A leader learned from real replies earns one targeted
            # retry before escalating: broadcast-on-first-retry is n x
            # request amplification exactly when the system is loaded
            # (the usual reason a reply is late).  An unconfirmed view
            # (no reply ever seen) escalates immediately.
            leader_first = self._leader_learned and self._retry_round == 0
            self._retry_round += 1
            self.host.log.append(
                self.host.now, self.pid, "svc.client.retry",
                client=self.client_id, seq=sequence,
                broadcast=not leader_first,
            )
            self._send_current(broadcast=not leader_first)
            self._current_timeout = min(
                self._current_timeout * self.backoff, self.max_retry_timeout
            )
            self._arm_retry()

        self._retry_timer = self.host.set_timer(
            self._current_timeout, retry, label=f"svc-retry@c{self.client_id}"
        )

    def _cancel_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    # ------------------------------------------------------------- receiving

    def on_reply(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Handle one (possibly gateway-routed) signed reply."""
        if not isinstance(payload, SignedMessage) or not self.authenticator.verify(payload):
            return
        reply = payload.payload
        if not isinstance(reply, ReplyPayload) or reply.client != self.client_id:
            return
        if reply.replica != payload.signer:
            return
        self._leader_learned = True
        if reply.view > self.believed_view:
            self.believed_view = reply.view
        if self.current is None or reply.sequence != self.current.sequence:
            return
        try:
            votes = self._votes.setdefault(reply.result, set())
        except TypeError:
            return  # unhashable garbage result from a Byzantine replica
        votes.add(reply.replica)
        if len(votes) < self.f + 1:
            return
        latency = self.host.now - self._submitted_at
        op = self.current.op
        self.completed.append(
            Completion(self.current.sequence, op, reply.result, latency,
                       self.host.now, reply.view)
        )
        callback = self._current_callback
        self.current = None
        self._signed_current = None
        self._current_callback = None
        self._cancel_retry()
        # Dispatch before the callback: a callback that submits (the
        # closed-loop feeder) must enqueue behind the next dispatch, not
        # race a second _dispatch_next against it.
        self._dispatch_next()
        if callback is not None:
            callback(op, reply.result, latency)

    # ----------------------------------------------------------- diagnostics

    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(entry.latency for entry in self.completed) / len(self.completed)

    def throughput(self, until: Optional[float] = None) -> float:
        """Completed requests per time unit since this client started."""
        horizon = until if until is not None else self.host.now
        elapsed = horizon - self.started_at
        if elapsed <= 0:
            return 0.0
        count = sum(1 for entry in self.completed if entry.completed_at <= horizon)
        return count / elapsed
