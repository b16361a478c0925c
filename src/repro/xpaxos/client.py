"""Closed-loop XPaxos client.

A client occupies a process id above the replica range, signs its
requests, sends each to the replica it believes leads — the leader the
system's selector assigns to the view it last heard of — and accepts a
result once ``f + 1`` replicas reported the same value for the same
request (with ``n = 2f + 1`` that is the whole active quorum).  On
timeout it retransmits as a broadcast to every replica — replicas forward
to their current leader — and learns the current view from replies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.host import Host, Module, TimerHandle
from repro.util.ids import ProcessId
from repro.xpaxos.messages import KIND_REPLY, KIND_REQUEST, ClientRequest, ReplyPayload


class XPaxosClient(Module):
    """Submits ``ops`` one at a time; records per-request latency."""

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        ops: Sequence[Tuple[Any, ...]],
        leader_of: Callable[[int], ProcessId],
        retry_timeout: float = 20.0,
        think_time: float = 0.0,
    ) -> None:
        super().__init__(host)
        self.n = n
        self.f = f
        self.ops: List[Tuple[Any, ...]] = list(ops)
        #: View -> leader under the system's selector.
        self.leader_of = leader_of
        self.retry_timeout = retry_timeout
        self.think_time = think_time
        self.believed_view = 0
        self.next_sequence = 0
        self.current: Optional[ClientRequest] = None
        self._votes: Dict[Any, set] = {}
        self._sent_at = 0.0
        self._retry_timer: Optional[TimerHandle] = None
        self.started_at = 0.0
        # Results: (sequence, op, result, latency, completion_time).
        self.completed: List[Tuple[int, Tuple[Any, ...], Any, float, float]] = []

    def start(self) -> None:
        self.started_at = self.host.now
        self.host.subscribe(KIND_REPLY, self._on_reply)
        self._next_request()

    # --------------------------------------------------------------- sending

    @property
    def done(self) -> bool:
        return self.current is None and not self.ops

    def _next_request(self) -> None:
        self._cancel_retry()
        if not self.ops:
            self.current = None
            return
        op = self.ops.pop(0)
        self.current = ClientRequest(client=self.pid, sequence=self.next_sequence, op=op)
        self.next_sequence += 1
        self._votes = {}
        self._sent_at = self.host.now
        self._send_current(broadcast=False)
        self._arm_retry(self.current.sequence)

    def _send_current(self, broadcast: bool) -> None:
        if self.current is None:
            return
        signed = self.host.authenticator.sign(self.current)
        if broadcast:
            for replica in range(1, self.n + 1):
                self.host.send(replica, KIND_REQUEST, signed)
        else:
            self.host.send(self.leader_of(self.believed_view), KIND_REQUEST, signed)

    def _arm_retry(self, sequence: int) -> None:
        # One live timer chain at a time: superseded chains are cancelled so a
        # long run never accumulates no-op timers in the scheduler heap.
        self._cancel_retry()

        def retry() -> None:
            if self.current is not None and self.current.sequence == sequence:
                self.host.log.append(self.host.now, self.pid, "client.retry", seq=sequence)
                self._send_current(broadcast=True)
                self._arm_retry(sequence)

        self._retry_timer = self.host.set_timer(
            self.retry_timeout, retry, label=f"client-retry@p{self.pid}"
        )

    def _cancel_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    # -------------------------------------------------------------- receiving

    def _on_reply(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        reply = payload.payload
        if not isinstance(reply, ReplyPayload) or reply.client != self.pid:
            return
        if reply.replica != payload.signer:
            return
        if reply.view > self.believed_view:
            self.believed_view = reply.view
        if self.current is None or reply.sequence != self.current.sequence:
            return
        votes = self._votes.setdefault(reply.result, set())
        votes.add(reply.replica)
        if len(votes) >= self.f + 1:
            latency = self.host.now - self._sent_at
            self.completed.append(
                (self.current.sequence, self.current.op, reply.result, latency, self.host.now)
            )
            self.host.log.append(
                self.host.now, self.pid, "client.done",
                seq=self.current.sequence, latency=round(latency, 4),
            )
            self.current = None
            self._cancel_retry()
            if self.think_time > 0:
                self.host.set_timer(self.think_time, self._next_request, label="client-think")
            else:
                self._next_request()

    # ------------------------------------------------------------ diagnostics

    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(entry[3] for entry in self.completed) / len(self.completed)

    def throughput(self, until: Optional[float] = None) -> float:
        """Completed requests per time unit between client start and ``until``.

        The window opens at ``started_at`` (when :meth:`start` ran), not at
        t=0, so clients joining a long-running system report their own rate
        rather than one diluted by time they were not alive.
        """
        horizon = until if until is not None else self.host.now
        elapsed = horizon - self.started_at
        if elapsed <= 0:
            return 0.0
        count = sum(1 for entry in self.completed if entry[4] <= horizon)
        return count / elapsed
