"""Benchmark-owned load generators over the gateway's logical clients.

Both loops record every request as ``(due, done, view)`` in loop time.
``ServiceClient`` stamps latency at dispatch, not at submission, and
``LoadGenerator``'s ``schedule_every`` arrival clock drifts below its
nominal rate (171 req/s at ``rate=200`` in sizing); either would hide
the queueing a stall causes.  Here the open loop fires at absolute due
times ``t0 + k/rate`` and latency always runs from the due time.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional, Sequence

from repro.service.loadgen import Workload

KEYS = 1000
ZIPF_S = 1.1


class Request:
    """One offered request; ``done`` stays ``None`` until it completes."""

    __slots__ = ("client", "sequence", "due", "done", "view")

    def __init__(self, client: int, sequence: int, due: float) -> None:
        self.client = client
        self.sequence = sequence
        self.due = due
        self.done: Optional[float] = None
        self.view = 0

    @property
    def rid(self):
        return (self.client, self.sequence)


class Load:
    """Shared bookkeeping: submit one op, stamp its completion."""

    def __init__(self, clients: Sequence[Any], seed: int) -> None:
        self.loop = asyncio.get_running_loop()
        self.clients = list(clients)
        self.workload = Workload(seed=seed, keys=KEYS, zipf_s=ZIPF_S)
        self.requests: List[Request] = []
        self.completed = 0
        self.stopped = False

    def _submit(self, client: Any, due: float) -> None:
        # Sequences are consecutive per client and dispatched FIFO, so
        # the one this request will carry is known at submission.
        sequence = client.next_sequence + client.queued
        request = Request(client.client_id, sequence, due)
        self.requests.append(request)

        def completed(op: Any, result: Any, latency: float) -> None:
            request.done = self.loop.time()
            request.view = client.completed[-1].view
            self.completed += 1
            self._on_complete(client)

        client.submit(self.workload.next_op(), completed)

    def _on_complete(self, client: Any) -> None:
        pass

    def stop(self) -> None:
        self.stopped = True

    async def drain(self, timeout: float) -> None:
        """Wait until every offered request completed, at most ``timeout``."""
        deadline = self.loop.time() + timeout
        while self.completed < len(self.requests) and self.loop.time() < deadline:
            await asyncio.sleep(0.01)


class ClosedLoop(Load):
    """Every client keeps exactly one request outstanding, no think time."""

    def start(self) -> None:
        now = self.loop.time()
        for client in self.clients:
            self._submit(client, now)

    def _on_complete(self, client: Any) -> None:
        if not self.stopped:
            self._submit(client, self.loop.time())


class OpenLoop(Load):
    """Requests fall due at ``t0 + k/rate``, round-robin over the clients."""

    def __init__(self, clients: Sequence[Any], seed: int, rate: float) -> None:
        super().__init__(clients, seed)
        self.rate = rate
        self.t0 = 0.0
        self.offered = 0
        #: How late each arrival fired, seconds (generator lag).
        self.lags: List[float] = []

    def start(self) -> None:
        self.t0 = self.loop.time()
        self.loop.call_at(self.t0, self._fire)

    def _fire(self) -> None:
        if self.stopped:
            return
        now = self.loop.time()
        while True:
            due = self.t0 + self.offered / self.rate
            if due > now:
                break
            self.lags.append(now - due)
            self._submit(self.clients[self.offered % len(self.clients)], due)
            self.offered += 1
        self.loop.call_at(due, self._fire)
