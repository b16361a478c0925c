"""Per-peer TCP connections: dial-on-demand, backoff, batched sends.

One :class:`PeerManager` serves one replica.  It owns:

- a listening server (ephemeral port by default — port-collision-safe
  for CI) whose inbound streams are parsed by
  :class:`~repro.net.wire.FrameDecoder` and handed to the host's ingress
  callback;
- one :class:`PeerConnection` per remote process for *outbound* traffic.

Outbound design choices, all in service of the paper's fault model:

- **Dial-on-demand**: a connection attempt starts when the first frame
  for that peer is enqueued (or eagerly via :meth:`PeerManager.warm_up`).
- **Reconnect with exponential backoff + jitter**: a dead peer costs a
  bounded, de-synchronized dial rate instead of a thundering herd.
- **Bounded outbound queue, drop-oldest-rejected policy**: when the
  queue is full the new frame is *dropped and counted*.  A drop is an
  omission failure on that link — precisely what the failure detector
  suspects and Quorum Selection tolerates — so backpressure degrades
  into the protocol's own fault model instead of unbounded memory.

E27 adds the hot-path machinery on top — **deferred encoding +
batched, pipelined writes**: ``send`` enqueues ``(kind, payload)``; the
writer task encodes, coalesces frames per
:class:`~repro.net.batch.BatchPolicy`, and flushes one write (one batch
envelope under a single link-level HMAC) per batch.  Senders never wait
for a round trip — the next round's frames pile into the queue while
earlier batches are still in flight.

Frames already written to a socket that later dies are simply lost
(in-flight messages of a crashing link), again an omission.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.net.batch import MEMBER_OVERHEAD, BatchPolicy, WireStats
from repro.net.wire import (
    WIRE_V2,
    FrameDecoder,
    WireError,
    check_wire_version,
    encode_batch,
    frame_bytes,
    make_frame_encoder,
)

IngressHandler = Callable[[str, Any, int], None]


@dataclass(frozen=True)
class ReconnectPolicy:
    """Exponential backoff with jitter for redialing a peer."""

    initial_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25  # +/- fraction of the computed delay

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before reconnect ``attempt`` (0-based), jittered."""
        base = min(self.max_delay, self.initial_delay * (self.multiplier ** attempt))
        if self.jitter <= 0:
            return base
        spread = base * self.jitter
        return max(0.0, base + rng.uniform(-spread, spread))


@dataclass
class PeerStats:
    """Counters one manager accumulates; surfaced in node final reports."""

    frames_sent: int = 0
    frames_received: int = 0
    frames_dropped_backpressure: int = 0
    frames_malformed: int = 0
    frames_auth_rejected: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    dials: int = 0
    reconnects: int = 0
    connections_accepted: int = 0
    connections_dropped: int = 0
    send_errors: int = 0
    batches_sent: int = 0
    batches_received: int = 0
    batches_rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class PeerConnection:
    """Outbound side of one directed link ``self -> peer``."""

    def __init__(self, manager: "PeerManager", peer: int, addr: Tuple[str, int]) -> None:
        self.manager = manager
        self.peer = peer
        self.addr = addr
        self.stats = manager.stats
        self.policy = manager.policy
        self.rng = manager.rng
        # A plain deque + wake event instead of asyncio.Queue: enqueue is
        # the per-frame hot path, and a deque append costs a fraction of
        # the Queue's getter/putter bookkeeping.
        self.queue: Deque[Tuple[str, Any]] = deque()
        self._wake = asyncio.Event()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional[asyncio.Task] = None
        self.closed = False

    def enqueue(self, kind: str, payload: Any) -> bool:
        """Queue a frame; drop (and count) when the buffer is full.

        Encoding is deferred to the writer task: a dropped frame should
        not pay for bytes that will never reach a socket.
        """
        if self.closed:
            return False
        queue = self.queue
        if len(queue) >= self.manager.queue_capacity:
            self.stats.frames_dropped_backpressure += 1
            return False
        if not queue:
            # The writer only ever sleeps on an empty queue, so the
            # empty->nonempty edge is the only one that needs a wakeup.
            self._wake.set()
        queue.append((kind, payload))
        if self.task is None:  # _run clears it on every exit path
            self.task = asyncio.get_running_loop().create_task(self._run())
        return True

    @property
    def connected(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()

    async def _dial(self) -> bool:
        """One connect attempt; ``True`` when a writer is established."""
        host, port = self.addr
        self.stats.dials += 1
        try:
            _reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            return False
        self.writer = writer
        return True

    async def ensure_connected(self, deadline: Optional[float] = None) -> bool:
        """Dial (with backoff) until connected or ``deadline`` loop-time."""
        loop = asyncio.get_running_loop()
        attempt = 0
        while not self.closed:
            if self.connected or await self._dial():
                return True
            self.stats.reconnects += 1
            delay = self.policy.delay(attempt, self.rng)
            attempt += 1
            if deadline is not None and loop.time() + delay >= deadline:
                return False
            await asyncio.sleep(delay)
        return False

    async def _collect(self) -> List[bytes]:
        """Block for the first frame, then coalesce per the batch policy.

        The inner drain loop is the per-frame hot path, so the batch
        buffer is inlined (a list and a byte counter) and the encode
        histogram is fed one bulk sample per flush instead of one bisect
        per frame; :class:`~repro.net.batch.BatchBuffer` stays the
        reference (and unit-tested) statement of the same triggers.
        """
        queue = self.queue
        wake = self._wake
        while not queue:
            wake.clear()
            await wake.wait()
        manager = self.manager
        policy = manager.batch_policy
        encode = manager.encode_body
        max_frames = policy.max_frames
        max_bytes = policy.max_bytes
        bodies: List[bytes] = []
        nbytes = 0
        encode_seconds = 0.0
        loop = asyncio.get_running_loop()
        deadline = loop.time() + policy.max_delay
        while True:
            started = perf_counter()
            while queue:
                kind, payload = queue.popleft()
                try:
                    body = encode(kind, payload)
                except WireError:
                    self.stats.send_errors += 1
                    continue
                bodies.append(body)
                nbytes += len(body) + MEMBER_OVERHEAD
                if len(bodies) >= max_frames or nbytes >= max_bytes:
                    encode_seconds += perf_counter() - started
                    manager.wire_stats.record_encode_bulk(encode_seconds, len(bodies))
                    return bodies
            encode_seconds += perf_counter() - started
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            wake.clear()
            try:
                await asyncio.wait_for(wake.wait(), remaining)
            except asyncio.TimeoutError:
                break
        manager.wire_stats.record_encode_bulk(encode_seconds, len(bodies))
        return bodies

    async def _flush(self, bodies: List[bytes]) -> None:
        """One write (and at most one link MAC) for the whole batch."""
        assert self.writer is not None
        data: Optional[bytes] = None
        if len(bodies) > 1:
            try:
                data = encode_batch(bodies, self.manager.pid, auth=self.manager.batch_auth)
                self.stats.batches_sent += 1
            except WireError:
                data = None  # oversized envelope: fall back to plain frames
        if data is None:
            data = b"".join(frame_bytes(body) for body in bodies)
        self.writer.write(data)
        await self.writer.drain()
        self.stats.frames_sent += len(bodies)
        self.stats.bytes_sent += len(data)
        self.manager.wire_stats.record_flush(len(bodies))

    async def _run(self) -> None:
        """Writer loop: dial on demand, batch the queue, survive resets."""
        try:
            while not self.closed:
                if not self.connected and not await self.ensure_connected():
                    return
                try:
                    bodies = await self._collect()
                except (asyncio.CancelledError, RuntimeError):
                    return
                if not bodies:
                    continue
                try:
                    await self._flush(bodies)
                except (ConnectionError, OSError, asyncio.CancelledError):
                    # The batch is lost (omission on a dying link); redial
                    # for the next one rather than retrying this one —
                    # reliability above best-effort is the protocol's job,
                    # not the link's.
                    self.stats.send_errors += 1
                    self._drop_writer()
        finally:
            # Let the next enqueue respawn the loop (cheaper than a
            # liveness check on every enqueue).
            self.task = None

    def _drop_writer(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
            except Exception:
                pass
            self.writer = None

    async def close(self) -> None:
        self.closed = True
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):
                pass
            self.task = None
        self._drop_writer()


class PeerManager:
    """All connections of one replica: a server plus per-peer outbounds."""

    def __init__(
        self,
        pid: int,
        addresses: Optional[Dict[int, Tuple[str, int]]] = None,
        ingress: Optional[IngressHandler] = None,
        queue_capacity: int = 1024,
        policy: Optional[ReconnectPolicy] = None,
        rng_seed: Optional[int] = None,
        wire_version: int = WIRE_V2,
        batch_policy: Optional[BatchPolicy] = None,
        batch_auth: Optional[Any] = None,
    ) -> None:
        check_wire_version(wire_version)
        self.pid = pid
        self.addresses: Dict[int, Tuple[str, int]] = dict(addresses or {})
        self.ingress = ingress
        self.queue_capacity = queue_capacity
        self.policy = policy or ReconnectPolicy()
        # Seedable for reproducible backoff in tests; wall-clock runs can
        # leave it None for OS entropy.
        self.rng = random.Random(rng_seed)
        self.stats = PeerStats()
        self.batch_policy = batch_policy if batch_policy is not None else BatchPolicy()
        self.batch_auth = batch_auth
        self.wire_stats = WireStats()
        #: ``(kind, payload) -> body`` for every outbound link.
        self.encode_body = make_frame_encoder(pid)
        self._connections: Dict[int, PeerConnection] = {}
        self._enqueues: Dict[int, Callable[[str, Any], bool]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._reader_tasks: set = set()

    # -------------------------------------------------------------- serving

    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen for inbound peer streams; returns the bound address.

        ``port=0`` (the default) asks the OS for an ephemeral port — the
        collision-safe choice for parallel CI jobs.
        """
        self._server = await asyncio.start_server(self._serve, host, port)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.stats.connections_accepted += 1
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        # batch_auth is read through a provider per batch, so a host that
        # wires the authenticator up after this stream was accepted still
        # gets its batches verified.
        decoder = FrameDecoder(batch_auth_provider=lambda: self.batch_auth)
        seen_malformed = 0
        seen_batches = 0
        seen_rejected = 0
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                try:
                    frames = decoder.feed(chunk)
                except WireError:
                    # Framing desync: the stream is garbage from here on.
                    self.stats.connections_dropped += 1
                    return
                if decoder.malformed != seen_malformed:
                    self.stats.frames_malformed += decoder.malformed - seen_malformed
                    seen_malformed = decoder.malformed
                if decoder.batches_decoded != seen_batches:
                    self.stats.batches_received += decoder.batches_decoded - seen_batches
                    seen_batches = decoder.batches_decoded
                if decoder.batches_rejected != seen_rejected:
                    self.stats.batches_rejected += decoder.batches_rejected - seen_rejected
                    seen_rejected = decoder.batches_rejected
                self.stats.bytes_received += len(chunk)
                self.stats.frames_received += len(frames)
                ingress = self.ingress
                if ingress is not None:
                    for kind, payload, src in frames:
                        ingress(kind, payload, src)
        except (ConnectionError, asyncio.CancelledError, asyncio.IncompleteReadError):
            self.stats.connections_dropped += 1
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # ----------------------------------------------------------- outbound

    def connection(self, peer: int) -> PeerConnection:
        conn = self._connections.get(peer)
        if conn is None:
            addr = self.addresses.get(peer)
            if addr is None:
                raise KeyError(f"no address registered for peer {peer}")
            conn = PeerConnection(self, peer, addr)
            self._connections[peer] = conn
            self._enqueues[peer] = conn.enqueue
        return conn

    def send(self, dst: int, kind: str, payload: Any) -> bool:
        """Enqueue one frame for ``dst`` (dial-on-demand, deferred encode)."""
        enqueue = self._enqueues.get(dst)
        if enqueue is None:  # first frame for this peer: build the link
            enqueue = self.connection(dst).enqueue
        return enqueue(kind, payload)

    async def warm_up(
        self, timeout: float = 10.0, peers: Optional[Iterable[int]] = None
    ) -> bool:
        """Eagerly dial known peers; ``True`` if all connected.

        Used by the cluster harness as a start barrier: modules begin
        after the mesh is up, so the first heartbeats are not lost to
        dial latency and the failure detector starts from a connected
        world (the live analogue of GST already holding at t=0).
        Dial-on-demand still covers peers that come up later.

        ``peers`` restricts the eager dial to a subset (a service node
        warms only the replica mesh, not the client pids whose frames
        all route to one gateway); ``None`` dials every known address.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        targets = sorted(self.addresses) if peers is None else [
            peer for peer in sorted(peers) if peer in self.addresses
        ]
        results = await asyncio.gather(
            *(
                self.connection(peer).ensure_connected(deadline=deadline)
                for peer in targets
                if peer != self.pid
            ),
            return_exceptions=True,
        )
        return all(result is True for result in results)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        for task in list(self._reader_tasks):
            task.cancel()
        for conn in self._connections.values():
            await conn.close()
