"""E27 batch layer: flush policy, single-HMAC envelopes, omission drops.

Three layers of coverage:

- **Policy/buffer units** — the flush triggers (frame-count, byte, and
  time budgets) on the pure :class:`BatchBuffer`, with no sockets.
- **Envelope crypto** — one HMAC-SHA256 over the whole batch: tampering
  with *any* member byte kills every frame in the envelope, and the
  stream decoder counts the rejection instead of delivering.
- **End-to-end links** (marked ``net``) — real loopback TCP between two
  :class:`PeerManager`\\ s: batched sends deliver everything, a wrong
  link key drops whole batches, and queue overflow still degrades into
  counted omission faults, exactly the failure mode the protocol
  tolerates.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.core.messages import KIND_UPDATE, UpdatePayload
from repro.net.batch import (
    MEMBER_OVERHEAD,
    BatchAuthenticator,
    BatchBuffer,
    BatchPolicy,
    WireStats,
)
from repro.net.peer import PeerManager, ReconnectPolicy
from repro.net.wire import (
    BatchAuthError,
    FrameDecoder,
    WireError,
    encode_batch,
    encode_frame_body,
    split_batch_body,
)

_HDR_BATCH_SIZE = 6  # magic, flags, src:u16, count:u16
_LEN_SIZE = 4


def bodies_v2(count: int, src: int = 1):
    return [
        encode_frame_body("qs.update", UpdatePayload(row=(i, 0, 1)), src)
        for i in range(count)
    ]


# --------------------------------------------------------------- policy units


class TestBatchPolicy:
    def test_defaults_are_valid(self):
        policy = BatchPolicy()
        assert policy.max_frames >= 1 and policy.max_bytes >= 1
        assert policy.max_delay >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_frames": 0}, {"max_bytes": 0}, {"max_delay": -0.1}],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)

    def test_disabled_is_write_per_frame(self):
        policy = BatchPolicy.disabled()
        assert (policy.max_frames, policy.max_bytes, policy.max_delay) == (1, 1, 0.0)

    def test_as_dict_round_trips(self):
        policy = BatchPolicy(max_frames=7, max_bytes=512, max_delay=0.01)
        assert BatchPolicy(**policy.as_dict()) == policy


class TestBatchBufferTriggers:
    def test_flush_on_max_frames(self):
        buffer = BatchBuffer(BatchPolicy(max_frames=3, max_bytes=1 << 20, max_delay=9.0))
        for i in range(2):
            buffer.add(b"x" * 10, now=float(i))
            assert not buffer.full()
        buffer.add(b"x" * 10, now=2.0)
        assert buffer.full()

    def test_flush_on_max_bytes(self):
        buffer = BatchBuffer(BatchPolicy(max_frames=1000, max_bytes=64, max_delay=9.0))
        buffer.add(b"x" * 30, now=0.0)
        assert not buffer.full()
        buffer.add(b"x" * (64 - 30 - 2 * MEMBER_OVERHEAD), now=0.0)
        assert buffer.full()  # member overhead counts toward the budget

    def test_flush_on_time_budget(self):
        buffer = BatchBuffer(BatchPolicy(max_frames=1000, max_bytes=1 << 20, max_delay=0.5))
        assert buffer.deadline() is None and not buffer.expired(now=100.0)
        buffer.add(b"x", now=10.0)
        assert buffer.deadline() == 10.5
        assert not buffer.expired(now=10.49)
        assert buffer.expired(now=10.5)  # clock of the *oldest* frame rules

    def test_drain_resets_everything(self):
        buffer = BatchBuffer(BatchPolicy())
        buffer.add(b"a", now=1.0)
        buffer.add(b"b", now=2.0)
        assert buffer.drain() == [b"a", b"b"]
        assert len(buffer) == 0 and buffer.nbytes == 0
        assert buffer.deadline() is None


class TestWireStats:
    def test_record_encode_bulk_counts_each_sample(self):
        stats = WireStats()
        stats.record_encode_bulk(0.008, 4)
        assert stats.encode_count == 4
        assert stats.encode_seconds_sum == pytest.approx(0.008)
        assert sum(stats.encode_bucket_counts) == 4  # all 4 at the mean

    def test_record_encode_bulk_ignores_empty_flush(self):
        stats = WireStats()
        stats.record_encode_bulk(0.5, 0)
        assert stats.encode_count == 0 and stats.encode_seconds_sum == 0.0

    def test_record_flush_feeds_batch_histogram(self):
        stats = WireStats()
        stats.record_flush(5)
        stats.record_flush(128)
        assert stats.batch_flushes == 2
        assert stats.batch_frames_sum == 133
        assert sum(stats.batch_bucket_counts) == 2


# ------------------------------------------------------------ envelope crypto


class TestBatchEnvelope:
    def test_round_trip_without_auth(self):
        members = bodies_v2(3)
        envelope = encode_batch(members, src=1)
        src, out = split_batch_body(envelope[_LEN_SIZE:])
        assert src == 1 and out == members

    def test_round_trip_with_mac(self):
        registry = KeyRegistry(3)
        members = bodies_v2(4, src=2)
        envelope = encode_batch(members, src=2, auth=BatchAuthenticator(registry, 2))
        src, out = split_batch_body(
            envelope[_LEN_SIZE:], auth=BatchAuthenticator(registry, 1)
        )
        assert src == 2 and out == members

    def test_any_tampered_member_rejects_the_whole_batch(self):
        registry = KeyRegistry(3)
        members = bodies_v2(3)
        envelope = bytes(
            encode_batch(members, src=1, auth=BatchAuthenticator(registry, 1))
        )[_LEN_SIZE:]
        verifier = BatchAuthenticator(registry, 2)
        # Flip one byte inside every member's byte range in turn; the
        # single MAC covers all of them, so each flip kills the batch.
        pos = _HDR_BATCH_SIZE
        for member in members:
            member_start = pos + _LEN_SIZE
            tampered = bytearray(envelope)
            tampered[member_start + len(member) // 2] ^= 0x01
            with pytest.raises(BatchAuthError):
                split_batch_body(bytes(tampered), auth=verifier)
            pos = member_start + len(member)

    def test_missing_mac_rejected_when_auth_required(self):
        registry = KeyRegistry(3)
        envelope = encode_batch(bodies_v2(2), src=1)  # no MAC
        with pytest.raises(BatchAuthError):
            split_batch_body(envelope[_LEN_SIZE:], auth=BatchAuthenticator(registry, 2))

    def test_unknown_sender_key_rejected(self):
        registry = KeyRegistry(3)
        envelope = encode_batch(
            bodies_v2(2, src=3), src=3, auth=BatchAuthenticator(registry, 3)
        )
        # The receiver's registry does not know pid 3: no key, no trust.
        with pytest.raises(BatchAuthError):
            split_batch_body(
                envelope[_LEN_SIZE:], auth=BatchAuthenticator(KeyRegistry(2), 1)
            )

    def test_empty_and_garbage_envelopes_are_typed_errors(self):
        with pytest.raises(WireError):
            encode_batch([], src=1)
        with pytest.raises(WireError):
            split_batch_body(b"\x03\x00")  # truncated header
        with pytest.raises(WireError):
            split_batch_body(b"\x02" + b"\x00" * 8)  # not a batch magic

    def test_decoder_counts_rejected_batch_and_delivers_nothing(self):
        registry = KeyRegistry(3)
        members = bodies_v2(3)
        envelope = bytearray(
            encode_batch(members, src=1, auth=BatchAuthenticator(registry, 1))
        )
        envelope[-1] ^= 0xFF  # corrupt the MAC itself
        decoder = FrameDecoder(
            batch_auth_provider=lambda: BatchAuthenticator(registry, 2)
        )
        assert decoder.feed(bytes(envelope)) == []
        assert decoder.batches_rejected == 1 and decoder.batches_decoded == 0

        # The untampered envelope delivers every member through the same
        # decoder instance.
        frames = decoder.feed(encode_batch(members, src=1, auth=BatchAuthenticator(registry, 1)))
        assert len(frames) == 3 and decoder.batches_decoded == 1


# ------------------------------------------------------------ live loopback


async def _linked_pair(
    sender_auth=None,
    receiver_auth=None,
    expect: int = 0,
    **sender_kwargs,
):
    """Two managers, a ready event counting ``expect`` deliveries."""
    received = []
    done = asyncio.Event()

    def ingress(kind, payload, src):
        received.append((kind, payload, src))
        if len(received) >= expect:
            done.set()

    sender = PeerManager(1, rng_seed=1, batch_auth=sender_auth, **sender_kwargs)
    receiver = PeerManager(2, rng_seed=2, ingress=ingress, batch_auth=receiver_auth)
    addr = await receiver.start_server()
    sender.addresses = {2: addr}
    return sender, receiver, received, done


@pytest.mark.net
def test_batched_v2_send_delivers_everything():
    async def scenario():
        registry = KeyRegistry(2)
        sender, receiver, received, done = await _linked_pair(
            sender_auth=BatchAuthenticator(registry, 1),
            receiver_auth=BatchAuthenticator(registry, 2),
            expect=200,
        )
        await sender.warm_up(timeout=5.0)
        message = Authenticator(registry, 1).sign(UpdatePayload(row=(0, 1)))
        for _ in range(200):
            assert sender.send(2, KIND_UPDATE, message)
        await asyncio.wait_for(done.wait(), timeout=10.0)
        stats = (sender.stats, receiver.stats)
        await sender.close()
        await receiver.close()
        return received, stats

    received, (sent, recv) = asyncio.run(scenario())
    assert len(received) == 200
    assert sent.batches_sent >= 1  # coalescing actually happened
    assert recv.batches_received >= 1
    assert recv.batches_rejected == 0 and recv.frames_malformed == 0


@pytest.mark.net
def test_small_sends_flush_on_time_budget():
    """Frames far below every size budget must still leave within max_delay."""

    async def scenario():
        sender, receiver, received, done = await _linked_pair(expect=3)
        await sender.warm_up(timeout=5.0)
        for i in range(3):
            sender.send(2, "qs.update", (i,))
        await asyncio.wait_for(done.wait(), timeout=2.0)  # << any size budget
        await sender.close()
        await receiver.close()
        return received

    assert len(asyncio.run(scenario())) == 3


@pytest.mark.net
def test_wrong_link_key_drops_whole_batches_as_omissions():
    async def scenario():
        registry = KeyRegistry(2)
        sender, receiver, received, done = await _linked_pair(
            # Sender MACs with a key the receiver's registry disagrees on.
            sender_auth=BatchAuthenticator(KeyRegistry(2, system_nonce="evil"), 1),
            receiver_auth=BatchAuthenticator(registry, 2),
            expect=1,
        )
        await sender.warm_up(timeout=5.0)
        # All enqueued before the writer task runs: one envelope.
        for i in range(10):
            sender.send(2, "qs.update", (i,))
        await asyncio.sleep(0.5)
        stats = receiver.stats
        await sender.close()
        await receiver.close()
        return received, stats

    received, stats = asyncio.run(scenario())
    assert received == []  # the whole batch died with its MAC
    assert stats.batches_rejected >= 1
    assert stats.frames_received == 0


@pytest.mark.net
def test_queue_overflow_drops_count_as_omission_faults():
    async def scenario():
        manager = PeerManager(
            1,
            addresses={2: ("127.0.0.1", 1)},  # nothing listens here
            queue_capacity=3,
            policy=ReconnectPolicy(initial_delay=0.05, max_delay=0.1),
            rng_seed=0,
        )
        accepted = [manager.send(2, "qs.update", (i,)) for i in range(8)]
        await asyncio.sleep(0.05)
        await manager.close()
        return accepted, manager.stats

    accepted, stats = asyncio.run(scenario())
    assert accepted.count(True) == 3
    assert accepted.count(False) == 5
    assert stats.frames_dropped_backpressure == 5  # omissions, counted
