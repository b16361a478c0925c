"""Wire codec: type-exact value round-trips and defensive frame parsing."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.messages import (
    FollowersPayload,
    MatrixDigestPayload,
    RowCertsPayload,
    UpdatePayload,
)
from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.net.peer import PeerManager
from repro.net.wire import (
    MAX_DEPTH,
    MAX_FRAME_BYTES,
    WIRE_V2,
    FrameDecoder,
    WireError,
    decode_frame_body,
    decode_value_v2,
    encode_frame,
    encode_frame_body,
    encode_value_v2,
    make_frame_encoder,
)
from repro.service.live import ClientGateway
from wire_golden import hand_built


def encode(value) -> bytes:
    buf = bytearray()
    encode_value_v2(buf, value, 0)
    return bytes(buf)


def decode(body: bytes):
    value, pos = decode_value_v2(body, 0, len(body), 0)
    assert pos == len(body)
    return value


def roundtrip(value):
    return decode(encode(value))


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -7,
            3.5,
            "hello",
            b"\x00\xff\x80",
            (1, 2, 3),
            [1, "two", 3.0],
            {"a": 1, 2: "b"},
            set(),
            {1, 2, 3},
            frozenset({4, 5}),
            ((1, (2, (3,))), [frozenset({6})]),
        ],
    )
    def test_type_exact(self, value):
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuple_stays_tuple_inside_containers(self):
        # Type identity matters: signatures recompute canonical bytes
        # from the decoded object, and tuple vs list changes them.
        decoded = roundtrip({"k": (1, 2)})
        assert isinstance(decoded["k"], tuple)

    @pytest.mark.parametrize(
        "payload",
        [
            UpdatePayload(row=(0, 0, 1, 0, 2)),
            FollowersPayload(followers=(2, 3), line_edges=((1, 2), (2, 3)), epoch=4),
            MatrixDigestPayload(epoch=1, row_digests=("", "ab", "cd")),
            RowCertsPayload(certs=(UpdatePayload(row=(0, 1)),)),
        ],
    )
    def test_protocol_payloads(self, payload):
        assert roundtrip(payload) == payload

    def test_signed_update_survives_and_verifies(self):
        registry = KeyRegistry(4)
        signer = Authenticator(registry, 2)
        message = signer.sign(UpdatePayload(row=(0, 0, 0, 1, 0)))
        decoded = roundtrip(message)
        assert decoded == message
        # The receiver rebuilds the envelope from the wire; the MAC must
        # still verify against the re-derived canonical encoding.
        assert Authenticator(registry, 1).verify(decoded)

    def test_tampered_signed_update_fails_verification(self):
        registry = KeyRegistry(4)
        message = Authenticator(registry, 2).sign(UpdatePayload(row=(0, 0, 0, 1, 0)))
        row = bytes([0x0E, 5, 0, 0, 0, 2, 0])  # UPDATE tag, count, zigzag cells
        body = encode(message)
        assert row in body
        forged = decode(body.replace(row, bytes([0x0E, 5, 0, 0, 0, 0, 0])))  # flip the bit
        assert not Authenticator(registry, 1).verify(forged)

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireError):
            encode(object())

    def test_depth_limit_on_encode_and_decode(self):
        deep = (1,)
        for _ in range(MAX_DEPTH + 2):
            deep = (deep,)
        with pytest.raises(WireError):
            encode(deep)
        nested = bytes([0x07, 0x01] * (MAX_DEPTH + 3) + [0x00])  # 1-tuples around None
        with pytest.raises(WireError):
            decode(nested)


class TestDecodeDefenses:
    @pytest.mark.parametrize(
        "garbage",
        [
            [0x5B],  # "[": not a type tag
            [0x07, 0x02, 0x00],  # tuple of two holding one item
            [0x7F],  # unregistered message tag
            [0x06, 0x05, 0x61],  # bytes length beyond the body
            [0x0D, 0x04],  # signature without its tag field
            [0x0D] + [0xFF] * 200,  # signer varint too long
            [0x0C, 0x00, 0x01],  # signature slot holds a bool
            [0x0E, 0x02, 0x00],  # row of two cells holding one
            [0x0F, 0x01, 0x02, 0x01, 0x02],  # line edge with one end
            [0x10, 0x00, 0x01, 0x02, 0xC3, 0x28],  # digest is not UTF-8
            [0x0C, 0x00, 0x0E, 0x00],  # signature slot holds an UPDATE
            [0x0B, 0x01, 0x03, 0x02],  # map entry without its value
            [0x09, 0x01, 0x08, 0x00],  # unhashable set member
            [0x0A, 0x01, 0x08, 0x00],
            [0x0B, 0x01, 0x08, 0x00, 0x03, 0x04],  # unhashable map key
        ],
    )
    def test_garbage_raises(self, garbage):
        with pytest.raises(WireError):
            decode_frame_body(hand_built("k", 1, garbage))


class TestFraming:
    def frame(self, kind="qs.update", payload=(1, 2), src=1):
        return encode_frame(kind, payload, src)

    def test_roundtrip(self):
        body = self.frame()[4:]
        kind, payload, src = decode_frame_body(body)
        assert (kind, payload, src) == ("qs.update", (1, 2), 1)

    def test_decoder_handles_partial_feeds(self):
        data = self.frame() + self.frame(kind="heartbeat", payload=None, src=2)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):  # one byte at a time
            frames.extend(decoder.feed(data[i : i + 1]))
        assert [f[0] for f in frames] == ["qs.update", "heartbeat"]
        assert decoder.malformed == 0

    def test_decoder_handles_coalesced_frames(self):
        data = b"".join(self.frame(src=s) for s in (1, 2, 3))
        assert [f[2] for f in FrameDecoder().feed(data)] == [1, 2, 3]

    def test_malformed_frame_skipped_and_counted(self):
        junk = b"this is not a frame"
        data = (
            self.frame(src=1)
            + struct.pack(">I", len(junk))
            + junk
            + self.frame(src=3)
        )
        decoder = FrameDecoder()
        frames = decoder.feed(data)
        assert [f[2] for f in frames] == [1, 3]  # resynced past the bad frame
        assert decoder.malformed == 1

    @pytest.mark.parametrize(
        "body",
        [
            b'{"v":99,"k":"x","s":1,"p":null}',
            b'{"v":1,"k":"","s":1,"p":null}',
            b'{"v":1,"k":"x","s":0,"p":null}',
            b'{"v":1,"k":"x","s":true,"p":null}',
            b'{"v":1,"k":"x","s":1,"p":[1,2]}',
            b"[1,2,3]",
        ],
    )
    def test_bad_envelope_counted_as_malformed(self, body):
        """A JSON body (an old peer's frame) opens with neither 0x02 nor 0x03."""
        with pytest.raises(WireError):
            decode_frame_body(body)
        decoder = FrameDecoder()
        assert decoder.feed(struct.pack(">I", len(body)) + body) == []
        assert decoder.malformed == 1

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param([0x09, 0x01, 0x08, 0x00], id="unhashable-set-member"),
            pytest.param([0x0A, 0x01, 0x08, 0x00], id="unhashable-frozenset-member"),
            pytest.param([0x0B, 0x01, 0x08, 0x00, 0x03, 0x02], id="unhashable-map-key"),
            # 1-tuples nested 100 000 deep, from a frame well under 1 MiB
            pytest.param([0x07, 0x01] * 100_000 + [0x00], id="bracket-bomb"),
        ],
    )
    def test_untyped_decoder_failures_stay_typed_and_counted(self, payload):
        """One hostile frame must not kill the reader or eat its neighbours."""
        body = hand_built("x", 2, payload)
        with pytest.raises(WireError):
            decode_frame_body(body)
        decoder = FrameDecoder()
        data = self.frame(src=1) + struct.pack(">I", len(body)) + body + self.frame(src=3)
        assert [f[2] for f in decoder.feed(data)] == [1, 3]
        assert decoder.malformed == 1

    def test_oversized_length_prefix_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(WireError):
            encode_frame("x", "a" * (MAX_FRAME_BYTES + 1), 1)

    def test_oversized_payload_rejected_on_every_encode(self):
        """The frame cap holds for a payload object the memo has seen."""
        payload = "a" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError):
            encode_frame_body("x", payload, 1)
        with pytest.raises(WireError):
            encode_frame_body("x", payload, 1)
        with pytest.raises(WireError):
            make_frame_encoder(1)("x", payload)

    @pytest.mark.net
    def test_oversized_broadcast_fails_per_link_without_dropping_any(self):
        """Every link refuses the frame at encode; no receiver desyncs."""

        async def scenario():
            received = {pid: [] for pid in (2, 3, 4)}
            receivers = [
                PeerManager(
                    pid, rng_seed=pid,
                    ingress=lambda kind, payload, src, pid=pid: received[pid].append(kind),
                )
                for pid in received
            ]
            addresses = {m.pid: await m.start_server() for m in receivers}
            sender = PeerManager(1, addresses=addresses, rng_seed=1)
            assert await sender.warm_up(timeout=5.0)
            oversized = "a" * (MAX_FRAME_BYTES + 1)
            for pid in received:
                sender.send(pid, "big", oversized)
            await asyncio.sleep(0.2)
            for pid in received:
                sender.send(pid, "ok", None)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while not all(received.values()) and loop.time() < deadline:
                await asyncio.sleep(0.02)
            # Read before closing: cancelling a reader counts as a drop.
            dropped = [m.stats.connections_dropped for m in receivers]
            malformed = [m.stats.frames_malformed for m in receivers]
            await sender.close()
            for manager in receivers:
                await manager.close()
            return received, sender.stats.send_errors, dropped, malformed

        received, send_errors, dropped, malformed = asyncio.run(scenario())
        assert send_errors == 3
        assert received == {2: ["ok"], 3: ["ok"], 4: ["ok"]}
        assert dropped == [0, 0, 0]
        assert malformed == [0, 0, 0]


class TestV2Framing:
    """The binary frame layout: header, kind ids, source range, strictness."""

    def frame(self, kind="qs.update", payload=(1, 2), src=1):
        return encode_frame(kind, payload, src)

    def test_roundtrip(self):
        kind, payload, src = decode_frame_body(self.frame()[4:])
        assert (kind, payload, src) == ("qs.update", (1, 2), 1)

    def test_unlisted_kind_travels_inline(self):
        # Kinds outside the hot one-byte tag table carry the string.
        body = self.frame(kind="custom.experimental")[4:]
        assert decode_frame_body(body)[0] == "custom.experimental"

    def test_signed_update_survives_v2_and_verifies(self):
        registry = KeyRegistry(4)
        message = Authenticator(registry, 2).sign(UpdatePayload(row=(0, 0, 0, 1, 0)))
        decoded = decode_frame_body(self.frame(payload=message)[4:])[1]
        assert decoded == message
        assert Authenticator(registry, 1).verify(decoded)

    def test_only_wire_v2_is_accepted(self):
        assert decode_frame_body(encode_frame_body("x", 1, 1, WIRE_V2)) == ("x", 1, 1)
        for version in (1, 3):
            with pytest.raises(WireError):
                encode_frame_body("x", 1, 1, version)
            with pytest.raises(WireError):
                PeerManager(1, wire_version=version)
            with pytest.raises(WireError):
                ClientGateway(4, 1, 1, wire_version=version)

    @pytest.mark.parametrize("src", [0, -1, 0x10000])
    def test_src_outside_u16_rejected_at_encode(self, src):
        with pytest.raises(WireError):
            encode_frame("x", None, src)

    def test_truncated_v2_body_is_typed_error(self):
        body = self.frame(payload=(1, 2, 3))[4:]
        for cut in range(1, len(body)):
            with pytest.raises(WireError):
                decode_frame_body(body[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError):
            decode_frame_body(self.frame()[4:] + b"\x00")
