"""Wire codec: tagged-value round-trips and defensive frame parsing."""

from __future__ import annotations

import json
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
from repro.net.wire import (
    MAX_DEPTH,
    MAX_FRAME_BYTES,
    WIRE_V1,
    WIRE_V2,
    FrameDecoder,
    WireError,
    decode_frame_body,
    decode_value,
    encode_frame,
    encode_value,
)


def roundtrip(value):
    return decode_value(json.loads(json.dumps(encode_value(value))))


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
        encoded = encode_value(message)
        encoded["__signed__"][0]["__update__"][3] = 0  # flip the suspicion bit
        forged = decode_value(encoded)
        assert not Authenticator(registry, 1).verify(forged)

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireError):
            encode_value(object())

    def test_depth_limit_on_encode_and_decode(self):
        deep = (1,)
        for _ in range(MAX_DEPTH + 2):
            deep = (deep,)
        with pytest.raises(WireError):
            encode_value(deep)
        nested = {"__tuple__": []}
        for _ in range(MAX_DEPTH + 2):
            nested = {"__tuple__": [nested]}
        with pytest.raises(WireError):
            decode_value(nested)


class TestDecodeDefenses:
    @pytest.mark.parametrize(
        "garbage",
        [
            [1, 2, 3],  # bare arrays are not in the vocabulary
            {"__tuple__": [], "extra": 1},  # multi-key tag object
            {"__nope__": []},  # unknown tag
            {"__bytes__": "zz"},  # not hex
            {"__sig__": [1]},  # wrong arity
            {"__sig__": ["one", "ab"]},  # signer must be an int
            {"__sig__": [True, "ab"]},  # bool is not an int here
            {"__update__": [0, "x"]},  # row entries must be ints
            {"__followers__": [[1], [[1, 2, 3]], 0]},  # edges must be pairs
            {"__digest__": [0, [1]]},  # digests must be strings
            {"__signed__": [{"__update__": []}, {"__update__": []}]},  # sig slot
            {"__map__": [[1, 2, 3]]},  # map entries must be pairs
            {"__set__": [{"__list__": [1]}]},  # unhashable set member
            {"__frozenset__": [{"__list__": [1]}]},
            {"__map__": [[{"__list__": [1]}, 2]]},  # unhashable map key
        ],
    )
    def test_garbage_raises(self, garbage):
        with pytest.raises(WireError):
            decode_value(garbage)


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
        junk = b"this is not json"
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
            b'{"v":99,"k":"x","s":1,"p":null}',  # wrong version
            b'{"v":1,"k":"","s":1,"p":null}',  # empty kind
            b'{"v":1,"k":"x","s":0,"p":null}',  # src below 1
            b'{"v":1,"k":"x","s":true,"p":null}',  # src not an int
            b'{"v":1,"k":"x","s":1,"p":[1,2]}',  # bare array payload
            b"[1,2,3]",  # envelope not an object
        ],
    )
    def test_bad_envelope_counted_as_malformed(self, body):
        decoder = FrameDecoder()
        assert decoder.feed(struct.pack(">I", len(body)) + body) == []
        assert decoder.malformed == 1

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param('{"__set__":[{"__list__":[1]}]}', id="unhashable-set-member"),
            pytest.param('{"__frozenset__":[{"__list__":[1]}]}', id="unhashable-frozenset-member"),
            pytest.param('{"__map__":[[{"__list__":[1]},2]]}', id="unhashable-map-key"),
            # RecursionError inside json.loads, from a frame well under 1 MiB
            pytest.param("[" * 100_000, id="bracket-bomb"),
        ],
    )
    def test_untyped_decoder_failures_stay_typed_and_counted(self, payload):
        """One hostile V1 frame must not kill the reader or eat its neighbours."""
        body = ('{"v":1,"k":"x","s":2,"p":' + payload + "}").encode()
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


class TestV2Framing:
    """The binary codec behind the same framing and decoder."""

    def frame(self, kind="qs.update", payload=(1, 2), src=1):
        return encode_frame(kind, payload, src, version=WIRE_V2)

    def test_roundtrip(self):
        kind, payload, src = decode_frame_body(self.frame()[4:])
        assert (kind, payload, src) == ("qs.update", (1, 2), 1)

    def test_unlisted_kind_travels_inline(self):
        # Kinds outside the hot one-byte tag table carry the string.
        body = self.frame(kind="custom.experimental")[4:]
        assert decode_frame_body(body)[0] == "custom.experimental"

    def test_v2_is_smaller_than_v1_for_protocol_traffic(self):
        payload = UpdatePayload(row=(0, 0, 1, 0, 2))
        v1 = encode_frame("qs.update", payload, 1, version=WIRE_V1)
        v2 = encode_frame("qs.update", payload, 1, version=WIRE_V2)
        assert len(v2) < len(v1)

    def test_decoded_payload_type_identical_to_v1(self):
        payload = {"k": (1, 2), "s": frozenset({3}), "b": b"\x00\xff"}
        via_v1 = decode_frame_body(encode_frame("x", payload, 1)[4:])[1]
        via_v2 = decode_frame_body(self.frame(payload=payload)[4:])[1]
        assert via_v1 == via_v2 == payload
        assert type(via_v2["k"]) is tuple and type(via_v2["s"]) is frozenset

    def test_signed_update_survives_v2_and_verifies(self):
        registry = KeyRegistry(4)
        message = Authenticator(registry, 2).sign(UpdatePayload(row=(0, 0, 0, 1, 0)))
        decoded = decode_frame_body(self.frame(payload=message)[4:])[1]
        assert decoded == message
        assert Authenticator(registry, 1).verify(decoded)

    def test_stream_decoder_handles_mixed_codec_frames(self):
        data = (
            encode_frame("a", 1, 1, version=WIRE_V1)
            + encode_frame("b", 2, 2, version=WIRE_V2)
            + encode_frame("c", 3, 3, version=WIRE_V1)
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):  # one byte at a time
            frames.extend(decoder.feed(data[i : i + 1]))
        assert [f[0] for f in frames] == ["a", "b", "c"]
        assert decoder.malformed == 0

    def test_v2_frame_at_v1_only_decoder_counted_malformed(self):
        decoder = FrameDecoder(accept_versions=(WIRE_V1,))
        assert decoder.feed(self.frame()) == []
        assert decoder.malformed == 1

    @pytest.mark.parametrize("src", [0, -1, 0x10000])
    def test_src_outside_u16_rejected_at_encode(self, src):
        with pytest.raises(WireError):
            encode_frame("x", None, src, version=WIRE_V2)

    def test_truncated_v2_body_is_typed_error(self):
        body = self.frame(payload=(1, 2, 3))[4:]
        for cut in range(1, len(body)):
            with pytest.raises(WireError):
                decode_frame_body(body[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError):
            decode_frame_body(self.frame()[4:] + b"\x00")
