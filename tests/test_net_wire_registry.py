"""The wire schema registry: one registration puts a message on the wire.

A message kind costs one ``@wire_message`` beside its dataclass — no
edit to ``repro.net.wire``.  The throw-away class below proves it end to
end (frame codec, stream decoder, batch envelope); the walk over
``SCHEMAS`` keeps every in-tree registration honest.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Any, Tuple

import pytest

from repro.core.messages import UpdatePayload
from repro.net.wire import (
    WIRE_V2,
    FrameDecoder,
    WireError,
    decode_frame_body,
    encode_batch,
    encode_frame,
    encode_frame_body,
    frame_bytes,
)
from repro.util.wire_schema import (
    INT,
    SCHEMAS,
    STR,
    VALUE,
    pair,
    register_kind_ids,
    tuple_of,
    value,
    wire_message,
)


@wire_message(
    0xF0,
    epoch=INT, label=STR, hops=tuple_of(pair(INT, STR)), body=value(tuple, type(None)), extra=VALUE,
)
@dataclasses.dataclass(frozen=True)
class Probe:
    epoch: int
    label: str
    hops: Tuple[Tuple[int, str], ...]
    body: Any
    extra: Any = None


PROBE = Probe(epoch=-(2 ** 70), label="né", hops=((1, "a"), (2, "b")), body=("x", (1,)),
              extra=UpdatePayload(row=(0, 1)))


@pytest.mark.parametrize("version", [WIRE_V2])
class TestOneRegistrationIsEnough:
    def test_frame_round_trip(self, version):
        body = encode_frame_body("test.probe", PROBE, 3, version=version)
        assert decode_frame_body(body) == ("test.probe", PROBE, 3)
        empty = Probe(epoch=0, label="", hops=(), body=None)
        body = encode_frame_body("test.probe", empty, 3, version=version)
        assert decode_frame_body(body) == ("test.probe", empty, 3)

    def test_stream_decoder_and_batch_envelope(self, version):
        bodies = [encode_frame_body("test.probe", PROBE, 2, version=version) for _ in range(3)]
        stream = frame_bytes(bodies[0]) + encode_batch(bodies[1:], 2)
        decoder = FrameDecoder()
        frames = []
        for offset in range(0, len(stream), 7):
            frames.extend(decoder.feed(stream[offset:offset + 7]))
        assert frames == [("test.probe", PROBE, 2)] * 3
        assert (decoder.malformed, decoder.batches_decoded) == (0, 1)

    def test_declared_kinds_are_enforced(self, version):
        for broken in (
            dataclasses.replace(PROBE, epoch=True),
            dataclasses.replace(PROBE, label=7),
            dataclasses.replace(PROBE, hops=((1, "a", "b"),)),
        ):
            with pytest.raises(WireError):
                encode_frame_body("test.probe", broken, 1, version=version)
        # ``body`` is checked where it matters: on the receiving side.
        sneaky = encode_frame_body(
            "test.probe", dataclasses.replace(PROBE, body=["list"]), 1, version=version
        )
        with pytest.raises(WireError):
            decode_frame_body(sneaky)

    def test_subclasses_encode_as_their_registered_base(self, version):
        """Exact-type dispatch falls back along the MRO, like isinstance did."""

        class Color(enum.IntEnum):
            RED = 7

        Point = collections.namedtuple("Point", "x y")

        class LoudProbe(Probe):
            pass

        loud = LoudProbe(epoch=1, label="", hops=(), body=None)
        sent = (Color.RED, Point(1, 2), collections.OrderedDict(a=1), loud)
        _, got, _ = decode_frame_body(encode_frame_body("k", sent, 1, version=version))
        assert got == (7, (1, 2), {"a": 1}, Probe(epoch=1, label="", hops=(), body=None))
        assert [type(item) for item in got] == [int, tuple, dict, Probe]


def test_unregistered_class_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Stranger:
        x: int

    with pytest.raises(WireError):
        encode_frame("k", Stranger(1), 1)


class TestRegistrationErrorsAreImportTimeErrors:
    def declare(self, tag, **fields):
        @wire_message(tag, **fields)
        @dataclasses.dataclass(frozen=True)
        class Late:
            x: int

        return Late

    def test_taken_tag_byte(self):
        with pytest.raises(ValueError):
            self.declare(0x0E, x=INT)  # UpdatePayload's
        with pytest.raises(ValueError):
            self.declare(0x07, x=INT)  # tuple's

    def test_fields_must_match_the_dataclass(self):
        with pytest.raises(TypeError):
            self.declare(0xF1, y=INT)
        with pytest.raises(TypeError):
            self.declare(0xF1)

    def test_taken_kind_or_id(self):
        with pytest.raises(ValueError):
            register_kind_ids({"test.fresh": 4})  # qs.update's id
        with pytest.raises(ValueError):
            register_kind_ids({"qs.update": 200})
        with pytest.raises(ValueError):
            register_kind_ids({"test.fresh": 0})  # 0 means "kind string inline"


def test_registry_walk():
    """Every registration carries a unique tag byte and names real fields."""
    assert len(SCHEMAS) >= 19
    tags = [schema.tag for schema in SCHEMAS.values()]
    assert len(set(tags)) == len(tags)
    for cls, schema in SCHEMAS.items():
        assert 0x0C <= schema.tag <= 0xFF, f"{cls.__name__} collides with the builtin tags"
        declared = [field.name for field in dataclasses.fields(cls)]
        assert list(schema.fields) == declared, cls.__name__
