"""Fuzz tier: the wire codec under random payloads and random corruption.

Two guarantees, both load-bearing for the live runtime:

1. **Type-identical round-trip.**  Signature verification re-derives the
   canonical encoding from the *decoded* payload, so a tuple that came
   back as a list (or an int that came back as a bool) would silently
   reject every valid signature.  Random payloads drawn from the full
   wire vocabulary must decode to objects of exactly the same types, and
   signed envelopes must still verify after the trip.

2. **Typed failure under corruption.**  Anything a Byzantine peer or a
   broken link can put on a socket must surface as :class:`WireError`
   (or be silently skipped-and-counted by the stream decoder) — never as
   a ``KeyError``/``TypeError``/``RecursionError`` escaping into the
   receive loop.

Seeds come from ``REPRO_PROP_SEEDS`` (default ``3,7,11``); randomness is
:mod:`repro.util.rand` only.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.messages import (
    FollowersPayload,
    MatrixDigestPayload,
    RowCertsPayload,
    UpdatePayload,
)
from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.crypto.keys import KeyRegistry
from repro.net.wire import (
    MAGIC_BATCH,
    MAGIC_V2,
    WIRE_V2,
    FrameDecoder,
    WireError,
    decode_frame_body,
    encode_frame_body,
    frame_bytes,
)
from repro.util.rand import DeterministicRng, make_rng
from wire_golden import assert_type_identical

pytestmark = pytest.mark.props

N = 5
SEEDS = [
    int(chunk)
    for chunk in os.environ.get("REPRO_PROP_SEEDS", "3,7,11").split(",")
    if chunk.strip()
]

_REGISTRY = KeyRegistry(N)
_AUTH = {pid: Authenticator(_REGISTRY, pid) for pid in range(1, N + 1)}


def random_scalar(rng: DeterministicRng):
    kind = rng.randint(0, 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.coin(0.5)
    if kind == 2:
        return rng.randint(-(2 ** 40), 2 ** 40)
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    if kind == 4:
        return "".join(rng.choice("abc é☃{}\"\\") for _ in range(rng.randint(0, 12)))
    return bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 16)))


def random_value(rng: DeterministicRng, depth: int = 0):
    """A random payload from the full wire vocabulary, bounded depth."""
    if depth >= 3 or rng.coin(0.4):
        return random_scalar(rng)
    kind = rng.randint(0, 7)
    size = rng.randint(0, 4)
    if kind == 0:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    if kind == 1:
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 2 or kind == 3:
        items = {rng.randint(0, 2 ** 20) for _ in range(size)}
        return frozenset(items) if kind == 3 else items
    if kind == 4:
        return {random_scalar(rng) if rng.coin(0.5) else rng.randint(0, 99):
                random_value(rng, depth + 1) for _ in range(size)}
    if kind == 5:
        return random_protocol_payload(rng)
    # Signed envelope around a nested payload — the hot case in practice.
    signer = rng.randint(1, N)
    return _AUTH[signer].sign(random_value(rng, depth + 1))


def random_protocol_payload(rng: DeterministicRng):
    kind = rng.randint(0, 3)
    if kind == 0:
        return UpdatePayload(row=tuple(rng.randint(0, 9) for _ in range(N + 1)))
    if kind == 1:
        return FollowersPayload(
            followers=tuple(sorted({rng.randint(1, N) for _ in range(3)})),
            line_edges=tuple(
                (rng.randint(1, N), rng.randint(1, N)) for _ in range(rng.randint(0, 3))
            ),
            epoch=rng.randint(1, 9),
        )
    if kind == 2:
        return MatrixDigestPayload(
            epoch=rng.randint(1, 9),
            row_digests=tuple(f"{rng.randint(0, 2 ** 32):08x}" for _ in range(N + 1)),
        )
    signer = rng.randint(1, N)
    return RowCertsPayload(
        certs=tuple(
            _AUTH[signer].sign(UpdatePayload(row=tuple(rng.randint(0, 9) for _ in range(N + 1))))
            for _ in range(rng.randint(1, 2))
        )
    )


def random_frames(rng: DeterministicRng, count: int, version: int = WIRE_V2):
    """``count`` random valid (kind, payload, src, frame-bytes) tuples.

    The kind pool deliberately mixes hot kinds (one-byte kind tags) with
    ``"k"`` (inline kind string), so both header shapes fuzz.
    """
    frames = []
    for i in range(count):
        item = rng.child(i)
        kind = item.choice(["qs.update", "heartbeat", "fd.ping", "xp.prepare", "k"])
        payload = random_value(item)
        src = item.randint(1, N)
        frames.append(
            (kind, payload, src, frame_bytes(encode_frame_body(kind, payload, src, version)))
        )
    return frames


@pytest.mark.parametrize("version", [WIRE_V2])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_frames_round_trip_type_identically(seed, version):
    rng = make_rng(seed).child("roundtrip")
    signed_seen = 0
    for kind, payload, src, frame in random_frames(rng, 60, version=version):
        decoded_kind, decoded_payload, decoded_src = decode_frame_body(frame[4:])
        assert (decoded_kind, decoded_src) == (kind, src)
        assert_type_identical(payload, decoded_payload)
        if isinstance(payload, SignedMessage):
            signed_seen += 1
            # The decoded envelope must still verify: canonical encoding
            # survived the trip bit-for-bit.
            assert _AUTH[1].verify(decoded_payload)
    assert signed_seen > 0  # the generator must actually cover envelopes


@pytest.mark.parametrize("version", [WIRE_V2])
@pytest.mark.parametrize("seed", SEEDS)
def test_byte_mutations_raise_only_wire_errors(seed, version):
    rng = make_rng(seed).child("mutate")
    for kind, payload, src, frame in random_frames(rng, 25, version=version):
        body = frame[4:]
        for trial in range(8):
            mrng = rng.child(kind, trial, len(body))
            mutated = bytearray(body)
            for _ in range(mrng.randint(1, 6)):
                mutated[mrng.randint(0, len(mutated) - 1)] = mrng.randint(0, 255)
            truncated = bytes(mutated[: mrng.randint(0, len(mutated))])
            for candidate in (bytes(mutated), truncated):
                try:
                    decode_frame_body(candidate)
                except WireError:
                    pass  # the typed, expected failure
                except Exception as exc:  # noqa: BLE001 - the property under test
                    pytest.fail(
                        f"seed={seed}: {type(exc).__name__} leaked from decoder: {exc!r}"
                    )


@pytest.mark.parametrize("version", [WIRE_V2])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_decoder_survives_corrupt_streams(seed, version):
    rng = make_rng(seed).child("stream")
    for trial in range(15):
        trial_rng = rng.child(trial)
        frames = random_frames(
            trial_rng.child("gen"), trial_rng.randint(2, 6), version=version
        )
        stream = bytearray(b"".join(frame for _, _, _, frame in frames))

        # Clean stream in random-sized chunks: every frame decodes.
        decoder = FrameDecoder()
        got = []
        cursor = 0
        while cursor < len(stream):
            step = trial_rng.randint(1, 64)
            got.extend(decoder.feed(bytes(stream[cursor:cursor + step])))
            cursor += step
        assert len(got) == len(frames) and decoder.malformed == 0

        # Corrupted copy: flips may hit bodies (skipped + counted) or
        # length prefixes (typed WireError ending the stream) — nothing
        # else may escape, and progress is bounded by the input.
        corrupt = bytearray(stream)
        for _ in range(trial_rng.randint(1, 10)):
            corrupt[trial_rng.randint(0, len(corrupt) - 1)] = trial_rng.randint(0, 255)
        decoder = FrameDecoder()
        decoded = 0
        cursor = 0
        try:
            while cursor < len(corrupt):
                step = trial_rng.randint(1, 64)
                decoded += len(decoder.feed(bytes(corrupt[cursor:cursor + step])))
                cursor += step
        except WireError:
            pass  # framing violation: connection drop, the documented response
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail(f"seed={seed}: stream loop leaked {type(exc).__name__}: {exc!r}")
        # Corruption can only lose frames, never mint valid ones.
        assert decoded <= len(frames)


# ------------------------------------------------------ foreign body fuzz
# A body must open with 0x02 (frame) or 0x03 (batch).  Anything else —
# a tagged-JSON frame or hello from an old peer, or plain garbage — is a
# typed error that costs exactly itself: counted malformed, never
# delivered, and the length prefix keeps the stream in sync.

_JSON_SCALARS = [None, True, False, 0, -1, 2 ** 70, 1.5, "", "ab", "__tuple__"]


def random_json(rng: DeterministicRng, depth: int = 0):
    roll = rng.randint(0, 9)
    if depth >= 4 or roll <= 3:
        return rng.choice(_JSON_SCALARS)
    children = [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if roll <= 6:
        return children
    return {rng.choice(["__tuple__", "__set__", "__map__", "k"]): children}


def foreign_body(rng: DeterministicRng) -> bytes:
    roll = rng.randint(0, 3)
    if roll == 0:
        return b'{"v":1,"k":"wire.hello","s":1,"p":{"max":2}}'
    if roll == 1:
        return json.dumps({"v": 1, "k": "k", "s": 1, "p": random_json(rng)}).encode()
    if roll == 2:
        return json.dumps(random_json(rng)).encode()
    garbage = bytearray(rng.randint(0, 255) for _ in range(rng.randint(1, 40)))
    while garbage[0] in (MAGIC_V2, MAGIC_BATCH):
        garbage[0] = rng.randint(0, 255)
    return bytes(garbage)


@pytest.mark.parametrize("seed", SEEDS)
def test_foreign_bodies_counted_malformed_without_desync(seed):
    rng = make_rng(seed).child("foreign")
    frames = random_frames(rng.child("valid"), 60)
    stream = bytearray()
    for index, (_kind, _payload, _src, frame) in enumerate(frames):
        body = foreign_body(rng.child(index))
        with pytest.raises(WireError):
            decode_frame_body(body)
        stream += frame_bytes(body) + frame

    decoder = FrameDecoder()
    got = []
    cursor = 0
    while cursor < len(stream):
        step = rng.randint(1, 512)
        got.extend(decoder.feed(bytes(stream[cursor:cursor + step])))
        cursor += step
    assert [(kind, src) for kind, _, src in got] == [
        (kind, src) for kind, _, src, _ in frames
    ]
    assert decoder.malformed == len(frames)


# -------------------------------------------------------------- adversary
# E28 hardening: the exact artifacts the adversary engine broadcasts —
# equivocating signed UPDATE pairs and forged garbage rows — must travel
# the wire type-identically, keep verifying afterwards, and fail as
# WireError (never anything else) once tampered with.


@pytest.mark.parametrize("version", [WIRE_V2])
@pytest.mark.parametrize("seed", SEEDS)
def test_equivocating_update_pairs_survive_the_wire(seed, version):
    rng = make_rng(seed).child("equivocate")
    for trial in range(20):
        item = rng.child(trial)
        signer = item.randint(1, N)
        base = [item.randint(0, 9) for _ in range(N + 1)]
        variant_a, variant_b = list(base), list(base)
        victim_a = item.randint(1, N)
        victim_b = 1 + victim_a % N
        variant_a[victim_a] += item.randint(1, 5)
        variant_b[victim_b] += item.randint(1, 5)
        pair = [
            _AUTH[signer].sign(UpdatePayload(row=tuple(variant_a))),
            _AUTH[signer].sign(UpdatePayload(row=tuple(variant_b))),
        ]
        for signed in pair:
            body = encode_frame_body("qs.update", signed, signer, version)
            _, decoded, _ = decode_frame_body(body)
            assert_type_identical(signed, decoded)
            # Both halves of the equivocation verify independently: the
            # codec cannot tell a lie from the truth, only alteration.
            assert _AUTH[1].verify(decoded)
            assert decoded.signature.signer == signer
        # The two decoded rows genuinely conflict.
        frames = [
            decode_frame_body(encode_frame_body("qs.update", s, signer, version))[1]
            for s in pair
        ]
        assert frames[0].payload.row != frames[1].payload.row


@pytest.mark.parametrize("version", [WIRE_V2])
@pytest.mark.parametrize("seed", SEEDS)
def test_forged_garbage_rows_fail_typed_or_round_trip(seed, version):
    """The codec splits the engine's forged rows at the type boundary:
    all-int garbage (wrong arity, negatives, absurd stamps) is wire-legal
    and round-trips verified — rejecting it is the matrix's job — while
    rows with non-int cells fail *at encode time* as WireError, never as
    anything else.  Tampered frames never yield a different payload that
    still verifies."""
    from repro.adversary.strategies import forge_garbage_rows

    rng = make_rng(seed).child("forged-rows")
    rows = forge_garbage_rows(rng.child("gen"), N, 30)
    encoded = rejected = 0
    for index, row in enumerate(rows):
        signer = 1 + index % N
        signed = _AUTH[signer].sign(UpdatePayload(row=row))
        wire_legal = all(
            isinstance(value, int) and not isinstance(value, bool)
            for value in row
        )
        # Rows are validated while encoding and again while decoding —
        # the typed WireError may fire at either boundary, but nothing
        # else may, and only all-int rows make it through both.
        try:
            frame = encode_frame_body("qs.update", signed, signer, version)
            _, decoded, _ = decode_frame_body(frame)
        except WireError:
            assert not wire_legal
            rejected += 1
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail(
                f"seed={seed}: {type(exc).__name__} leaked from codec: {exc!r}"
            )
        assert wire_legal
        encoded += 1
        assert_type_identical(signed, decoded)
        assert _AUTH[1].verify(decoded)

        mrng = rng.child("mutate", index)
        body = bytearray(frame)
        for _ in range(mrng.randint(1, 4)):
            body[mrng.randint(0, len(body) - 1)] = mrng.randint(0, 255)
        try:
            _, tampered, _ = decode_frame_body(bytes(body))
        except WireError:
            continue  # typed failure: the documented response
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail(
                f"seed={seed}: {type(exc).__name__} leaked from decoder: {exc!r}"
            )
        if isinstance(tampered, SignedMessage) and _AUTH[1].verify(tampered):
            assert tampered.payload == signed.payload
    # The generator must exercise both sides of the boundary.
    assert encoded > 0 and rejected > 0
