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
    KIND_ACK,
    KIND_HELLO,
    MAX_DEPTH,
    WIRE_V1,
    WIRE_V2,
    WIRE_VERSIONS,
    FrameDecoder,
    WireError,
    decode_frame_body,
    encode_ack,
    encode_frame,
    encode_hello,
    encode_value,
    frame_bytes,
    is_control_kind,
    negotiate_ack_version,
    parse_ack_version,
)
from repro.util.rand import DeterministicRng, make_rng
from repro.util.wire_schema import SCHEMAS
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


def random_frames(rng: DeterministicRng, count: int, version: int = WIRE_V1):
    """``count`` random valid (kind, payload, src, frame-bytes) tuples.

    The kind pool deliberately mixes hot kinds (one-byte V2 kind tags)
    with ``"k"`` (inline kind string), so both V2 header shapes fuzz.
    """
    frames = []
    for i in range(count):
        item = rng.child(i)
        kind = item.choice(["qs.update", "heartbeat", "fd.ping", "xp.prepare", "k"])
        payload = random_value(item)
        src = item.randint(1, N)
        frames.append(
            (kind, payload, src, encode_frame(kind, payload, src, version=version))
        )
    return frames


@pytest.mark.parametrize("version", WIRE_VERSIONS)
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


@pytest.mark.parametrize("version", WIRE_VERSIONS)
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


@pytest.mark.parametrize("version", WIRE_VERSIONS)
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


# ------------------------------------------------------- V1 structural fuzz
# Byte mutations almost never survive ``json.loads``, so they exercise the
# JSON parser, not the tag decoders behind it.  These trees are always
# well-formed JSON and go wrong one level up: wrong arities, wrong scalar
# types, unhashable set members and map keys, unknown tags, nesting past
# MAX_DEPTH — grown from scratch or grafted into valid encoded payloads.

_JSON_SCALARS = [None, True, False, 0, -1, 2 ** 70, 1.5, "", "ab", "zz"]
_UNHASHABLE = [{"__list__": []}, {"__map__": []}, {"__set__": []}]
_V1_TAGS = ["__bytes__", "__tuple__", "__list__", "__set__", "__frozenset__", "__map__",
            "__nope__"] + sorted(schema.v1_tag for schema in SCHEMAS.values())


def random_tag_tree(rng: DeterministicRng, depth: int = 0):
    """Well-formed JSON shaped like V1 tagged values, rules broken at random."""
    roll = rng.randint(0, 11)
    if depth >= 5 or roll <= 2:
        return rng.choice(_JSON_SCALARS)
    if roll == 3:
        return rng.choice(_UNHASHABLE)
    children = [random_tag_tree(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    if roll == 4:
        return children  # a bare array
    if roll == 5:
        return {f"k{i}": child for i, child in enumerate(children)}  # rarely one key
    return {rng.choice(_V1_TAGS): children if roll <= 9 else random_tag_tree(rng, depth + 1)}


def graft(rng: DeterministicRng, tree, scion):
    """``tree`` with one random node replaced by ``scion``."""
    if not isinstance(tree, (list, dict)) or not tree or rng.coin(0.15):
        return scion
    if isinstance(tree, list):
        at = rng.randint(0, len(tree) - 1)
        return tree[:at] + [graft(rng, tree[at], scion)] + tree[at + 1:]
    key = rng.choice(sorted(tree))
    return {**tree, key: graft(rng, tree[key], scion)}


def structural_garbage(rng: DeterministicRng):
    roll = rng.randint(0, 9)
    if roll <= 3:
        return random_tag_tree(rng)
    if roll <= 7:  # a valid payload with one subtree swapped for garbage
        return graft(rng, encode_value(random_value(rng.child("valid"))),
                     random_tag_tree(rng.child("scion"), depth=2))
    tree = random_tag_tree(rng, depth=3)
    for _ in range(MAX_DEPTH + rng.randint(-1, 6)):
        tree = {rng.choice(["__tuple__", "__list__", "__rows__"]): [tree]}
    return tree


@pytest.mark.parametrize("seed", SEEDS)
def test_structural_v1_garbage_raises_only_wire_errors(seed):
    rng = make_rng(seed).child("v1-structure")
    accepted = rejected = 0
    stream = bytearray()
    for trial in range(400):
        tree = structural_garbage(rng.child(trial))
        body = json.dumps({"v": 1, "k": "k", "s": 1, "p": tree}).encode()
        stream += frame_bytes(body)
        try:
            decode_frame_body(body)
            accepted += 1
        except WireError:
            rejected += 1  # the typed, expected failure
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail(f"seed={seed} trial={trial}: {type(exc).__name__} leaked: {tree!r}")
    # The generator must land on both sides, or it proves nothing.
    assert accepted > 20 and rejected > 200

    # The same frames as one stream: nothing at all may escape ``feed``,
    # and a bad frame costs exactly itself, never its neighbours.
    decoder = FrameDecoder()
    delivered = 0
    for cursor in range(0, len(stream), 4096):
        delivered += len(decoder.feed(bytes(stream[cursor:cursor + 4096])))
    assert (delivered, decoder.malformed) == (accepted, rejected)


# ------------------------------------------------------------- negotiation
# The hello/ack handshake must land inside the version vocabulary for
# *any* payload a peer can send, and a mixed V1/V2 pair must settle on V1
# using only control frames — no protocol frame is ever minted before the
# codec is agreed.


@pytest.mark.parametrize("seed", SEEDS)
def test_negotiation_settles_in_vocabulary_under_garbage(seed):
    rng = make_rng(seed).child("negotiate")
    for trial in range(40):
        item = rng.child(trial)
        garbage = random_value(item)
        own_max = item.choice(list(WIRE_VERSIONS))
        acked = negotiate_ack_version(garbage, own_max)
        assert acked in WIRE_VERSIONS and acked <= own_max
        parsed = parse_ack_version(garbage, own_max)
        assert parsed in WIRE_VERSIONS and parsed <= own_max


def test_v1_and_v2_peers_settle_on_v1_without_minting_protocol_frames():
    # Dialer speaks up to V2; listener only V1.  The hello travels as a
    # V1 frame, so the V1-only decoder parses it without counting it
    # malformed — and it is control traffic, never delivered to a host.
    listener = FrameDecoder(accept_versions=(WIRE_V1,))
    hello_frames = listener.feed(encode_hello(1, WIRE_V2))
    assert [kind for kind, _, _ in hello_frames] == [KIND_HELLO]
    assert listener.malformed == 0
    kind, hello_payload, src = hello_frames[0]
    assert is_control_kind(kind) and src == 1

    acked = negotiate_ack_version(hello_payload, WIRE_V1)
    assert acked == WIRE_V1

    # The ack is V1 too; the V2 dialer accepts the downgrade.
    dialer = FrameDecoder()
    ack_frames = dialer.feed(encode_ack(2, acked))
    assert [kind for kind, _, _ in ack_frames] == [KIND_ACK]
    assert dialer.malformed == 0
    assert is_control_kind(ack_frames[0][0])
    assert parse_ack_version(ack_frames[0][1], WIRE_V2) == WIRE_V1

    # Symmetric pair of V2 speakers settles on V2 the same way.
    v2_hello = FrameDecoder().feed(encode_hello(1, WIRE_V2))[0]
    assert negotiate_ack_version(v2_hello[1], WIRE_V2) == WIRE_V2


# -------------------------------------------------------------- adversary
# E28 hardening: the exact artifacts the adversary engine broadcasts —
# equivocating signed UPDATE pairs and forged garbage rows — must travel
# both codecs type-identically, keep verifying afterwards, and fail as
# WireError (never anything else) once tampered with.


@pytest.mark.parametrize("version", WIRE_VERSIONS)
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
            frame = encode_frame("qs.update", signed, signer, version=version)
            _, decoded, _ = decode_frame_body(frame[4:])
            assert_type_identical(signed, decoded)
            # Both halves of the equivocation verify independently: the
            # codec cannot tell a lie from the truth, only alteration.
            assert _AUTH[1].verify(decoded)
            assert decoded.signature.signer == signer
        # The two decoded rows genuinely conflict.
        frames = [
            decode_frame_body(
                encode_frame("qs.update", s, signer, version=version)[4:]
            )[1]
            for s in pair
        ]
        assert frames[0].payload.row != frames[1].payload.row


@pytest.mark.parametrize("version", WIRE_VERSIONS)
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
            frame = encode_frame("qs.update", signed, signer, version=version)
            _, decoded, _ = decode_frame_body(frame[4:])
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
        body = bytearray(frame[4:])
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
