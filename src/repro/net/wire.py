"""The wire codec of the live runtime: binary frames and batch envelopes.

A frame on the wire is a 4-byte big-endian length followed by one frame
*body*: a struct-packed fixed header (magic byte 0x02, kind id, source
id), then a type-tagged binary value encoding.  Encoding reuses a
preallocated scratch buffer and a memo keyed by payload identity;
decoding walks a ``memoryview`` cursor with zero-copy slicing and
memoizes immutable bodies.

Batches are a second body shape (magic byte 0x03): several frame bodies
in one envelope, optionally authenticated by a single link-level
HMAC-SHA256 over the whole envelope — one MAC per *batch* where the
ingress path previously paid one signature verification per *frame*
(protocol-level signatures inside the payloads are still verified by the
host and failure detector; the batch MAC adds link-origin integrity to
otherwise unsigned frames such as anti-entropy probes).  A body with
any other first byte is malformed.

This module owns frames, batches and stream decoding.  How a *value* is
written lives in :mod:`repro.util.wire_schema`: the builtin vocabulary
(``None``/bool/int/float/str, bytes, tuples, lists, sets, frozensets,
dicts — exactly what :mod:`repro.crypto.digests` canonically encodes)
plus every message dataclass that declared its fields there.  Nothing
here names a message class; a new message kind or backend adds no line
to this file.  A decoded payload is *type-identical* to the sent one —
which matters because signature verification re-derives the canonical
encoding from the decoded object: a tuple that came back as a list
would change the bytes under the MAC and reject every valid signature.

Decoding is strict and defensive: unknown tags, truncated bodies,
oversized frames, and over-deep nesting raise :class:`WireError` —
receivers drop the frame (or connection) and count it, never crash.
Anything a Byzantine peer can put on a socket goes through this gauntlet
before any protocol module sees it.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Imported for their side effect: each registers its message schemas and
# compact kind ids, so every kind the tree can send decodes in any
# process that can read a frame.
import repro.core.messages  # noqa: F401
import repro.fd.heartbeat  # noqa: F401
import repro.ibft.messages  # noqa: F401
import repro.leadercentric.star  # noqa: F401
import repro.xpaxos.messages  # noqa: F401
from repro.util.wire_schema import (  # noqa: F401 - re-exported API
    KIND_BY_ID,
    KIND_IDS,
    MAX_DEPTH,
    WireError,
    decode_value_v2,
    encode_value_v2,
    read_str,
    write_uvarint,
)

#: The codec version.  ``encode_frame_body``'s ``version`` and the
#: ``wire_version`` keywords of the peer layer accept only this value.
WIRE_V2 = 2

#: Upper bound on one frame (or batch envelope) body.  Honest traffic is
#: tiny (a signed row for n=100 is ~1 KiB); the cap bounds what a
#: malicious or broken peer can make a receiver buffer.
MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct(">I")

#: First body byte of a frame / batch envelope: the two shapes are
#: disjoint on the first byte, and any other first byte is malformed.
MAGIC_V2 = 0x02
MAGIC_BATCH = 0x03


class BatchAuthError(WireError):
    """A batch envelope failed (or lacked) its link-level MAC."""


def check_wire_version(version: int) -> None:
    """Refuse any codec version but :data:`WIRE_V2`."""
    if version != WIRE_V2:
        raise WireError(f"unsupported wire version {version!r} (only {WIRE_V2})")


#: Fixed frame header: magic byte, kind tag, source id (uint16).
_HDR_V2 = struct.Struct(">BBH")

#: Batch envelope header: magic byte, flags, source id, member count.
_HDR_BATCH = struct.Struct(">BBHH")
_MAC_BYTES = 32
_FLAG_MAC = 0x01

# Preallocated encode scratch.  asyncio is single-threaded per loop and
# the codec never re-enters itself, but the busy flag keeps a second
# concurrent encoder (another loop/thread) correct by falling back to a
# fresh buffer.
_SCRATCH = bytearray()
_SCRATCH_BUSY = False

# Encode memo: (kind, id(payload), src) -> (payload, body).  A broadcast
# hands the same payload object to every link, and benchmarks resend one
# object many times; pinning the payload in the value makes a recycled
# id impossible to alias.  Only hashable (in practice immutable) payloads
# are memoized.  Cleared wholesale when full.
_ENCODE_MEMO: Dict[Tuple[str, int, int], Tuple[Any, bytes]] = {}
# Decode memo: body bytes -> decoded frame, again only for hashable
# payloads so a shared decoded object can never be mutated by a receiver.
_DECODE_MEMO: Dict[bytes, Tuple[str, Any, int]] = {}
_MEMO_LIMIT = 8192


# -------------------------------------------------------------------- framing


def frame_bytes(body: bytes) -> bytes:
    """Length-prefix one already-encoded frame body."""
    return _LEN.pack(len(body)) + body


def _encode_frame_body(kind: str, payload: Any, src: int) -> bytes:
    """The one encode path: memo probe, header, value, frame cap, memo."""
    global _SCRATCH_BUSY
    memo_key = (kind, id(payload), src)
    hit = _ENCODE_MEMO.get(memo_key)
    if hit is not None and hit[0] is payload:
        return hit[1]
    if not isinstance(kind, str) or not kind:
        raise WireError("frame kind must be a non-empty string")
    if not isinstance(src, int) or isinstance(src, bool) or not 1 <= src <= 0xFFFF:
        raise WireError("frame src must be a pid in [1, 65535]")
    if _SCRATCH_BUSY:
        buf = bytearray()
        reuse = False
    else:
        _SCRATCH_BUSY = True
        buf = _SCRATCH
        del buf[:]
        reuse = True
    try:
        kind_tag = KIND_IDS.get(kind, 0)
        buf += _HDR_V2.pack(MAGIC_V2, kind_tag, src)
        if kind_tag == 0:
            encoded_kind = kind.encode("utf-8")
            write_uvarint(buf, len(encoded_kind))
            buf += encoded_kind
        try:
            encode_value_v2(buf, payload, 0)
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"cannot encode payload: {exc!r}") from exc
        body = bytes(buf)
    finally:
        if reuse:
            _SCRATCH_BUSY = False
    # Before the memo: a memoized body is returned without this check.
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    try:
        hash(payload)
    except TypeError:
        return body  # mutable payload: never memoize identity -> bytes
    if len(_ENCODE_MEMO) >= _MEMO_LIMIT:
        _ENCODE_MEMO.clear()
    _ENCODE_MEMO[memo_key] = (payload, body)
    return body


def encode_frame_body(kind: str, payload: Any, src: int, version: int = WIRE_V2) -> bytes:
    """One frame body (no length prefix)."""
    check_wire_version(version)
    return _encode_frame_body(kind, payload, src)


def encode_frame(kind: str, payload: Any, src: int) -> bytes:
    """One wire frame: length prefix + body."""
    return frame_bytes(_encode_frame_body(kind, payload, src))


def make_frame_encoder(src: int) -> Callable[[str, Any], bytes]:
    """A ``(kind, payload) -> body`` callable pinned to one ``src``.

    Equivalent to :func:`encode_frame_body` with the memo probe inlined —
    the writer task calls this once per frame, so the closure saves a
    dispatch layer on the hottest path.  The memo dict is cleared in
    place when full, never reassigned, so the closure's reference stays
    live.
    """
    memo = _ENCODE_MEMO

    def encode(kind: str, payload: Any) -> bytes:
        hit = memo.get((kind, id(payload), src))
        if hit is not None and hit[0] is payload:
            return hit[1]
        return _encode_frame_body(kind, payload, src)

    return encode


def _decode_frame_body(body: bytes) -> Tuple[str, Any, int]:
    hit = _DECODE_MEMO.get(body)
    if hit is not None:
        return hit
    try:
        end = len(body)
        _magic, kind_tag, src = _HDR_V2.unpack_from(body, 0)
        if src < 1:
            raise WireError("frame src must be a 1-based process id")
        pos = _HDR_V2.size
        if kind_tag == 0:
            kind, pos = read_str(body, pos, end)
            if not kind:
                raise WireError("frame kind must be a non-empty string")
        else:
            kind = KIND_BY_ID.get(kind_tag)
            if kind is None:
                raise WireError(f"unknown kind tag {kind_tag}")
        payload, pos = decode_value_v2(memoryview(body), pos, end, 0)
        if pos != end:
            raise WireError("trailing bytes after payload")
    except WireError:
        raise
    except Exception as exc:  # defensive: malformed input must stay typed
        raise WireError(f"malformed frame: {exc!r}") from exc
    frame = (kind, payload, src)
    try:
        hash(payload)
    except TypeError:
        return frame  # mutable payload: do not share one object via memo
    if len(_DECODE_MEMO) >= _MEMO_LIMIT:
        _DECODE_MEMO.clear()
    _DECODE_MEMO[body] = frame
    return frame


def decode_frame_body(body: bytes) -> Tuple[str, Any, int]:
    """Decode one frame body into ``(kind, payload, src)``.

    A body must open with :data:`MAGIC_V2`; anything else (including a
    batch envelope, which is not a *single* frame) is a
    :class:`WireError`.
    """
    if not body:
        raise WireError("empty frame body")
    lead = body[0]
    if lead == MAGIC_V2:
        return _decode_frame_body(bytes(body))
    if lead == MAGIC_BATCH:
        raise WireError("batch envelope where a single frame was expected")
    raise WireError(f"unknown frame body lead byte {lead:#x}")


# ------------------------------------------------------------------- batching


def encode_batch(bodies: Sequence[bytes], src: int, auth: Optional[Any] = None) -> bytes:
    """Length-prefixed batch envelope around several frame bodies.

    With ``auth`` (an object exposing ``mac(data) -> bytes``) the
    envelope carries one HMAC-SHA256 over everything before it — a
    single link-level MAC for the whole batch.
    """
    if not isinstance(src, int) or isinstance(src, bool) or not 1 <= src <= 0xFFFF:
        raise WireError("batch src must be a pid in [1, 65535]")
    if not bodies or len(bodies) > 0xFFFF:
        raise WireError(f"batch must hold 1..65535 frames, got {len(bodies)}")
    flags = _FLAG_MAC if auth is not None else 0
    buf = bytearray(_HDR_BATCH.pack(MAGIC_BATCH, flags, src, len(bodies)))
    for body in bodies:
        buf += _LEN.pack(len(body))
        buf += body
    if auth is not None:
        buf += auth.mac(bytes(buf))
    if len(buf) > MAX_FRAME_BYTES:
        raise WireError(f"batch of {len(buf)} bytes exceeds MAX_FRAME_BYTES")
    return frame_bytes(bytes(buf))


def split_batch_body(body: bytes, auth: Optional[Any] = None) -> Tuple[int, List[bytes]]:
    """Validate a batch envelope; return ``(src, member frame bodies)``.

    With ``auth`` (an object exposing ``verify(src, data, tag) -> bool``)
    an envelope without a MAC, or with a MAC that does not verify, raises
    :class:`BatchAuthError` — the whole batch is rejected, so tampering
    with any single member frame kills every frame in the envelope.
    """
    if not isinstance(body, bytes):
        body = bytes(body)  # member slices must be immutable (memo keys)
    try:
        magic, flags, src, count = _HDR_BATCH.unpack_from(body, 0)
    except struct.error as exc:
        raise WireError("truncated batch header") from exc
    if magic != MAGIC_BATCH:
        raise WireError("not a batch envelope")
    if flags not in (0, _FLAG_MAC):
        raise WireError(f"unknown batch flags {flags:#x}")
    if src < 1:
        raise WireError("batch src must be a 1-based process id")
    end = len(body) - (_MAC_BYTES if flags & _FLAG_MAC else 0)
    if end < _HDR_BATCH.size:
        raise WireError("truncated batch envelope")
    if auth is not None:
        if not flags & _FLAG_MAC:
            raise BatchAuthError("batch envelope carries no MAC")
        view = memoryview(body)  # hmac takes any buffer; avoid two copies
        if not auth.verify(src, view[:end], view[end:]):
            raise BatchAuthError(f"batch MAC from p{src} failed verification")
    pos = _HDR_BATCH.size
    members: List[bytes] = []
    lensize = _LEN.size
    for _ in range(count):
        if pos + lensize > end:
            raise WireError("truncated batch member header")
        (length,) = _LEN.unpack_from(body, pos)
        pos += lensize
        if length > MAX_FRAME_BYTES or pos + length > end:
            raise WireError("batch member exceeds envelope")
        members.append(body[pos : pos + length])
        pos += length
    if pos != end:
        raise WireError("trailing bytes in batch envelope")
    return src, members


# ------------------------------------------------------------ stream decoding


class FrameDecoder:
    """Incremental frame parser for one TCP stream.

    Feed arbitrary byte chunks; complete frames come back decoded.  Two
    failure modes are distinguished on purpose:

    - a *single* malformed frame (unknown lead byte or tag, truncated
      body) is skipped and counted in
      :attr:`malformed` — resynchronization is safe because the length
      prefix still delimits it; a batch that fails its link MAC is
      likewise skipped wholesale and counted in :attr:`batches_rejected`;
    - a *framing* violation (length prefix beyond :data:`MAX_FRAME_BYTES`)
      raises :class:`WireError`, because the stream can no longer be
      trusted to resynchronize — the caller should drop the connection.

    ``batch_auth_provider`` is a zero-argument callable returning the
    current batch authenticator (or ``None``); it is re-read per batch so
    an authenticator wired up after the connection was accepted still
    takes effect.
    """

    def __init__(self, batch_auth_provider: Optional[Callable[[], Any]] = None) -> None:
        self._buffer = bytearray()
        self.malformed = 0
        self.frames_decoded = 0
        self.batches_decoded = 0
        self.batches_rejected = 0
        self.batch_auth_provider = batch_auth_provider

    def feed(self, data: bytes) -> List[Tuple[str, Any, int]]:
        """Consume bytes; return every complete, valid frame decoded."""
        buffer = self._buffer
        buffer.extend(data)
        out: List[Tuple[str, Any, int]] = []
        decode_body = self._decode_body
        lensize = _LEN.size
        while True:
            if len(buffer) < lensize:
                return out
            (length,) = _LEN.unpack_from(buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"length prefix {length} exceeds MAX_FRAME_BYTES; stream corrupt"
                )
            total = lensize + length
            if len(buffer) < total:
                return out
            body = bytes(buffer[lensize:total])
            del buffer[:total]
            if body and body[0] == MAGIC_BATCH:
                auth = self.batch_auth_provider() if self.batch_auth_provider else None
                try:
                    _src, members = split_batch_body(body, auth)
                except BatchAuthError:
                    self.batches_rejected += 1
                    continue
                except WireError:
                    self.malformed += 1
                    continue
                self.batches_decoded += 1
                for member in members:
                    frame = decode_body(member)
                    if frame is not None:
                        out.append(frame)
                continue
            frame = decode_body(body)
            if frame is not None:
                out.append(frame)

    def _decode_body(self, body: bytes) -> Optional[Tuple[str, Any, int]]:
        """One non-batch body, or ``None`` (counted) when malformed."""
        frame = _DECODE_MEMO.get(body)  # only well-formed bodies are memoized
        if frame is None:
            try:
                frame = decode_frame_body(body)
            except WireError:
                self.malformed += 1
                return None
        self.frames_decoded += 1
        return frame
