"""Wire value codec: builtin vocabulary plus schema-registered messages.

This module writes the *values* inside a :mod:`repro.net.wire` frame:
one type-tag byte, then a fixed or length-prefixed binary body (LEB128
varints, zigzag ints, UTF-8 strings, counted containers; sets in
sorted-by-encoding order so equal sets produce equal bytes).

A protocol message joins the vocabulary by declaring its fields once,
beside its dataclass::

    @wire_message(0x12, client=INT, sequence=INT, op=value(tuple))
    @dataclass(frozen=True)
    class ClientRequest: ...

From that one table :func:`wire_message` compiles the encoder and the
decoder and files them under the exact type and the tag byte.  Field
kinds are :data:`INT`, :data:`STR`, :data:`BYTES`, :func:`value` (any
nested value, optionally required to decode to given types),
:func:`tuple_of` and :func:`pair`.  Compact frame kind ids are
declared the same way, beside the ``KIND_*`` constants, with
:func:`register_kind_ids`.  Tags and ids are wire format: append-only,
and a collision is an import-time error.

Decoding is strict — unknown tags, truncated bodies, values of the
wrong type, unhashable set members, over-deep nesting all raise
:class:`WireError`.
This module is a leaf: it imports nothing else from ``repro``.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: Maximum nesting depth accepted while encoding or decoding (stack-bomb guard).
MAX_DEPTH = 32

#: Longest accepted varint (bytes).  Honest ints are a handful of bytes;
#: the cap stops a hostile stream from making the decoder build huge
#: bignums one 7-bit limb at a time.
_MAX_VARINT_BYTES = 128

_F64 = struct.Struct(">d")


class WireError(ValueError):
    """A frame violated the wire protocol (malformed, oversized, unknown)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireError(message)


# ------------------------------------------------------------------ dispatch
# Encoders are keyed by exact type (subclasses resolve through the MRO
# once and are cached), decoders by tag byte.  Coders receive the depth
# of their *children*, so nested values pass it straight down.


def _unknown_tag(body, pos: int, end: int, depth: int):
    raise WireError(f"unknown type tag {body[pos - 1]:#x}")


_ENCODERS: Dict[type, Callable[[bytearray, Any, int], None]] = {}
_DECODERS: List[Callable[[Any, int, int, int], Tuple[Any, int]]] = [_unknown_tag] * 256


def _inherited(cls: type) -> Callable:
    """The encoder of the nearest registered base class, cached for ``cls``."""
    for base in cls.__mro__[1:]:
        encode = _ENCODERS.get(base)
        if encode is not None:
            _ENCODERS[cls] = encode
            return encode
    raise WireError(f"cannot encode {cls.__name__} for the wire")


def encode_value_v2(buf: bytearray, value: Any, depth: int) -> None:
    """Append the encoding of ``value`` to ``buf``."""
    if depth > MAX_DEPTH:
        raise WireError(f"payload nesting exceeds {MAX_DEPTH}")
    cls = type(value)
    encode = _ENCODERS.get(cls) or _inherited(cls)
    encode(buf, value, depth + 1)


def decode_value_v2(body, pos: int, end: int, depth: int) -> Tuple[Any, int]:
    """Decode one value at ``body[pos:end]``; returns ``(value, new_pos)``."""
    if depth > MAX_DEPTH:
        raise WireError(f"payload nesting exceeds {MAX_DEPTH}")
    if pos >= end:
        raise WireError("truncated value")
    return _DECODERS[body[pos]](body, pos + 1, end, depth + 1)


# ---------------------------------------------------------- binary primitives
# Readers share the ``(body, pos, end, depth)`` shape of the decoders
# (depth unused) so they can serve as field readers without a wrapper.


def write_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _write_zigzag(buf: bytearray, n: int) -> None:
    """A signed int: zigzag-mapped so small magnitudes stay small, then LEB128."""
    write_uvarint(buf, (n << 1) if n >= 0 else ((-n << 1) - 1))


def _read_uvarint(body, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= end:
            raise WireError("truncated varint")
        byte = body[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if pos - start >= _MAX_VARINT_BYTES:
            raise WireError("varint too long")


def _read_int(body, pos: int, end: int, _depth: int = 0) -> Tuple[int, int]:
    unsigned, pos = _read_uvarint(body, pos, end)
    return (unsigned >> 1) if not unsigned & 1 else -((unsigned + 1) >> 1), pos


def _read_bytes(body, pos: int, end: int, _depth: int = 0) -> Tuple[bytes, int]:
    n, pos = _read_uvarint(body, pos, end)
    new_pos = pos + n
    if new_pos > end:
        raise WireError("truncated value")
    return bytes(body[pos:new_pos]), new_pos


def read_str(body, pos: int, end: int, _depth: int = 0) -> Tuple[str, int]:
    raw, pos = _read_bytes(body, pos, end)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise WireError("invalid UTF-8 string") from exc


def _read_count(body, pos: int, end: int) -> Tuple[int, int]:
    """A container element count, bounded by the bytes that remain."""
    n, pos = _read_uvarint(body, pos, end)
    if n > end - pos:
        raise WireError("container count exceeds remaining bytes")
    return n, pos


# ---------------------------------------------------------------- field kinds


class Field(NamedTuple):
    """One field kind: how it is written and read."""

    write: Callable[[bytearray, Any, int], None]
    read: Callable[[Any, int, int, int], Tuple[Any, int]]


def _int(item: Any, _depth: int = 0) -> int:
    if isinstance(item, int) and not isinstance(item, bool):
        return item
    raise WireError(f"expected an int, got {type(item).__name__}")


def _str(item: Any, _depth: int = 0) -> str:
    if isinstance(item, str):
        return item
    raise WireError(f"expected a string, got {type(item).__name__}")


def _write_int(buf: bytearray, item: Any, _depth: int = 0) -> None:
    _write_zigzag(buf, _int(item))


def _write_str(buf: bytearray, item: Any, _depth: int = 0) -> None:
    encoded = _str(item).encode("utf-8")
    write_uvarint(buf, len(encoded))
    buf += encoded


def _write_bytes(buf: bytearray, item: Any, _depth: int = 0) -> None:
    _require(isinstance(item, bytes), f"expected bytes, got {type(item).__name__}")
    write_uvarint(buf, len(item))
    buf += item


#: Strict int (bools refused); arbitrary precision.
INT = Field(_write_int, _read_int)
#: Strict string.
STR = Field(_write_str, read_str)
#: Raw bytes.
BYTES = Field(_write_bytes, _read_bytes)


def value(*types: type) -> Field:
    """Any nested value; with ``types``, one that must *decode* to them.

    Encoding never checks: a Byzantine sender can put anything in the
    slot, so the receiver is where the shape is enforced.
    """
    if not types:
        return Field(encode_value_v2, decode_value_v2)
    wanted = " or ".join(t.__name__ for t in types)

    def read(body, pos: int, end: int, depth: int) -> Tuple[Any, int]:
        item, pos = decode_value_v2(body, pos, end, depth)
        if not isinstance(item, types):
            raise WireError(f"expected {wanted}, got {type(item).__name__}")
        return item, pos

    return Field(encode_value_v2, read)


VALUE = value()


def tuple_of(item: Field) -> Field:
    """A homogeneous tuple: the count, then the items."""
    item_write, item_read = item
    # Plain loops, here and in the class coders: on CPython 3.11 a
    # comprehension is one more function call per (small, hot) message.

    def write(buf: bytearray, items: Any, depth: int) -> None:
        write_uvarint(buf, len(items))
        for entry in items:
            item_write(buf, entry, depth)

    def read(body, pos: int, end: int, depth: int) -> Tuple[Tuple[Any, ...], int]:
        n, pos = _read_count(body, pos, end)
        items = []
        for _ in range(n):
            entry, pos = item_read(body, pos, end, depth)
            items.append(entry)
        return tuple(items), pos

    return Field(write, read)


def pair(first: Field, second: Field) -> Field:
    """A 2-tuple: its two fields back to back."""

    def write(buf: bytearray, entry: Any, depth: int) -> None:
        _require(isinstance(entry, tuple) and len(entry) == 2, "expected a pair")
        first.write(buf, entry[0], depth)
        second.write(buf, entry[1], depth)

    def read(body, pos: int, end: int, depth: int) -> Tuple[Tuple[Any, Any], int]:
        left, pos = first.read(body, pos, end, depth)
        right, pos = second.read(body, pos, end, depth)
        return (left, right), pos

    return Field(write, read)


# ----------------------------------------------------------- message registry


class Schema(NamedTuple):
    """What one registered message class declared."""

    tag: int
    fields: Dict[str, Field]


#: Every class registered through :func:`wire_message`.
SCHEMAS: Dict[type, Schema] = {}


def _file_coders(cls: type, tag: int, write, read) -> None:
    if not 0 <= tag <= 0xFF or _DECODERS[tag] is not _unknown_tag:
        raise ValueError(f"type tag {tag:#x} of {cls.__name__} is out of range or taken")
    if cls in _ENCODERS:
        raise ValueError(f"{cls.__name__} is already registered")
    _ENCODERS[cls] = write
    _DECODERS[tag] = read


def wire_message(tag: int, /, **fields: Field) -> Callable[[type], type]:
    """Class decorator: put a dataclass on the wire under the type ``tag``.

    ``fields`` names every dataclass field, in declaration order, with
    its kind.  The body is the fields back to back.
    """

    def decorate(cls: type) -> type:
        names = tuple(fields)
        if names != tuple(f.name for f in dataclasses.fields(cls)):
            raise TypeError(f"wire fields {names} do not match the fields of {cls.__name__}")
        kinds = tuple(fields.values())
        # (coder, field name) rows, zipped once here rather than per message.
        write_plan = tuple((kind.write, name) for kind, name in zip(kinds, names))
        readers = tuple(kind.read for kind in kinds)

        def write(buf: bytearray, message: Any, depth: int) -> None:
            buf.append(tag)
            for put, name in write_plan:
                put(buf, getattr(message, name), depth)

        def read(body, pos: int, end: int, depth: int) -> Tuple[Any, int]:
            items = []
            for take in readers:
                item, pos = take(body, pos, end, depth)
                items.append(item)
            return cls(*items), pos

        _file_coders(cls, tag, write, read)
        SCHEMAS[cls] = Schema(tag, dict(fields))
        return cls

    return decorate


#: Compact one-byte frame kind ids of the frame header (0 = kind string inline).
KIND_IDS: Dict[str, int] = {}
KIND_BY_ID: Dict[int, str] = {}


def register_kind_ids(ids: Dict[str, int]) -> None:
    """Give hot frame kinds a one-byte id (append-only wire format)."""
    for kind, kind_id in ids.items():
        if not 1 <= kind_id <= 0xFF or kind in KIND_IDS or kind_id in KIND_BY_ID:
            raise ValueError(f"kind id {kind_id} for {kind!r} is out of range or taken")
        KIND_IDS[kind] = kind_id
        KIND_BY_ID[kind_id] = kind


# --------------------------------------------------------- builtin vocabulary
# Tag bytes 0x00-0x0B.  The containers reuse the field kinds above.


def _write_none(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x00)


def _write_bool(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x01 if item else 0x02)


def _write_tagged_int(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x03)
    _write_zigzag(buf, item)


def _write_float(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x04)
    buf += _F64.pack(item)


def _read_float(body, pos: int, end: int, depth: int) -> Tuple[float, int]:
    if pos + _F64.size > end:
        raise WireError("truncated value")
    return _F64.unpack_from(body, pos)[0], pos + _F64.size


def _write_tagged_str(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x05)
    _write_str(buf, item)


def _write_tagged_bytes(buf: bytearray, item: Any, depth: int) -> None:
    buf.append(0x06)
    _write_bytes(buf, item)


_ENCODERS.update({
    type(None): _write_none, bool: _write_bool, int: _write_tagged_int,
    float: _write_float, str: _write_tagged_str,
})
_DECODERS[0x00] = lambda body, pos, end, depth: (None, pos)
_DECODERS[0x01] = lambda body, pos, end, depth: (True, pos)
_DECODERS[0x02] = lambda body, pos, end, depth: (False, pos)
_DECODERS[0x03] = _read_int
_DECODERS[0x04] = _read_float
_DECODERS[0x05] = read_str

_file_coders(bytes, 0x06, _write_tagged_bytes, _read_bytes)

_ITEMS = tuple_of(VALUE)
_ENTRIES = tuple_of(pair(VALUE, VALUE))


def _hashed(build: type, items: Tuple[Any, ...]) -> Any:
    """``build(items)`` — a set or a dict — with unhashable members refused."""
    try:
        return build(items)
    except TypeError as exc:
        raise WireError("unhashable set member or map key") from exc


def _file_sequence(cls: type, tag: int) -> None:
    def write(buf: bytearray, items: Any, depth: int) -> None:
        buf.append(tag)
        _ITEMS.write(buf, items, depth)

    def read(body, pos: int, end: int, depth: int) -> Tuple[Any, int]:
        items, pos = _ITEMS.read(body, pos, end, depth)
        return cls(items), pos

    _file_coders(cls, tag, write, read)


def _file_set(cls: type, tag: int) -> None:
    """Sets travel sorted by their items' encodings: equal sets, equal bytes."""

    def write(buf: bytearray, items: Any, depth: int) -> None:
        parts = []
        for item in items:
            part = bytearray()
            encode_value_v2(part, item, depth)
            parts.append(bytes(part))
        buf.append(tag)
        write_uvarint(buf, len(parts))
        buf += b"".join(sorted(parts))

    def read(body, pos: int, end: int, depth: int) -> Tuple[Any, int]:
        items, pos = _ITEMS.read(body, pos, end, depth)
        return _hashed(cls, items), pos

    _file_coders(cls, tag, write, read)


def _write_map(buf: bytearray, mapping: Any, depth: int) -> None:
    buf.append(0x0B)
    _ENTRIES.write(buf, mapping.items(), depth)


def _read_map(body, pos: int, end: int, depth: int) -> Tuple[Dict[Any, Any], int]:
    entries, pos = _ENTRIES.read(body, pos, end, depth)
    return _hashed(dict, entries), pos


_file_sequence(tuple, 0x07)
_file_sequence(list, 0x08)
_file_set(set, 0x09)
_file_set(frozenset, 0x0A)
_file_coders(dict, 0x0B, _write_map, _read_map)
