"""Golden byte vectors for the wire codec (fixed keys, no randomness).

``build_cases()`` constructs one payload per vocabulary corner — every
registered message class, every compact kind id, empty tuples, absent
checkpoints, negative and >64-bit ints, nested certificates, a
60-request PREPARE/COMMIT — and ``python tests/wire_golden.py`` freezes
their frame bodies into ``tests/data/wire_golden.json``.
``tests/test_net_wire_golden.py`` rebuilds the same payloads and
requires today's encoders to reproduce those bytes exactly.

Only the public ``repro.net.wire`` surface is used, so the generator
runs unchanged on any commit: tag bytes and kind ids are read off the
encoded bytes, never out of codec internals.
Regenerate only when a kind or class is *added* (the file is
append-only in spirit: a changed existing vector is a wire break).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

GOLDEN_PATH = Path(__file__).parent / "data" / "wire_golden.json"

N = 5
CLIENT = N + 1
BIG = 2 ** 70 + 3


def authenticators():
    from repro.crypto.authenticator import Authenticator
    from repro.crypto.keys import KeyRegistry

    registry = KeyRegistry(N + 2, system_nonce="wire-golden")
    return {pid: Authenticator(registry, pid) for pid in range(1, N + 3)}


def build_cases() -> List[Tuple[str, str, Any, int]]:
    """``(name, kind, payload, src)`` rows, deterministic across runs."""
    from repro.core.messages import (
        FollowersPayload,
        MatrixDigestPayload,
        RowCertsPayload,
        UpdatePayload,
    )
    from repro.ibft.messages import (
        IbftCommitCertificate,
        IbftCommitPayload,
        IbftPreparePayload,
        PrePreparePayload,
    )
    from repro.leadercentric.star import AckPayload, DecidePayload, ProposePayload
    from repro.xpaxos.messages import (
        CheckpointCertificate,
        CheckpointPayload,
        ClientRequest,
        CommitCertificate,
        CommitPayload,
        NewViewPayload,
        PreparePayload,
        ReplyPayload,
        ViewChangePayload,
    )

    auth = authenticators()

    def request(sequence=0, op=("put", "k", 1)):
        return auth[CLIENT].sign(ClientRequest(client=CLIENT, sequence=sequence, op=op))

    def batch(size):
        return tuple(request(i, ("put", f"key-{i}", i)) for i in range(size))

    def prepare(view=0, slot=0, size=1):
        return auth[1].sign(PreparePayload(view=view, slot=slot, signed_requests=batch(size)))

    def commit(pid, signed_prepare):
        body = signed_prepare.payload
        return auth[pid].sign(
            CommitPayload(view=body.view, slot=body.slot, prepare=signed_prepare)
        )

    def certificate(view=0, slot=0):
        signed_prepare = prepare(view, slot)
        return CommitCertificate(
            prepare=signed_prepare,
            commits=tuple(commit(pid, signed_prepare) for pid in (2, 3)),
        )

    def checkpoint_certificate():
        vote = CheckpointPayload(view=0, slot_count=2, state_digest="d" * 64)
        return CheckpointCertificate(votes=tuple(auth[pid].sign(vote) for pid in (1, 2, 3)))

    def preprepare(round=0, slot=0, size=1):
        return auth[1].sign(
            PrePreparePayload(round=round, slot=slot, signed_requests=batch(size))
        )

    def ibft_certificate(round=0, slot=0):
        signed = preprepare(round, slot)
        wanted = signed.payload.request_digest()
        return IbftCommitCertificate(
            preprepare=signed,
            commits=tuple(
                auth[pid].sign(IbftCommitPayload(round=round, slot=slot, request_digest=wanted))
                for pid in (2, 3)
            ),
        )

    def propose(view=0, slot=0, size=1, leader=1):
        return auth[leader].sign(
            ProposePayload(view=view, slot=slot, signed_requests=batch(size))
        )

    def star_certificate(view=0, slot=0, leader=1, followers=(2, 3)):
        signed = propose(view, slot, leader=leader)
        ack = AckPayload(view=view, slot=slot, request_digest=signed.payload.request_digest())
        return DecidePayload(view=view, slot=slot, propose=signed,
                             acks=tuple(auth[pid].sign(ack) for pid in followers))

    update = UpdatePayload(row=(0, 0, 1, 0, 2, BIG))
    snapshot = ("xp-snapshot", 2, (("request", CLIENT, 0, ("put", "k", 1)),), (), ())
    wanted = preprepare().payload.request_digest()
    return [
        # --- builtin vocabulary, inline kind string (kind tag 0)
        ("builtins.scalars", "k", (None, True, False, 0, -7, BIG, -BIG, 3.5, -0.0), 1),
        ("builtins.text", "custom.kind", ("", "héllo ☃ {}\"\\", b"", b"\x00\xff\x80"), 2),
        ("builtins.containers", "k",
         ((), [], [1, "two", 3.0], (1, (2, (3,))), {"a": 1, 2: "b", (1, 2): [None]}, {}), 1),
        ("builtins.sets", "k", (set(), {3, 1, 2}, frozenset(), frozenset({"b", "a", 5})), 1),
        ("builtins.bare-signature", "k", auth[2].sign(("x",)).signature, 2),
        ("builtins.signed-in-signed", "k", auth[1].sign(auth[2].sign((1, "inner"))), 1),
        # --- failure detector kinds carry signed plain tuples
        ("heartbeat", "heartbeat", auth[3].sign(("heartbeat", 3, 41)), 3),
        ("fd.ping", "fd.ping", auth[1].sign(("ping", 9)), 1),
        ("fd.pong", "fd.pong", auth[2].sign(("pong", 9)), 2),
        # --- quorum / follower selection
        ("qs.update", "qs.update", auth[2].sign(update), 2),
        ("qs.update.empty-row", "qs.update", auth[2].sign(UpdatePayload(row=())), 2),
        ("fs.followers", "fs.followers", auth[1].sign(
            FollowersPayload(followers=(2, 3), line_edges=((1, 2), (2, 3)), epoch=4)), 1),
        ("fs.followers.empty", "fs.followers", auth[1].sign(
            FollowersPayload(followers=(), line_edges=(), epoch=-BIG)), 1),
        ("qs.digest", "qs.digest",
         MatrixDigestPayload(epoch=1, row_digests=("", "ab" * 32, "cd")), 4),
        ("qs.digest.empty", "qs.digest", MatrixDigestPayload(epoch=0, row_digests=()), 4),
        ("qs.rows", "qs.rows", RowCertsPayload(
            certs=(auth[2].sign(update), auth[3].sign(UpdatePayload(row=(0, 1))))), 5),
        ("qs.rows.empty", "qs.rows", RowCertsPayload(certs=()), 5),
        # --- XPaxos
        ("xp.request", "xp.request",
         request(BIG, ("cas", "key", None, ("v", -2), 2.5, b"\x01")), CLIENT),
        ("xp.request.empty-op", "xp.request", request(0, ()), CLIENT),
        ("xp.prepare", "xp.prepare", prepare(3, 17, size=3), 1),
        ("xp.prepare.empty-batch", "xp.prepare",
         auth[1].sign(PreparePayload(view=0, slot=0, signed_requests=())), 1),
        ("xp.prepare.60", "xp.prepare", prepare(1, 2, size=60), 1),
        ("xp.commit", "xp.commit", commit(3, prepare(1, 4)), 3),
        ("xp.commit.60", "xp.commit", commit(2, prepare(1, 2, size=60)), 2),
        ("xp.commit.non-prepare-body", "xp.commit",
         auth[3].sign(CommitPayload(view=-1, slot=0, prepare=("junk", None))), 3),
        ("xp.reply", "xp.reply", tuple(
            auth[2].sign(ReplyPayload(client=CLIENT, sequence=7, result=result,
                                      replica=2, view=5))
            for result in (None, 42, "value", ("ok", ("v", 1)), ("stale", 3, 9), True)), 2),
        ("xp.checkpoint", "xp.checkpoint", auth[1].sign(
            CheckpointPayload(view=2, slot_count=128, state_digest="ab" * 32)), 1),
        ("xp.certificate", "xp.state", certificate(2, 9), 1),
        ("xp.checkpoint-certificate", "xp.state", checkpoint_certificate(), 1),
        ("xp.viewchange", "xp.viewchange", auth[2].sign(ViewChangePayload(
            new_view=6,
            committed=(certificate(0, 0), certificate(0, 1)),
            prepared=((2, prepare(0, 2)), (BIG, prepare(0, 3))),
            checkpoint=checkpoint_certificate(),
            snapshot=snapshot)), 2),
        ("xp.viewchange.empty", "xp.viewchange", auth[4].sign(
            ViewChangePayload(new_view=1, committed=(), prepared=())), 4),
        ("xp.newview", "xp.newview", auth[2].sign(NewViewPayload(
            view=6, committed=(certificate(),), checkpoint=checkpoint_certificate(),
            snapshot=snapshot)), 2),
        ("xp.newview.empty", "xp.newview", auth[2].sign(
            NewViewPayload(view=0, committed=(), checkpoint=None, snapshot=None)), 2),
        # --- IBFT
        ("ibft.preprepare", "ibft.preprepare", preprepare(3, 17, size=3), 1),
        ("ibft.preprepare.60", "ibft.preprepare", preprepare(1, 2, size=60), 1),
        ("ibft.prepare", "ibft.prepare", auth[3].sign(
            IbftPreparePayload(round=2, slot=9, request_digest=wanted)), 3),
        ("ibft.commit", "ibft.commit", auth[3].sign(
            IbftCommitPayload(round=2, slot=9, request_digest=wanted)), 3),
        ("ibft.certificate", "ibft.state", ibft_certificate(1, 4), 1),
        # State transfer and checkpoints ride the shared payloads under
        # IBFT's own kinds, carrying IBFT certificates.
        ("ibft.roundchange", "ibft.roundchange", auth[2].sign(ViewChangePayload(
            new_view=6,
            committed=(ibft_certificate(0, 0), ibft_certificate(0, 1)),
            prepared=((2, preprepare(0, 2)),),
            checkpoint=checkpoint_certificate(),
            snapshot=snapshot)), 2),
        ("ibft.roundchange.empty", "ibft.roundchange", auth[4].sign(
            ViewChangePayload(new_view=1, committed=(), prepared=())), 4),
        ("ibft.newround", "ibft.newround", auth[2].sign(NewViewPayload(
            view=6, committed=(ibft_certificate(),),
            checkpoint=checkpoint_certificate(), snapshot=snapshot)), 2),
        ("ibft.newround.empty", "ibft.newround", auth[2].sign(
            NewViewPayload(view=0, committed=(), checkpoint=None, snapshot=None)), 2),
        ("ibft.checkpoint", "ibft.checkpoint", auth[1].sign(
            CheckpointPayload(view=2, slot_count=128, state_digest="ab" * 32)), 1),
        # --- star: the leader need not be the quorum's lowest id (fs)
        ("st.propose", "st.propose", propose(3, 17, size=3, leader=4), 4),
        ("st.propose.60", "st.propose", propose(1, 2, size=60), 1),
        ("st.ack", "st.ack", auth[3].sign(
            AckPayload(view=2, slot=9, request_digest=wanted)), 3),
        ("st.decide", "st.decide", auth[4].sign(
            star_certificate(7, 4, leader=4, followers=(1, 2, 3))), 4),
        ("st.decide.no-acks", "st.decide", auth[1].sign(
            DecidePayload(view=0, slot=0, propose=("junk", None), acks=())), 1),
        ("st.certificate", "st.state", star_certificate(1, 4), 1),
        ("st.reconfigure", "st.reconfigure", auth[2].sign(ViewChangePayload(
            new_view=6,
            committed=(star_certificate(0, 0), star_certificate(0, 1)),
            prepared=((2, propose(0, 2)),),
            checkpoint=checkpoint_certificate(),
            snapshot=snapshot)), 2),
        ("st.newconfig", "st.newconfig", auth[2].sign(NewViewPayload(
            view=6, committed=(star_certificate(),),
            checkpoint=checkpoint_certificate(), snapshot=snapshot)), 2),
        ("st.checkpoint", "st.checkpoint", auth[1].sign(
            CheckpointPayload(view=2, slot_count=128, state_digest="ab" * 32)), 1),
    ]


def hand_built(kind: str, src: int, value) -> bytes:
    """A frame body written byte by byte: the kind string inline, then ``value``."""
    return bytes([0x02, 0x00, 0x00, src, len(kind)]) + kind.encode() + bytes(value)


def walk(value: Any):
    """Every node of a payload tree, dataclass fields included."""
    yield value
    if dataclasses.is_dataclass(value):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = [part for item in value.items() for part in item]
    elif isinstance(value, (tuple, list, set, frozenset)):
        children = list(value)
    else:
        children = []
    for child in children:
        yield from walk(child)


def assert_type_identical(sent, received, path="payload"):
    """Structural equality where every node's *type* must match exactly."""
    assert type(sent) is type(received), (
        f"{path}: {type(sent).__name__} came back as {type(received).__name__}"
    )
    if dataclasses.is_dataclass(sent):
        for field in dataclasses.fields(sent):
            assert_type_identical(
                getattr(sent, field.name), getattr(received, field.name), f"{path}.{field.name}"
            )
    elif isinstance(sent, (tuple, list)):
        assert len(sent) == len(received), path
        for index, (a, b) in enumerate(zip(sent, received)):
            assert_type_identical(a, b, f"{path}[{index}]")
    elif isinstance(sent, dict):
        assert list(sent) == list(received), path  # insertion order is wire format too
        for key in sent:
            assert_type_identical(sent[key], received[key], f"{path}[{key!r}]")
    else:
        assert sent == received, path


def message_classes(cases) -> Dict[str, Any]:
    """One instance of every dataclass type that occurs in the cases."""
    found: Dict[str, Any] = {}
    for _name, _kind, payload, _src in cases:
        for node in walk(payload):
            if dataclasses.is_dataclass(node):
                found.setdefault(type(node).__name__, node)
    return found


def snapshot_codec() -> Dict[str, Any]:
    """Encode every case; read ids and tags off the bytes."""
    from repro.net.wire import encode_frame_body

    cases = build_cases()
    out: Dict[str, Any] = {"cases": {}, "kind_ids": {}, "tags": {}}
    for name, kind, payload, src in cases:
        v2 = encode_frame_body(kind, payload, src)
        out["cases"][name] = {
            "kind": kind,
            "src": src,
            "v2": base64.b64encode(v2).decode("ascii"),
        }
        if v2[1]:  # header: magic, kind id (0 = kind string inline), src (u16)
            out["kind_ids"][kind] = v2[1]
    for class_name, instance in sorted(message_classes(cases).items()):
        v2 = encode_frame_body("k", instance, 1)
        # inline-kind header: magic, 0, src (u16), len("k"), "k", then the value
        out["tags"][class_name] = {"v2": v2[6]}
    return out


def main() -> int:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(snapshot_codec(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(main())
