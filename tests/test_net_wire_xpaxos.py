"""XPaxos payloads over the wire: type-identical round-trips.

The service layer sends client requests and replies across real sockets,
and view changes ship certificates — all of it must survive the codec
with enough type fidelity that protocol signatures still verify on the
decoded objects.

Plain per-kind round-trips (NEW-VIEW) live in
``test_net_wire_golden.py``, which covers every registered kind; the
cases here assert something beyond ``decode(encode(x)) == x``.
"""

import pytest

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.net.wire import (
    WIRE_V2,
    WireError,
    decode_frame_body,
    encode_frame_body,
)
from repro.xpaxos.messages import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    KIND_PREPARE,
    KIND_REPLY,
    KIND_REQUEST,
    KIND_VIEWCHANGE,
    CheckpointCertificate,
    CheckpointPayload,
    ClientRequest,
    CommitCertificate,
    CommitPayload,
    PreparePayload,
    ReplyPayload,
    ViewChangePayload,
)
from wire_golden import hand_built

N = 5


@pytest.fixture
def auths():
    registry = KeyRegistry(N + 2)
    return {pid: Authenticator(registry, pid) for pid in range(1, N + 3)}


def _signed_request(auths, client=N + 1, sequence=0, op=("put", "k", 1)):
    request = ClientRequest(client=client, sequence=sequence, op=op)
    return auths[client].sign(request)


def _signed_prepare(auths, view=0, slot=0, leader=1, **request_kwargs):
    prepare = PreparePayload(
        view=view, slot=slot, signed_requests=(_signed_request(auths, **request_kwargs),)
    )
    return auths[leader].sign(prepare)


def _certificate(auths, view=0, slot=0):
    signed_prepare = _signed_prepare(auths, view=view, slot=slot)
    commits = tuple(
        auths[pid].sign(CommitPayload(view=view, slot=slot, prepare=signed_prepare))
        for pid in (2, 3)
    )
    return CommitCertificate(prepare=signed_prepare, commits=commits)


def _roundtrip(kind, payload, src, version):
    body = encode_frame_body(kind, payload, src, version=version)
    got_kind, got_payload, got_src = decode_frame_body(body)
    assert (got_kind, got_src) == (kind, src)
    return got_payload


@pytest.mark.parametrize("version", [WIRE_V2])
class TestXPaxosRoundTrips:
    def test_client_request_signature_survives(self, auths, version):
        signed = _signed_request(auths, op=("cas", "key", None, ("v", 2)))
        got = _roundtrip(KIND_REQUEST, signed, N + 1, version)
        assert got == signed
        assert isinstance(got.payload, ClientRequest)
        assert got.payload.op == ("cas", "key", None, ("v", 2))
        assert isinstance(got.payload.op, tuple)
        assert auths[1].verify(got)

    def test_prepare_with_request_batch(self, auths, version):
        prepare = PreparePayload(
            view=3,
            slot=17,
            signed_requests=tuple(
                _signed_request(auths, sequence=i, op=("put", f"k{i}", i)) for i in range(3)
            ),
        )
        signed = auths[1].sign(prepare)
        got = _roundtrip(KIND_PREPARE, signed, 1, version)
        assert got == signed
        assert auths[2].verify(got)
        inner = got.payload
        assert isinstance(inner, PreparePayload)
        assert inner.request_digest() == prepare.request_digest()
        for sm in inner.signed_requests:
            assert auths[2].verify(sm)

    def test_commit_embeds_signed_prepare(self, auths, version):
        signed_prepare = _signed_prepare(auths, view=1, slot=4)
        commit = CommitPayload(view=1, slot=4, prepare=signed_prepare)
        signed = auths[3].sign(commit)
        got = _roundtrip(KIND_COMMIT, signed, 3, version)
        assert got == signed
        assert auths[1].verify(got)
        assert auths[1].verify(got.payload.prepare)

    def test_reply_result_types(self, auths, version):
        for result in (None, 42, "value", ("ok", ("v", 1)), ("stale", 3, 9), True):
            reply = ReplyPayload(client=N + 1, sequence=7, result=result, replica=2, view=5)
            signed = auths[2].sign(reply)
            got = _roundtrip(KIND_REPLY, signed, 2, version)
            assert got == signed
            assert type(got.payload.result) is type(result)
            assert auths[4].verify(got)

    def test_checkpoint_and_certificate(self, auths, version):
        vote = CheckpointPayload(view=2, slot_count=128, state_digest="ab" * 32)
        signed_vote = auths[1].sign(vote)
        got_vote = _roundtrip(KIND_CHECKPOINT, signed_vote, 1, version)
        assert got_vote == signed_vote

        cert = CheckpointCertificate(
            votes=tuple(auths[pid].sign(vote) for pid in (1, 2, 3))
        )
        got = _roundtrip("xp.state", cert, 1, version)
        assert got == cert
        assert isinstance(got, CheckpointCertificate)
        assert got.payload == vote
        for sm in got.votes:
            assert auths[5].verify(sm)

    def test_view_change_full_round_trip(self, auths, version):
        snapshot = ("xp-snapshot", 2, (("request", N + 1, 0, ("put", "k", 1)),), (), ())
        payload = ViewChangePayload(
            new_view=6,
            committed=(_certificate(auths, view=0, slot=0), _certificate(auths, view=0, slot=1)),
            prepared=((2, _signed_prepare(auths, view=0, slot=2)),),
            checkpoint=CheckpointCertificate(
                votes=tuple(
                    auths[pid].sign(CheckpointPayload(view=0, slot_count=2, state_digest="d" * 8))
                    for pid in (1, 2, 3)
                )
            ),
            snapshot=snapshot,
        )
        signed = auths[2].sign(payload)
        got = _roundtrip(KIND_VIEWCHANGE, signed, 2, version)
        assert got == signed
        assert auths[1].verify(got)
        inner = got.payload
        assert isinstance(inner, ViewChangePayload)
        assert isinstance(inner.committed[0], CommitCertificate)
        assert isinstance(inner.prepared[0], tuple) and inner.prepared[0][0] == 2
        assert isinstance(inner.snapshot, tuple)

    def test_view_change_without_checkpoint(self, auths, version):
        payload = ViewChangePayload(new_view=1, committed=(), prepared=())
        signed = auths[4].sign(payload)
        got = _roundtrip(KIND_VIEWCHANGE, signed, 4, version)
        assert got == signed
        assert got.payload.checkpoint is None
        assert got.payload.snapshot is None

    def test_tampered_request_fails_verification(self, auths, version):
        signed = _signed_request(auths)
        body = encode_frame_body(KIND_REQUEST, signed, N + 1, version=version)
        _, got, _ = decode_frame_body(body)
        assert auths[1].verify(got)
        forged = ClientRequest(client=got.payload.client, sequence=got.payload.sequence,
                               op=("put", "k", 999))
        forged_body = encode_frame_body(
            KIND_REQUEST,
            type(got)(forged, got.signature),
            N + 1,
            version=version,
        )
        _, tampered, _ = decode_frame_body(forged_body)
        assert not auths[1].verify(tampered)


class TestStrictDecoding:
    def test_request_op_must_be_tuple(self):
        # REQUEST tag, client 6, sequence 0, then an empty *list* op.
        body = hand_built("xp.request", 6, [0x12, 0x0C, 0x00, 0x08, 0x00])
        with pytest.raises(WireError):
            decode_frame_body(body)
        good = hand_built("xp.request", 6, [0x12, 0x0C, 0x00, 0x07, 0x00])
        assert decode_frame_body(good)[1] == ClientRequest(6, 0, ())

    def test_snapshot_must_be_tuple_or_none(self):
        # VIEW-CHANGE tag, view 1, no history, no checkpoint, list snapshot.
        body = hand_built("xp.viewchange", 2, [0x18, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00])
        with pytest.raises(WireError):
            decode_frame_body(body)
        good = hand_built("xp.viewchange", 2, [0x18, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00])
        assert decode_frame_body(good)[1] == ViewChangePayload(1, (), (), None, ())

    def test_v2_truncated_reply_raises(self, auths=None):
        registry = KeyRegistry(3)
        auth = Authenticator(registry, 1)
        reply = auth.sign(ReplyPayload(client=2, sequence=0, result=None, replica=1, view=0))
        body = encode_frame_body("xp.reply", reply, 1, version=WIRE_V2)
        for cut in (len(body) // 2, len(body) - 1):
            with pytest.raises(WireError):
                decode_frame_body(body[:cut])
