"""IBFT payloads over the wire: type-identical round-trips.

The IBFT backend's message kinds must survive framing with enough type
fidelity that protocol signatures
still verify on the decoded objects — votes stay digest-only strings,
certificates keep their nested signed messages, and round changes carry
the shared state-transfer payloads (checkpoint plus certified suffix)
under IBFT's own kinds with IBFT certificates inside.

Plain per-kind round-trips (NEW-ROUND, the kind-id pins) live in
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
from repro.ibft.messages import (
    KIND_COMMIT,
    KIND_PREPARE,
    KIND_PREPREPARE,
    KIND_ROUNDCHANGE,
    IbftCommitCertificate,
    IbftCommitPayload,
    IbftPreparePayload,
    PrePreparePayload,
)
from repro.xpaxos.messages import (
    CheckpointCertificate,
    CheckpointPayload,
    ClientRequest,
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


def _signed_preprepare(auths, round=0, slot=0, leader=1, batch=1):
    preprepare = PrePreparePayload(
        round=round,
        slot=slot,
        signed_requests=tuple(
            _signed_request(auths, sequence=i, op=("put", f"k{i}", i))
            for i in range(batch)
        ),
    )
    return auths[leader].sign(preprepare)


def _certificate(auths, round=0, slot=0, voters=(2, 3)):
    signed_preprepare = _signed_preprepare(auths, round=round, slot=slot)
    wanted = signed_preprepare.payload.request_digest()
    commits = tuple(
        auths[pid].sign(
            IbftCommitPayload(round=round, slot=slot, request_digest=wanted)
        )
        for pid in voters
    )
    return IbftCommitCertificate(preprepare=signed_preprepare, commits=commits)


def _roundtrip(kind, payload, src, version):
    body = encode_frame_body(kind, payload, src, version=version)
    got_kind, got_payload, got_src = decode_frame_body(body)
    assert (got_kind, got_src) == (kind, src)
    return got_payload


@pytest.mark.parametrize("version", [WIRE_V2])
class TestIbftRoundTrips:
    def test_preprepare_with_request_batch(self, auths, version):
        signed = _signed_preprepare(auths, round=3, slot=17, batch=3)
        got = _roundtrip(KIND_PREPREPARE, signed, 1, version)
        assert got == signed
        assert auths[2].verify(got)
        inner = got.payload
        assert isinstance(inner, PrePreparePayload)
        assert inner.request_digest() == signed.payload.request_digest()
        for sm in inner.signed_requests:
            assert auths[2].verify(sm)
            assert isinstance(sm.payload.op, tuple)

    def test_prepare_and_commit_votes_stay_digest_only(self, auths, version):
        wanted = _signed_preprepare(auths).payload.request_digest()
        for kind, cls in (
            (KIND_PREPARE, IbftPreparePayload),
            (KIND_COMMIT, IbftCommitPayload),
        ):
            vote = cls(round=2, slot=9, request_digest=wanted)
            signed = auths[3].sign(vote)
            got = _roundtrip(kind, signed, 3, version)
            assert got == signed
            assert auths[1].verify(got)
            assert type(got.payload) is cls
            assert got.payload.request_digest == wanted
            assert isinstance(got.payload.request_digest, str)

    def test_commit_certificate_nested_signatures_survive(self, auths, version):
        cert = _certificate(auths, round=1, slot=4)
        got = _roundtrip("ibft.state", cert, 1, version)
        assert got == cert
        assert isinstance(got, IbftCommitCertificate)
        assert auths[5].verify(got.preprepare)
        for commit in got.commits:
            assert auths[5].verify(commit)
            assert commit.payload.request_digest == \
                got.preprepare.payload.request_digest()

    def test_round_change_full_round_trip(self, auths, version):
        checkpoint = CheckpointCertificate(votes=tuple(
            auths[pid].sign(CheckpointPayload(view=0, slot_count=16, state_digest="cd" * 32))
            for pid in (1, 2, 3)
        ))
        snapshot = ("xp-snapshot-svc", 16, 40, (("k", 1),), ())
        payload = ViewChangePayload(
            new_view=6,
            committed=(
                _certificate(auths, round=0, slot=16),
                _certificate(auths, round=0, slot=17),
            ),
            prepared=((18, _signed_preprepare(auths, round=0, slot=18)),),
            checkpoint=checkpoint,
            snapshot=snapshot,
        )
        signed = auths[2].sign(payload)
        got = _roundtrip(KIND_ROUNDCHANGE, signed, 2, version)
        assert got == signed
        assert auths[1].verify(got)
        inner = got.payload
        assert isinstance(inner, ViewChangePayload)
        assert isinstance(inner.committed[0], IbftCommitCertificate)
        assert isinstance(inner.prepared[0], tuple) and inner.prepared[0][0] == 18
        assert isinstance(inner.prepared[0][1].payload, PrePreparePayload)
        assert inner.snapshot == snapshot and isinstance(inner.snapshot, tuple)
        for vote in inner.checkpoint.votes:
            assert auths[4].verify(vote)

    def test_round_change_with_empty_history(self, auths, version):
        payload = ViewChangePayload(new_view=1, committed=(), prepared=())
        signed = auths[4].sign(payload)
        got = _roundtrip(KIND_ROUNDCHANGE, signed, 4, version)
        assert got == signed
        assert got.payload.committed == ()
        assert got.payload.prepared == ()
        assert got.payload.checkpoint is None and got.payload.snapshot is None

    def test_tampered_vote_fails_verification(self, auths, version):
        wanted = _signed_preprepare(auths).payload.request_digest()
        signed = auths[3].sign(
            IbftCommitPayload(round=2, slot=9, request_digest=wanted)
        )
        body = encode_frame_body(KIND_COMMIT, signed, 3, version=version)
        _, got, _ = decode_frame_body(body)
        assert auths[1].verify(got)
        forged = IbftCommitPayload(round=2, slot=9, request_digest="0" * 64)
        forged_body = encode_frame_body(
            KIND_COMMIT, type(got)(forged, got.signature), 3, version=version
        )
        _, tampered, _ = decode_frame_body(forged_body)
        assert not auths[1].verify(tampered)


class TestStrictDecoding:
    def test_vote_digest_must_be_string(self):
        # PREPARE tag, round 2, slot 9, then a digest that is not UTF-8.
        body = hand_built("ibft.prepare", 3, [0x1C, 0x04, 0x12, 0x02, 0xC3, 0x28])
        with pytest.raises(WireError):
            decode_frame_body(body)
        good = hand_built("ibft.prepare", 3, [0x1C, 0x04, 0x12, 0x02, 0x61, 0x62])
        assert decode_frame_body(good)[1] == IbftPreparePayload(2, 9, "ab")

    def test_preprepare_wrong_arity_raises(self):
        # PRE-PREPARE tag, round 0, slot 0, and no request batch.
        body = hand_built("ibft.preprepare", 1, [0x1B, 0x00, 0x00])
        with pytest.raises(WireError):
            decode_frame_body(body)
        good = hand_built("ibft.preprepare", 1, [0x1B, 0x00, 0x00, 0x00])
        assert decode_frame_body(good)[1] == PrePreparePayload(0, 0, ())

    def test_v2_truncated_round_change_raises(self, auths=None):
        registry = KeyRegistry(N + 2)
        auth = Authenticator(registry, 1)
        payload = ViewChangePayload(new_view=1, committed=(), prepared=())
        signed = auth.sign(payload)
        body = encode_frame_body(KIND_ROUNDCHANGE, signed, 1, version=WIRE_V2)
        for cut in (len(body) // 2, len(body) - 1):
            with pytest.raises(WireError):
                decode_frame_body(body[:cut])
