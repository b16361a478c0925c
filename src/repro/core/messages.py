"""Wire payloads of the Quorum/Follower Selection protocols."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.util.wire_schema import (
    INT, STR, VALUE, pair, register_kind_ids, tuple_of, wire_message,
)

KIND_UPDATE = "qs.update"
KIND_FOLLOWERS = "fs.followers"
KIND_DIGEST = "qs.digest"
KIND_ROWS = "qs.rows"
register_kind_ids({KIND_UPDATE: 4, KIND_FOLLOWERS: 5, KIND_DIGEST: 6, KIND_ROWS: 7})


@wire_message(0x0E, row=tuple_of(INT))
@dataclass(frozen=True)
class UpdatePayload:
    """``<UPDATE, suspected[i]>_sigma_i`` — one process's signed row.

    ``row`` is the 1-based-dense tuple produced by
    :meth:`repro.core.suspicion_matrix.SuspicionMatrix.row` (index 0 is a
    placeholder 0).  The signer of the enclosing
    :class:`~repro.crypto.authenticator.SignedMessage` identifies the row
    owner; receivers merge into that row only, so a Byzantine process can
    lie about *its own* suspicions but never write another's row.
    """

    row: Tuple[int, ...]

    def canonical(self):
        return ("update", self.row)


@wire_message(
    0x0F,
    followers=tuple_of(INT), line_edges=tuple_of(pair(INT, INT)), epoch=INT,
)
@dataclass(frozen=True)
class FollowersPayload:
    """``<FOLLOWERS, Fw, L, e>_sigma_j`` — a leader's follower choice.

    ``followers`` is the sorted tuple ``Fw`` (``q - 1`` ids, leader
    excluded per Definition 3a); ``line_edges`` is the edge set of the line
    subgraph ``L`` the leader derived its leadership from (receivers check
    Definition 3b-d against it); ``epoch`` binds the message to one epoch.
    """

    followers: Tuple[int, ...]
    line_edges: Tuple[Tuple[int, int], ...]
    epoch: int

    def canonical(self):
        return ("followers", self.followers, self.line_edges, self.epoch)


@wire_message(0x10, epoch=INT, row_digests=tuple_of(STR))
@dataclass(frozen=True)
class MatrixDigestPayload:
    """``<DIGEST, e, d_0..d_n>`` — anti-entropy summary of the local matrix.

    ``row_digests[l]`` is the digest of row ``l`` of the sender's suspicion
    matrix (index 0 is the digest of the unused placeholder row).  The
    message is deliberately unsigned: a forged digest can at worst trigger
    a redundant row shipment, and max-merge makes redundancy harmless —
    whereas signing every periodic probe would be pure overhead.
    """

    epoch: int
    row_digests: Tuple[str, ...]

    def canonical(self):
        return ("digest", self.epoch, self.row_digests)


@wire_message(0x11, certs=tuple_of(VALUE))
@dataclass(frozen=True)
class RowCertsPayload:
    """``<ROWS, certs>`` — anti-entropy response carrying signed rows.

    Third parties cannot re-sign another process's row, so the only way to
    ship merged matrix state is to relay the original signed ``UPDATE``
    messages ("row certificates").  Each cert is verified independently by
    the receiver; the envelope itself needs no signature.
    """

    certs: Tuple[Any, ...]

    def canonical(self):
        return ("rows", tuple(c.canonical() if hasattr(c, "canonical") else c for c in self.certs))
