"""MAC-based simulated signatures over canonical payload encodings."""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.digests import canonical_encode_cached
from repro.crypto.keys import KeyRegistry
from repro.util.ids import ProcessId
from repro.util.wire_schema import BYTES, INT, wire_message


@wire_message(0x0D, signer=INT, tag=BYTES)
@dataclass(frozen=True)
class Signature:
    """A signature: claimed signer id plus MAC tag over the payload.

    Equality/hash make signatures usable in sets and as message parts; the
    tag alone is never trusted — verification always recomputes it from the
    claimed signer's registry key.
    """

    signer: ProcessId
    tag: bytes

    def canonical(self) -> Any:
        return ("sig", self.signer, self.tag)


def sign_payload(registry: KeyRegistry, signer: ProcessId, payload: Any) -> Signature:
    """Sign a payload with the signer's registry secret."""
    secret = registry.secret_for(signer)
    tag = hmac.new(secret, canonical_encode_cached(payload), hashlib.sha256).digest()
    return Signature(signer=signer, tag=tag)


# Verification memo.  A broadcast's signature is verified once per
# receiver, i.e. n-1 times for identical inputs; the outcome is a pure
# function of (secret, encoded payload, tag), so the full triple is the
# memo key — registries with different secrets can never collide.  Cleared
# wholesale when full (re-verification, never a wrong answer).
_VERIFY_CACHE: dict = {}
_VERIFY_LIMIT = 65536


def verify_payload(registry: KeyRegistry, signature: Signature, payload: Any) -> bool:
    """Check a signature against a payload.

    Returns ``False`` (never raises) for unknown signers or wrong tags, so
    protocol code can treat bad signatures as silently droppable, matching
    the "correctly authenticated" filter in the paper's failure detector.
    """
    if signature.signer not in registry:
        return False
    secret = registry.secret_for(signature.signer)
    encoded = canonical_encode_cached(payload)
    key = (secret, signature.tag, encoded)
    cached = _VERIFY_CACHE.get(key)
    if cached is None:
        expected = hmac.new(secret, encoded, hashlib.sha256).digest()
        cached = hmac.compare_digest(expected, signature.tag)
        if len(_VERIFY_CACHE) >= _VERIFY_LIMIT:
            _VERIFY_CACHE.clear()
        _VERIFY_CACHE[key] = cached
    return cached
