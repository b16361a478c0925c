"""Per-process signing/verification capability and signed envelopes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, sign_payload, verify_payload
from repro.util.errors import AuthenticationError
from repro.util.ids import ProcessId, validate_pid
from repro.util.wire_schema import VALUE, value, wire_message


@wire_message(0x0C, payload=VALUE, signature=value(Signature))
@dataclass(frozen=True)
class SignedMessage:
    """A payload together with its signature — the paper's ``<m>_sigma_i``.

    ``payload`` is expected to be canonically encodable (see
    :mod:`repro.crypto.digests`); protocol message dataclasses implement
    ``canonical()`` for this purpose.
    """

    payload: Any
    signature: Signature

    @property
    def signer(self) -> ProcessId:
        return self.signature.signer

    def canonical(self) -> Any:
        return ("signed", self.payload, self.signature.canonical())


# Per-object verification memo.  A broadcast hands the *same*
# SignedMessage object to every receiver; keying by ``id`` (with the
# message and registry pinned in the value, so a recycled id can never
# alias) answers the n-1 repeat verifications with one dict hit and no
# payload re-hashing.  Cleared wholesale when full.
_VERIFY_MEMO: dict = {}
_VERIFY_MEMO_LIMIT = 65536


class Authenticator:
    """Signing capability bound to one process id.

    The simulation constructs one authenticator per process.  Because the
    instance holds only its own id (the registry's secrets are reached via
    the registry it shares with everyone), a Byzantine process exercising
    this API can equivocate but cannot impersonate others — the paper's
    "cryptographic primitives cannot be broken" assumption.
    """

    def __init__(self, registry: KeyRegistry, pid: ProcessId) -> None:
        validate_pid(pid, registry.n)
        self._registry = registry
        self.pid = pid

    @property
    def registry(self) -> KeyRegistry:
        """The shared key registry (read-only; used to derive link MACs)."""
        return self._registry

    def sign(self, payload: Any) -> SignedMessage:
        """Sign a payload as this process."""
        return SignedMessage(payload, sign_payload(self._registry, self.pid, payload))

    def verify(self, message: SignedMessage) -> bool:
        """Check a signed message; ``False`` on any mismatch."""
        key = id(message)
        hit = _VERIFY_MEMO.get(key)
        if hit is not None and hit[0] is message and hit[1] is self._registry:
            return hit[2]
        result = verify_payload(self._registry, message.signature, message.payload)
        if len(_VERIFY_MEMO) >= _VERIFY_MEMO_LIMIT:
            _VERIFY_MEMO.clear()
        _VERIFY_MEMO[key] = (message, self._registry, result)
        return result

    def require_valid(self, message: SignedMessage) -> SignedMessage:
        """Verify or raise :class:`AuthenticationError` (harness helper)."""
        if not self.verify(message):
            raise AuthenticationError(
                f"signature of p{message.signer} failed verification at p{self.pid}"
            )
        return message
