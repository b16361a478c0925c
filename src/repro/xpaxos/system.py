"""XPaxos systems by quorum-policy *mode* — a name for two selectors.

The paper compares XPaxos' original quorum policy (try the next quorum
of the enumeration) with Quorum Selection driving the views.  The
experiments and most tests say ``mode="enumeration"`` / ``"selection"``;
assembly itself is :func:`repro.protocol.system.build_backend_system`.
"""

from __future__ import annotations

from typing import Any

from repro.protocol.system import ProtocolSystem, build_backend_system
from repro.util.errors import ConfigurationError

#: ``mode`` -> the selector that implements it.
MODE_SELECTORS = {"selection": "qs", "enumeration": "enum"}


def build_system(n: int, f: int, mode: str = "selection", **options: Any) -> ProtocolSystem:
    """Build a ready-to-run XPaxos system.

    ``options`` are :func:`~repro.protocol.system.build_backend_system`'s
    (``clients``, ``client_ops``, ``seed``, ``batch_size``, ...).
    """
    if mode not in MODE_SELECTORS:
        raise ConfigurationError(f"unknown mode {mode!r}")
    return build_backend_system("xpaxos", n, f, MODE_SELECTORS[mode], **options)
