"""Live asyncio network runtime: the module stack over real TCP sockets.

Every protocol module in this repository is written against
:class:`repro.host.Host`; this package provides its second substrate —
real sockets, real clocks, real process crashes — so
:class:`~repro.core.quorum_selection.QuorumSelectionModule`, the failure
detector, and Follower Selection run *unchanged* outside the simulator.

Layers, bottom up:

- :mod:`repro.net.wire` — length-prefixed binary frames (struct-packed
  headers, varint-coded payloads), plus the multi-frame batch envelope
  authenticated by a single link-level HMAC.
- :mod:`repro.net.batch` — batching policy/buffer, the batch
  authenticator, and the hot-path wire statistics.
- :mod:`repro.net.loop` — optional uvloop activation (``--uvloop`` /
  ``REPRO_UVLOOP=1``) with a clean fallback where it is not installed.
- :mod:`repro.net.peer` — per-peer connections: dial-on-demand,
  coalesced + pipelined sends,
  reconnect with exponential backoff + jitter, bounded outbound queues
  whose overflow policy is *drop* (an omission failure — exactly the
  fault class Quorum Selection is built to tolerate).
- :mod:`repro.net.timers` — wall-clock timer service with the simulator
  scheduler's timer semantics.
- :mod:`repro.net.host` — :class:`NetHost`, the host over TCP.
- :mod:`repro.net.node` — one replica: host + stack + JSON event stream.
- :mod:`repro.net.cluster` — multi-OS-process loopback/LAN harness with
  scheduled crash/recovery injection (``python -m repro cluster``).
- :mod:`repro.net.parity` — the sim<->net parity harness: one crash
  schedule, both runtimes, same final quorum, Thm 3 bound respected.
"""

from repro.net.batch import BatchAuthenticator, BatchBuffer, BatchPolicy, WireStats
from repro.net.host import NetHost
from repro.net.loop import maybe_install_uvloop, uvloop_active, uvloop_available
from repro.net.peer import PeerManager, ReconnectPolicy
from repro.net.timers import NetTimerService
from repro.net.wire import (
    WIRE_V2,
    BatchAuthError,
    FrameDecoder,
    WireError,
    decode_frame_body,
    encode_frame,
    encode_frame_body,
)

__all__ = [
    "NetHost",
    "PeerManager",
    "ReconnectPolicy",
    "NetTimerService",
    "FrameDecoder",
    "WireError",
    "BatchAuthError",
    "encode_frame",
    "encode_frame_body",
    "decode_frame_body",
    "WIRE_V2",
    "BatchPolicy",
    "BatchBuffer",
    "BatchAuthenticator",
    "WireStats",
    "maybe_install_uvloop",
    "uvloop_active",
    "uvloop_available",
]
