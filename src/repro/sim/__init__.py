"""Deterministic discrete-event simulation substrate.

The paper assumes an asynchronous message-passing system of ``n`` processes
connected by reliable channels, augmented with eventual synchrony for the
failure detector (Sections II and IV).  This package provides that world:

- :class:`Scheduler` — a deterministic event queue (time, then FIFO seq).
- :class:`LatencyModel` hierarchy — including
  :class:`EventuallySynchronousLatency`, which models a Global
  Stabilization Time (GST) after which message delays are bounded by
  ``delta`` (one "communication round" in the paper's vocabulary).
- :class:`Network` — reliable, optionally FIFO, channels with hooks that
  let an adversary manipulate traffic *of faulty processes only*, plus an
  opt-in :class:`ChaosConfig` lossy-channel model (drop / duplicate /
  reorder per link) for robustness testing.
- :class:`ReliableTransport` — ack + exponential-backoff retransmission
  with receiver-side dedup, restoring per-link reliability on top of a
  chaotic network.
- :class:`ProcessHost` — per-process harness wiring the failure detector,
  quorum-selection module, and application together, with timers.
- :class:`Simulation` — top-level builder/runner.
- :class:`MessageStats` — per-kind / per-link message accounting used by
  the message-savings experiments (E7).
"""

from repro.sim.clock import SimClock
from repro.sim.events import ScheduledEvent
from repro.sim.scheduler import RepeatingHandle, Scheduler
from repro.sim.latency import (
    LatencyModel,
    FixedLatency,
    UniformLatency,
    EventuallySynchronousLatency,
)
from repro.sim.network import (
    ChaosConfig,
    DELIVER,
    DROP,
    Envelope,
    LinkChaos,
    Network,
    SendAction,
)
from repro.sim.process import ProcessHost
from repro.sim.runtime import Simulation, SimulationConfig
from repro.sim.tracing import MessageStats
from repro.sim.transport import ReliableTransport

__all__ = [
    "SimClock",
    "ScheduledEvent",
    "RepeatingHandle",
    "Scheduler",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "EventuallySynchronousLatency",
    "Network",
    "Envelope",
    "SendAction",
    "ChaosConfig",
    "LinkChaos",
    "ReliableTransport",
    "DELIVER",
    "DROP",
    "ProcessHost",
    "Simulation",
    "SimulationConfig",
    "MessageStats",
]
