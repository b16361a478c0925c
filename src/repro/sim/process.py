"""The simulator's host: :class:`~repro.host.Host` over the simulated network.

The event log and observability are the network's, shared by every
simulated process.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.authenticator import Authenticator
from repro.host import Host
from repro.sim.network import Network
from repro.util.eventlog import EventLog
from repro.util.ids import ProcessId


class ProcessHost(Host):
    """One simulated process on a :class:`~repro.sim.network.Network`."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        authenticator: Authenticator,
        log: Optional[EventLog] = None,
    ) -> None:
        super().__init__(
            pid,
            network.scheduler,
            authenticator,
            log if log is not None else network.log,
            network.obs,
        )
        self.network = network
        network.register_host(self)

    def _transmit(self, dst: ProcessId, kind: str, payload: Any) -> None:
        self.network.send(self.pid, dst, kind, payload)

    def _deliver_self(self, kind: str, payload: Any) -> None:
        # Bypasses the network but still goes through the module-ordering
        # path (scheduled, not inline).
        self.scheduler.schedule(
            0.0, lambda k=kind, p=payload: self.on_receive(k, p, self.pid),
            label=f"self-deliver:{kind}@p{self.pid}",
        )
