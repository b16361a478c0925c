"""Per-process harness: module stack, timers, send/broadcast helpers.

Figure 1 of the paper composes each process out of three modules — a
failure detector, a quorum-selection module, and the application — with
events between modules processed in production order.  :class:`ProcessHost`
is that composition point: the network hands received messages to the
host, the host routes them through the failure detector (when one is
installed, so authentication and expectation matching happen first), and
the failure detector's ``DELIVER`` output is dispatched to whichever
modules subscribed to the message kind.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.crypto.authenticator import Authenticator
from repro.sim.events import TimerHandle
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler
from repro.util.errors import SimulationError
from repro.util.eventlog import EventLog
from repro.util.ids import ProcessId

DeliveryHandler = Callable[[str, Any, ProcessId], None]


class Module:
    """Base class for protocol modules living on a :class:`ProcessHost`.

    Subclasses receive deliveries through the callbacks they subscribe and
    may use ``self.host`` for timers, sending, and signing.  ``start()`` is
    invoked once when the simulation begins.
    """

    def __init__(self, host: "ProcessHost") -> None:
        self.host = host

    @property
    def pid(self) -> ProcessId:
        return self.host.pid

    def start(self) -> None:
        """Hook run at simulation start; default does nothing."""

    def recover(self) -> None:
        """Hook run when the host recovers from a crash; default no-op.

        Modules with self-rearming timers (heartbeats, probes) restart
        them here — crash cancelled every pending timer.
        """


class ProcessHost:
    """One simulated process: identity, module stack, timers, channels."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        authenticator: Authenticator,
        log: Optional[EventLog] = None,
    ) -> None:
        self.pid = pid
        self.network = network
        self.authenticator = authenticator
        self.log = log if log is not None else network.log
        self.obs = network.obs
        self.running = True
        self.fd: Optional[Any] = None  # duck-typed FailureDetector
        self._subscribers: Dict[str, List[DeliveryHandler]] = {}
        self._modules: List[Module] = []
        #: Pending timers only (insertion-ordered): a handle leaves when it
        #: fires or is cancelled.
        self._timers: Dict[TimerHandle, None] = {}
        network.register_host(self)

    # --------------------------------------------------------------- modules

    @property
    def scheduler(self) -> Scheduler:
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.network.scheduler.clock.now

    def add_module(self, module: Module) -> Module:
        """Attach a module; it will be started with the simulation."""
        self._modules.append(module)
        return module

    def subscribe(self, kind: str, handler: DeliveryHandler) -> None:
        """Route delivered messages of ``kind`` to ``handler``."""
        self._subscribers.setdefault(kind, []).append(handler)

    def start(self) -> None:
        """Start the failure detector (if any) and all modules."""
        if self.fd is not None and hasattr(self.fd, "start"):
            self.fd.start()
        for module in self._modules:
            module.start()

    # -------------------------------------------------------------- receiving

    def on_receive(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Network entry point — the paper's ``<RECEIVE, m, i>`` event."""
        if not self.running:
            return
        if self.fd is not None:
            self.fd.on_receive(kind, payload, src)
        else:
            self.deliver(kind, payload, src)

    def deliver(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Dispatch a delivered message — the paper's ``<DELIVER, m, i>``.

        Called by the failure detector after authentication (or directly by
        :meth:`on_receive` on hosts without one).  Unknown kinds are
        dropped silently: a Byzantine sender may emit arbitrary tags.
        """
        if not self.running:
            return
        for handler in self._subscribers.get(kind, ()):  # copy not needed: no unsubscribe
            handler(kind, payload, src)

    # ---------------------------------------------------------------- sending

    def send(self, dst: ProcessId, kind: str, payload: Any) -> None:
        """Send one message over the network (no implicit signing)."""
        if not self.running:
            return
        self.network.send(self.pid, dst, kind, payload)

    def broadcast(self, targets: Iterable[ProcessId], kind: str, payload: Any) -> None:
        """Send to every target; include ``self.pid`` in ``targets`` for
        the paper's "to all including self" broadcasts."""
        if not self.running:
            return
        for dst in sorted(set(targets)):
            if dst == self.pid:
                # Local self-delivery bypasses the network but still goes
                # through the module-ordering path (scheduled, not inline),
                # preserving "events processed in the order produced".
                self.scheduler.schedule(
                    0.0, lambda k=kind, p=payload: self.on_receive(k, p, self.pid),
                    label=f"self-deliver:{kind}@p{self.pid}",
                )
            else:
                self.network.send(self.pid, dst, kind, payload)

    # ----------------------------------------------------------------- timers

    def set_timer(self, delay: float, action: Callable[[], None], label: str = "") -> TimerHandle:
        """Arm a one-shot timer; returns a cancellation handle."""
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        handle: Optional[TimerHandle] = None

        def fire() -> None:
            if not self.running:
                return
            handle._mark_fired()  # closure cell: bound before any fire time
            action()

        event = self.scheduler.schedule(delay, fire, label=label or "timer")
        handle = TimerHandle(event, self._timers)
        return handle

    # ------------------------------------------------------------------ crash

    def crash(self) -> None:
        """Stop the process: no further receives, sends, or timer firings.

        Used by the benign-crash fault behaviour; from the network's point
        of view a crashed process simply goes silent, which is exactly what
        the failure detector must learn to suspect.
        """
        self.running = False
        for timer in list(self._timers):
            timer.cancel()
        self.log.append(self.now, self.pid, "crash")
        self.obs.fault_injected(self.pid, self.now)

    def recover(self) -> None:
        """Restart a crashed process with its state intact (crash-recovery).

        The paper's *eventual detection* is explicitly modelled on the
        crash-recovery world (its reference [9]): a process may fail and
        come back, suspicions against it are cancelled when it resumes —
        but Quorum Selection's epoch-stamped matrix still remembers, so a
        recovered process stays out of the quorum until the epoch moves
        past its suspicion marks.
        """
        if self.running:
            return
        self.running = True
        self.log.append(self.now, self.pid, "recover")
        self.obs.fault_cleared(self.pid, self.now)
        if self.fd is not None and hasattr(self.fd, "recover"):
            self.fd.recover()
        for module in self._modules:
            module.recover()
