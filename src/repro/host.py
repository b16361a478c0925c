"""One process's host: module stack, timers, send/broadcast helpers.

Figure 1 of the paper composes each process out of three modules — a
failure detector, a quorum-selection module, and the application — with
events between modules processed in production order.  :class:`Host` is
that composition point: the substrate hands received messages to the
host, the host routes them through the failure detector (when one is
installed, so authentication and expectation matching happen first), and
the failure detector's ``DELIVER`` output is dispatched to whichever
modules subscribed to the message kind.  Modules never talk to a network
or an event loop directly, so the same module objects run on both
substrates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional

from repro.util.errors import SimulationError
from repro.util.ids import ProcessId

if TYPE_CHECKING:
    from repro.crypto.authenticator import Authenticator
    from repro.obs.observability import Observability
    from repro.sim.events import ScheduledEvent
    from repro.sim.scheduler import SchedulerBase
    from repro.util.eventlog import EventLog

DeliveryHandler = Callable[[str, Any, ProcessId], None]


class TimerHandle:
    """Cancellation handle returned by :meth:`Host.set_timer`.

    Cancellation is lazy: the event stays queued but is skipped when its
    time comes.  ``fired`` distinguishes "ran" from "cancelled first".
    ``owner`` is the host's table of pending timers; the handle leaves it
    when it fires or is cancelled, so the table holds only live timers.
    """

    __slots__ = ("_event", "fired", "_owner")

    def __init__(self, event: "ScheduledEvent", owner: Dict["TimerHandle", None]) -> None:
        self._event = event
        self.fired = False
        self._owner = owner
        owner[self] = None

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def active(self) -> bool:
        return not self._event.cancelled and not self.fired

    def cancel(self) -> None:
        self._event.cancelled = True
        self._forget()

    def _mark_fired(self) -> None:
        self.fired = True
        self._forget()

    def _forget(self) -> None:
        self._owner.pop(self, None)


class Module:
    """Base class for protocol modules living on a :class:`Host`.

    Subclasses receive deliveries through the callbacks they subscribe and
    may use ``self.host`` for timers, sending, and signing.  ``start()`` is
    invoked once when the host starts.
    """

    def __init__(self, host: "Host") -> None:
        self.host = host

    @property
    def pid(self) -> ProcessId:
        return self.host.pid

    def start(self) -> None:
        """Hook run at host start; default does nothing."""

    def recover(self) -> None:
        """Hook run when the host recovers from a crash; default no-op.

        Modules with self-rearming timers (heartbeats, probes) restart
        them here — crash cancelled every pending timer.
        """


class Host:
    """One process: identity, module stack, timers, channels.

    The substrates are :class:`~repro.sim.process.ProcessHost` (the
    deterministic simulator) and :class:`~repro.net.host.NetHost` (asyncio
    over TCP).  What a module may rely on: ``pid`` (1-based), ``running``
    (``False`` from :meth:`crash` until :meth:`recover`), ``fd`` (the
    failure detector, or ``None``; the FD sets it), ``authenticator``,
    ``log``, ``obs`` (the sim shares one across all hosts; a live node owns
    one), ``now``, ``scheduler`` (``schedule`` and ``schedule_every`` for
    environment-level work that outlives crashes), and the methods below.

    A substrate supplies ``scheduler`` (the simulator's
    :class:`~repro.sim.scheduler.Scheduler` or the wall-clock
    :class:`~repro.net.timers.NetTimerService`), :meth:`_transmit` and
    :meth:`_deliver_self`.  Their differences are deliberate:

    - **Where a frame goes.**  The sim hands every send to
      ``Network.send`` — a send to itself included, so it is delayed,
      counted and intercepted like any other.  Live, frames go to
      ``PeerManager.send``, and a send to itself is short-circuited into
      a local self-delivery.
    - **How a self-delivery is queued.**  The sim schedules a 0-delay
      event labelled ``self-deliver:{kind}@p{pid}``; live uses the event
      loop's ``call_soon``.  Either way it is deferred, never inline, so
      a handler's own broadcast is processed after that handler returns.
    - **Live-only ingress.**  :class:`~repro.net.host.NetHost` verifies
      claimed signatures before :meth:`on_receive`, registers its peer and
      wire collectors, and defaults its own log and observability.
    """

    def __init__(
        self,
        pid: ProcessId,
        scheduler: "SchedulerBase",
        authenticator: "Authenticator",
        log: "EventLog",
        obs: "Observability",
    ) -> None:
        self.pid = pid
        self.scheduler = scheduler
        self.authenticator = authenticator
        self.log = log
        self.obs = obs
        self.running = True
        self.fd: Optional[Any] = None  # duck-typed FailureDetector
        self._subscribers: Dict[str, List[DeliveryHandler]] = {}
        self._modules: List[Module] = []
        #: Pending timers only (insertion-ordered): a handle leaves when it
        #: fires or is cancelled.
        self._timers: Dict[TimerHandle, None] = {}

    @property
    def now(self) -> float:
        return self.scheduler.now

    # --------------------------------------------------------------- modules

    def add_module(self, module: Module) -> Module:
        """Attach a module; it will be started with the host."""
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
        """Substrate entry point — the paper's ``<RECEIVE, m, i>`` event."""
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
        """Send one message (no implicit signing)."""
        if not self.running:
            return
        self._transmit(dst, kind, payload)

    def broadcast(self, targets: Iterable[ProcessId], kind: str, payload: Any) -> None:
        """Send to every target; include ``self.pid`` in ``targets`` for
        the paper's "to all including self" broadcasts."""
        if not self.running:
            return
        for dst in sorted(set(targets)):
            if dst == self.pid:
                self._deliver_self(kind, payload)
            else:
                self._transmit(dst, kind, payload)

    def _transmit(self, dst: ProcessId, kind: str, payload: Any) -> None:
        """Hand one frame to the substrate."""
        raise NotImplementedError

    def _deliver_self(self, kind: str, payload: Any) -> None:
        """Queue a delivery to this host: deferred, never inline."""
        raise NotImplementedError

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

        The paper's benign crash: the process simply goes silent, which is
        exactly what the failure detector must learn to suspect.  State
        and (live) connections stay as they are.  Crashing a crashed host
        does nothing, so the fault is logged and timed from its first call.
        """
        if not self.running:
            return
        self.running = False
        for timer in list(self._timers):
            timer.cancel()
        now = self.now
        self.log.append(now, self.pid, "crash")
        self.obs.fault_injected(self.pid, now)

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
        now = self.now
        self.log.append(now, self.pid, "recover")
        self.obs.fault_cleared(self.pid, now)
        if self.fd is not None and hasattr(self.fd, "recover"):
            self.fd.recover()
        for module in self._modules:
            module.recover()
