"""The live runtime's host: the host API over sockets and wall clocks.

:class:`NetHost` is a line-for-line semantic twin of
:class:`repro.sim.process.ProcessHost` (see :mod:`repro.hostapi` for the
contract), with the simulator's substrate swapped out:

- sends go through a :class:`~repro.net.peer.PeerManager` (TCP frames)
  instead of the simulated network;
- timers come from :class:`~repro.net.timers.NetTimerService` (asyncio
  ``call_later``) instead of the discrete-event scheduler;
- self-delivery on broadcast is scheduled onto the event loop
  (``call_soon``), preserving the simulator's "events processed in the
  order produced" discipline rather than recursing inline.

Ingress hardening, per the paper's authentication assumption: frames
whose payload claims a signature are verified *here*, before any module
(even the failure detector) sees them; failures are counted in the peer
stats and dropped.  Unsigned payloads pass through — deliberately so,
because the anti-entropy digest probe is unsigned by design — and the
failure detector applies its own ``require_signatures`` policy next.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.crypto.authenticator import Authenticator, SignedMessage
from repro.net.batch import BatchAuthenticator
from repro.net.peer import PeerManager
from repro.obs.observability import (
    Observability,
    peer_stats_collector,
    wire_stats_collector,
)
from repro.net.timers import NetTimerService
from repro.sim.events import TimerHandle
from repro.util.errors import SimulationError
from repro.util.eventlog import EventLog
from repro.util.ids import ProcessId

DeliveryHandler = Callable[[str, Any, ProcessId], None]


class NetHost:
    """One live process: identity, module stack, wall timers, TCP links."""

    def __init__(
        self,
        pid: ProcessId,
        manager: PeerManager,
        authenticator: Authenticator,
        timers: NetTimerService,
        log: Optional[EventLog] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.pid = pid
        self.manager = manager
        self.authenticator = authenticator
        self.timers = timers
        self.log = log if log is not None else EventLog()
        # Per-node observability (one registry per OS process; the node
        # runner exports it as a JSONL event and Prometheus text).  Wire
        # statistics are folded in at snapshot time.
        self.obs = obs if obs is not None else Observability()
        self.obs.add_collector(peer_stats_collector(manager.stats, pid))
        self.obs.add_collector(wire_stats_collector(manager, pid))
        # Derive the link-level batch MAC key from the same registry the
        # protocol signatures use: batches from any registered peer can
        # then be verified wholesale with one HMAC per envelope.
        if manager.batch_auth is None:
            registry = getattr(authenticator, "registry", None)
            if registry is not None:
                manager.batch_auth = BatchAuthenticator(registry, pid)
        self.running = True
        self.fd: Optional[Any] = None  # duck-typed FailureDetector
        self._subscribers: Dict[str, List[DeliveryHandler]] = {}
        self._modules: List[Any] = []
        #: Pending timers only (insertion-ordered): a handle leaves when it
        #: fires or is cancelled.
        self._timers: Dict[TimerHandle, None] = {}
        # Ingress drops while crashed (a crashed process reads nothing).
        self.frames_ignored_crashed = 0
        manager.ingress = self.ingress

    # --------------------------------------------------------------- modules

    @property
    def scheduler(self) -> NetTimerService:
        """Environment-level scheduling surface (``schedule_every`` etc.)."""
        return self.timers

    @property
    def now(self) -> float:
        return self.timers.now

    def add_module(self, module: Any) -> Any:
        """Attach a module; it will be started with the node."""
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

    def ingress(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Wire entry point: authenticate signed envelopes, then receive.

        The signer is re-verified by the failure detector too (the
        verification memo makes the second check a dict hit), but doing
        it at ingress lets the runtime count unauthenticated frames as a
        *wire*-level statistic and drop them before any protocol code.
        """
        if not self.running:
            self.frames_ignored_crashed += 1
            return
        if isinstance(payload, SignedMessage) and not self.authenticator.verify(payload):
            self.manager.stats.frames_auth_rejected += 1
            self.log.append(self.now, self.pid, "net.authfail", claimed=payload.signer, via=src)
            return
        self.on_receive(kind, payload, src)

    def on_receive(self, kind: str, payload: Any, src: ProcessId) -> None:
        """The paper's ``<RECEIVE, m, i>`` event (same flow as the sim)."""
        if not self.running:
            return
        if self.fd is not None:
            self.fd.on_receive(kind, payload, src)
        else:
            self.deliver(kind, payload, src)

    def deliver(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Dispatch a delivered message — the paper's ``<DELIVER, m, i>``."""
        if not self.running:
            return
        for handler in self._subscribers.get(kind, ()):
            handler(kind, payload, src)

    # ---------------------------------------------------------------- sending

    def send(self, dst: ProcessId, kind: str, payload: Any) -> None:
        """Send one message (no implicit signing); self-sends are scheduled."""
        if not self.running:
            return
        if dst == self.pid:
            self._schedule_self_delivery(kind, payload)
        else:
            self.manager.send(dst, kind, payload)

    def broadcast(self, targets: Iterable[ProcessId], kind: str, payload: Any) -> None:
        """Send to every target; include ``self.pid`` for "to all incl. self"."""
        if not self.running:
            return
        for dst in sorted(set(targets)):
            if dst == self.pid:
                self._schedule_self_delivery(kind, payload)
            else:
                self.manager.send(dst, kind, payload)

    def _schedule_self_delivery(self, kind: str, payload: Any) -> None:
        # call_soon, not inline: preserves the simulator's module-ordering
        # path (a self-addressed UPDATE is processed after the handler
        # that produced it returns, exactly like the sim's 0-delay event).
        self.timers._loop.call_soon(lambda: self.on_receive(kind, payload, self.pid))

    # ----------------------------------------------------------------- timers

    def set_timer(self, delay: float, action: Callable[[], None], label: str = "") -> TimerHandle:
        """Arm a one-shot wall-clock timer; returns a cancellation handle."""
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        handle: Optional[TimerHandle] = None

        def fire() -> None:
            if not self.running:
                return
            handle._mark_fired()  # closure cell: bound before any fire time
            action()

        event = self.timers.schedule(delay, fire, label=label or "timer")
        handle = TimerHandle(event, self._timers)
        return handle

    # ------------------------------------------------------------------ crash

    def crash(self) -> None:
        """Silence the process: no further receives, sends, or timers.

        Connections stay as they are — from the peers' point of view the
        process simply goes quiet (the benign-crash fault of the paper;
        an actual SIGKILL additionally resets its sockets, which the
        cluster harness exercises in ``process`` kill mode).
        """
        self.running = False
        for timer in list(self._timers):
            timer.cancel()
        self.log.append(self.now, self.pid, "crash")
        self.obs.fault_injected(self.pid, self.now)

    def recover(self) -> None:
        """Resume with state intact (crash-recovery, as in the simulator)."""
        if self.running:
            return
        self.running = True
        self.log.append(self.now, self.pid, "recover")
        self.obs.fault_cleared(self.pid, self.now)
        if self.fd is not None and hasattr(self.fd, "recover"):
            self.fd.recover()
        for module in self._modules:
            module.recover()
