"""Wall-clock timer service with the simulator scheduler's semantics.

The simulator's :class:`~repro.sim.scheduler.Scheduler` gives modules
three guarantees their logic depends on:

- :meth:`schedule` returns a :class:`~repro.sim.events.ScheduledEvent`
  whose ``cancelled`` flag is checked *at fire time* (lazy cancellation —
  :class:`~repro.host.TimerHandle` relies on it);
- fired events are one-shot and drop their callback reference;
- ``schedule_every`` re-arms *after* the action runs, so a slow action
  never overlaps itself and a ``cancel()`` from inside the action stops
  the loop (both inherit it from
  :class:`~repro.sim.scheduler.SchedulerBase`).

:class:`NetTimerService` reproduces those semantics on top of an asyncio
event loop: ``now`` is wall seconds since service start (so timestamps
read like simulation time starting at 0), and firing happens on the loop
thread — the same single-threaded execution discipline modules enjoy in
the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.sim.events import ScheduledEvent
from repro.sim.scheduler import SchedulerBase
from repro.util.errors import SimulationError


class NetTimerService(SchedulerBase):
    """Scheduler-compatible timers driven by an asyncio event loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self._next_seq = 0
        self.timers_fired = 0
        self.timers_cancelled = 0

    @property
    def now(self) -> float:
        """Wall seconds since the service was created."""
        return self._loop.time() - self._t0

    # ------------------------------------------------------------- one-shots

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Run ``action`` after ``delay`` wall seconds; lazy-cancellable."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = ScheduledEvent(
            time=self.now + delay, seq=self._next_seq, action=action, label=label
        )
        self._next_seq += 1

        def fire() -> None:
            if event.cancelled:
                self.timers_cancelled += 1
                return
            callback = event.action
            event.action = None  # one-shot, as in the simulator
            self.timers_fired += 1
            if callback is not None:
                callback()

        self._loop.call_later(max(0.0, delay), fire)
        return event

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule at an absolute service time (seconds since start)."""
        return self.schedule(time - self.now, action, label=label)
