"""Deterministic discrete-event scheduler."""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.sim.clock import SimClock
from repro.sim.events import ScheduledEvent
from repro.util.errors import SimulationError


@contextmanager
def _relaxed_gc() -> Iterator[None]:
    """Raise the gen-0 collection threshold for the duration of a run.

    A busy simulation allocates millions of short-lived containers while
    holding large long-lived structures (event log, timer handles, the
    heap itself); the default gen-0 threshold of ~700 makes the collector
    re-scan those survivors constantly — nearly half the wall time of an
    n=30 run.  GC semantics never affect simulation results, so this only
    trades a bounded amount of peak memory for speed.  The previous
    thresholds are restored on exit.
    """
    old = gc.get_threshold()
    gc.set_threshold(max(old[0], 200_000), old[1], old[2])
    try:
        yield
    finally:
        gc.set_threshold(*old)


class RepeatingHandle:
    """Cancellation handle for :meth:`SchedulerBase.schedule_every` loops.

    Cancelling stops the loop permanently: the currently queued firing is
    skipped and no further one is armed.
    """

    __slots__ = ("cancelled", "_event")

    def __init__(self) -> None:
        self.cancelled = False
        self._event = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancelled = True


class SchedulerBase:
    """What the simulated and the wall-clock scheduler share.

    Subclasses provide ``now`` and ``schedule(delay, action, label)``
    returning a lazily cancellable event; repeating work is written once,
    here, on top of ``schedule``.
    """

    def schedule_every(
        self, period: float, action: Callable[[], None], label: str = ""
    ) -> RepeatingHandle:
        """Run ``action`` every ``period`` time units until cancelled.

        The first firing is one period from now; each firing re-arms the
        next *after* the action runs, so a slow action never overlaps
        itself and a cancel() from inside the action stops the loop.  Used
        for environment-level periodic work (anti-entropy sync, partition
        schedules) that should keep ticking across process crash/recover
        cycles — unlike :meth:`repro.host.Host.set_timer` timers, which
        die with the process.
        """
        if period <= 0:
            raise SimulationError(f"repeating period must be positive, got {period}")
        handle = RepeatingHandle()

        def fire() -> None:
            if handle.cancelled:
                return
            action()
            if not handle.cancelled:
                handle._event = self.schedule(period, fire, label=label)

        handle._event = self.schedule(period, fire, label=label)
        return handle


class Scheduler(SchedulerBase):
    """Priority-queue event loop with a hard step budget.

    The budget guards against accidental event storms (e.g. a protocol bug
    that re-broadcasts forever): exceeding it raises
    :class:`SimulationError` instead of hanging the test suite.
    """

    def __init__(self, clock: Optional[SimClock] = None, max_steps: int = 2_000_000) -> None:
        self.clock = clock or SimClock()
        self.max_steps = max_steps
        self.steps_executed = 0
        self._queue: list = []
        self._next_seq = 0
        self._live = 0  # queued, non-cancelled events (kept exact, O(1) pending)

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = ScheduledEvent(
            time=self.clock.now + delay, seq=self._next_seq, action=action, label=label
        )
        event._on_cancel_changed = self._on_cancel_changed
        self._next_seq += 1
        self._live += 1
        # Heap entries are (time, seq, event) tuples: ordering never reaches
        # the event object, so heap sifting compares plain floats/ints.
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def _on_cancel_changed(self, now_cancelled: bool) -> None:
        """Keep the live counter exact as queued events flip ``cancelled``."""
        self._live += -1 if now_cancelled else 1

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` at an absolute time (must not be in the past)."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule into the past (delay={time - self.clock.now})"
            )
        event = ScheduledEvent(time=time, seq=self._next_seq, action=action, label=label)
        event._on_cancel_changed = self._on_cancel_changed
        self._next_seq += 1
        self._live += 1
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1): live counter)."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is drained."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)[2]._on_cancel_changed = None
        return self._queue[0][0] if self._queue else None

    def run_until(self, t_end: float) -> None:
        """Execute every event with time <= ``t_end`` and advance the clock.

        The clock ends at exactly ``t_end`` even if the queue drained
        earlier, so "simulate for 100 units" means what it says.
        """
        # The one dispatch loop, touching the heap head once per event.
        # Heap pops are time-ordered, so the clock can be assigned directly.
        queue = self._queue
        clock = self.clock
        pop = heapq.heappop
        max_steps = self.max_steps
        with _relaxed_gc():
            while queue:
                head = queue[0]
                event = head[2]
                if event._cancelled:
                    pop(queue)
                    event._on_cancel_changed = None
                    continue
                if head[0] > t_end:
                    break
                pop(queue)
                event._on_cancel_changed = None
                self._live -= 1
                self.steps_executed += 1
                if self.steps_executed > max_steps:
                    raise SimulationError(
                        f"step budget of {max_steps} exceeded at t={head[0]} "
                        f"(label={event.label!r}); likely an event storm"
                    )
                clock.now = head[0]
                action = event.action
                # Drop the callback: a fired event is one-shot, and timer
                # callbacks close over their TimerHandle, which points back
                # at the event — clearing the reference breaks that cycle
                # so the pair is reclaimed by refcount, not the cycle GC.
                event.action = None
                action()
        if t_end > clock.now:
            clock.advance_to(t_end)

    def run_to_quiescence(self) -> int:
        """Run until no events remain; returns the number of steps taken."""
        start = self.steps_executed
        while (time := self.peek_time()) is not None:
            self.run_until(time)
        return self.steps_executed - start
