"""Scheduled-event and timer records for the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """An entry in the scheduler's priority queue.

    Ordering is ``(time, seq)``: events at equal times fire in scheduling
    order, which makes runs fully deterministic.  The callback is excluded
    from comparisons.

    ``cancelled`` is a property so the owning scheduler can keep its
    live-event counter exact without scanning the heap: flipping the flag
    notifies the scheduler (while the event is still queued) through
    ``_on_cancel_changed``.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    _cancelled: bool = field(default=False, compare=False, repr=False)
    label: str = field(default="", compare=False)
    # Set by the scheduler at enqueue time; detached once the event leaves
    # the queue so late cancels cannot skew the live counter.
    _on_cancel_changed: Optional[Callable[[bool], None]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value == self._cancelled:
            return
        self._cancelled = value
        if self._on_cancel_changed is not None:
            self._on_cancel_changed(value)


class TimerHandle:
    """Cancellation handle returned by :meth:`ProcessHost.set_timer`.

    Cancellation is lazy: the event stays queued but is skipped when its
    time comes.  ``fired`` distinguishes "ran" from "cancelled first".
    ``owner`` is the host's table of pending timers; the handle leaves it
    when it fires or is cancelled, so the table holds only live timers.
    """

    __slots__ = ("_event", "fired", "_owner")

    def __init__(
        self, event: ScheduledEvent, owner: Optional[Dict["TimerHandle", None]] = None
    ) -> None:
        self._event = event
        self.fired = False
        self._owner = owner
        if owner is not None:
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
        if self._owner is not None:
            self._owner.pop(self, None)
