"""Scheduled-event records for the simulator's and the live runtime's schedulers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


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
