"""Protocol-level trace spans.

Where metrics answer "how many / how large", spans answer "what happened
and when": each span is one protocol-significant moment (or interval)
with structured attributes — an epoch advance, a quorum change, a
suspicion edge entering the matrix, an expectation timing out, a
detection completing.  Spans are stamped with the host's clock, so sim
spans carry deterministic tick times and net spans carry wall seconds
since node start; the *taxonomy* is identical on both runtimes.

The sink is a bounded ring: once ``max_spans`` is reached, new spans are
counted as dropped instead of stored — observability must never become
the memory leak it is meant to find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

# ---------------------------------------------------------------- taxonomy
#: Epoch advanced (attrs: ``epoch`` — the new value).
SPAN_EPOCH_ADVANCE = "qs.epoch_advance"
#: A new quorum was issued (attrs: ``epoch``, ``quorum``).
SPAN_QUORUM_CHANGE = "qs.quorum_change"
#: A suspicion-matrix entry increased (attrs: ``suspector``, ``suspectee``,
#: ``stamp`` — the epoch written).
SPAN_SUSPICION_EDGE = "matrix.suspicion_edge"
#: An expectation left the happy path (attrs: ``source``, ``label``,
#: ``outcome`` — ``timeout`` or ``fulfilled_late``; ``start`` is issue time).
SPAN_EXPECTATION = "fd.expectation"
#: Fault-to-suspicion latency completed (attrs: ``target``, ``latency``).
SPAN_DETECTION = "fd.detection"
#: A host crashed or recovered (attrs: ``what`` — ``crash``/``recover``).
SPAN_FAULT = "host.fault"
#: A replica started a decision change — view, round, reconfiguration
#: (attrs: ``view`` — the new decision number, ``protocol`` — the
#: backend's prefix, ``term`` — what the backend calls the number).
SPAN_DECISION_CHANGE = "replica.decision_change"
#: The adversary engine actuated one attack primitive (attrs:
#: ``strategy``, ``action``, plus the action's targets — e.g.
#: ``suspector``/``victim`` for a false suspicion).
SPAN_ADVERSARY_ACTION = "adv.action"

#: Default sink capacity; generous for any in-tree scenario, small enough
#: that a runaway epoch-inflation run cannot exhaust memory through spans.
DEFAULT_MAX_SPANS = 65536


@dataclass(slots=True)
class Span:
    """One recorded span.  ``end`` equals ``start`` for instant events."""

    name: str
    pid: int
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> Dict[str, Any]:
        """JSON-able form (for the node JSONL stream and the CLI)."""
        return {"span": self.name, "pid": self.pid,
                "start": self.start, "end": self.end, **self.attrs}


class SpanSink:
    """Bounded collector of spans for one run."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0

    def record(
        self, name: str, pid: int, start: float,
        end: Optional[float] = None, **attrs: Any,
    ) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(name, pid, start, start if end is None else end, attrs))

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def to_records(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        spans = self.spans if limit is None else self.spans[-limit:]
        return [span.to_record() for span in spans]

    def __len__(self) -> int:
        return len(self.spans)
