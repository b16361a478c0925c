"""Reliable — or deliberately lossy — asynchronous channels with hooks.

Channels between *correct* processes are reliable by default: every sent
message is eventually delivered, unmodified (the paper's system model,
Section IV).  An adversary may register an *interceptor* for the traffic
of faulty processes; the interceptor can drop, delay, or rewrite a faulty
process's outgoing messages — modelling omission, timing, and commission
failures at per-link granularity, which is exactly the granularity the
paper's failure detector targets ("even if they only affect individual
links").

Beyond the paper's model, the network optionally runs a *chaotic channel*
(:class:`ChaosConfig`): per-link probabilities of message loss,
duplication, and reordering, driven by a dedicated child of the run RNG.
Chaos is off by default, and a disabled (or all-zero) configuration draws
nothing from the chaos stream, so the reliable behaviour — including the
exact latency RNG sequence and therefore the full event trace — is
byte-identical to a network constructed without one.  The lossy regime is
what the retransmission / anti-entropy layers (``repro.sim.transport``,
Quorum Selection's digest sync) are tested against.

FIFO ordering is configurable per network; Follower Selection (Section
VIII) assumes FIFO between correct processes, Algorithm 1 does not.
Chaos *reordering* intentionally violates FIFO: a reordered message
leaves the link's delivery-floor track entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.obs.observability import Observability, message_stats_collector
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import MessageStats
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.eventlog import EventLog
from repro.util.ids import ProcessId
from repro.util.rand import DeterministicRng

DELIVER = "deliver"
DROP = "drop"


def _validate_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkChaos:
    """Chaos probabilities for one directed link (overrides the defaults)."""

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        _validate_probability("drop", self.drop)
        _validate_probability("duplicate", self.duplicate)
        _validate_probability("reorder", self.reorder)

    @property
    def any_active(self) -> bool:
        return bool(self.drop or self.duplicate or self.reorder)


@dataclass(frozen=True)
class ChaosConfig:
    """Lossy/chaotic channel model: loss, duplication, reordering.

    ``drop``/``duplicate``/``reorder`` are the default per-message
    probabilities for every directed link; ``links`` overrides them for
    specific ``(src, dst)`` pairs (e.g. one flaky link, everything else
    clean).  A reordered message gains up to ``reorder_delay`` extra
    latency *and* escapes the FIFO delivery floor, so it can genuinely
    overtake and be overtaken; a duplicated message is delivered a second
    time up to ``reorder_delay`` later.

    All randomness comes from a dedicated ``chaos`` child of the network
    RNG, and nothing is drawn while :attr:`active` is false — an all-zero
    configuration therefore reproduces the reliable network's event trace
    byte for byte (tested in ``tests/test_sim_chaos.py``).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 5.0
    links: Mapping[Tuple[int, int], LinkChaos] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_probability("drop", self.drop)
        _validate_probability("duplicate", self.duplicate)
        _validate_probability("reorder", self.reorder)
        if self.reorder_delay <= 0:
            raise ConfigurationError(
                f"reorder_delay must be positive, got {self.reorder_delay}"
            )

    def for_link(self, src: ProcessId, dst: ProcessId) -> "ChaosConfig | LinkChaos":
        """The effective probabilities for one directed link."""
        return self.links.get((src, dst), self)

    @property
    def active(self) -> bool:
        """Whether any link can ever lose, duplicate, or reorder."""
        if self.drop or self.duplicate or self.reorder:
            return True
        return any(link.any_active for link in self.links.values())


@dataclass(frozen=True)
class SendAction:
    """Adversary verdict on one outgoing message of a faulty process.

    ``verdict`` is :data:`DELIVER` or :data:`DROP`; ``extra_delay`` adds a
    timing failure on top of the sampled network latency;
    ``payload_override`` substitutes the message (a commission failure —
    note the substitute must still authenticate, i.e. be signed with the
    faulty sender's own key, or receivers will discard it).
    """

    verdict: str = DELIVER
    extra_delay: float = 0.0
    payload_override: Optional[Any] = None


# The no-interceptor verdict never varies; one frozen instance serves every
# plain send instead of allocating a fresh SendAction per message.
_DELIVER_ACTION = SendAction()


@dataclass(slots=True)
class Envelope:
    """One in-flight message.

    ``extra_delay`` is the pending timing-failure delay (an interceptor's
    ``SendAction.extra_delay`` or an ``inject(..., delay=...)``), carried
    on the envelope — not as a dispatch argument — so it survives being
    held across a partition and is still honoured on release.
    """

    kind: str
    payload: Any
    src: ProcessId
    dst: ProcessId
    sent_at: float
    deliver_at: float = field(default=0.0)
    extra_delay: float = field(default=0.0)


Interceptor = Callable[[Envelope], SendAction]


class Network:
    """The message fabric connecting all :class:`~repro.sim.process.ProcessHost` instances."""

    def __init__(
        self,
        scheduler: Scheduler,
        rng: DeterministicRng,
        latency: Optional[LatencyModel] = None,
        fifo: bool = True,
        log: Optional[EventLog] = None,
        stats: Optional[MessageStats] = None,
        chaos: Optional[ChaosConfig] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.rng = rng.child("network")
        self.latency = latency or FixedLatency(1.0)
        self.fifo = fifo
        self.log = log if log is not None else EventLog()
        self.stats = stats if stats is not None else MessageStats()
        # Run-wide observability, shared by every host on this network.
        # Message accounting is folded in at snapshot time (collector), so
        # the send/deliver hot path is untouched.
        self.obs = obs if obs is not None else Observability()
        self.obs.add_collector(message_stats_collector(self.stats))
        # Chaotic channel model.  The chaos stream is a *separate* RNG
        # child: enabling/disabling chaos never perturbs latency sampling,
        # and an inactive config short-circuits before any draw, keeping
        # chaos-off runs byte-identical to the plain reliable network.
        self.chaos = chaos
        self._chaos_rng = rng.child("network", "chaos")
        self._chaos_active = chaos is not None and chaos.active
        # Adversarial schedule jitter (E28): the adversary-as-scheduler
        # fuzzing pre-GST asynchrony.  Like chaos it draws from its own
        # dedicated RNG child and draws *nothing* while disarmed, so
        # adversary-off runs stay byte-identical to the plain network.
        self._adversary_jitter = 0.0
        self._adversary_rng = rng.child("network", "adversary")
        self._hosts: Dict[int, Any] = {}
        self._interceptors: Dict[int, Interceptor] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        # Small FIFO tiebreak so two messages on one link never swap order.
        self._fifo_epsilon = 1e-9
        # Message kinds to record as per-message "net.send" log events
        # (None = tracing off; the default, to keep logs small).
        self._trace_kinds: Optional[set] = None
        # Active partition: list of process groups; traffic between
        # different groups is held until heal() (reliable channels:
        # a partition is just a very long delay, cf. pre-GST asynchrony).
        self._partition_groups: Optional[list] = None
        self._held: list = []

    # ------------------------------------------------------------------ wiring

    def register_host(self, host: Any) -> None:
        """Attach a process host; its ``pid`` becomes routable."""
        if host.pid in self._hosts:
            raise SimulationError(f"host p{host.pid} registered twice")
        self._hosts[host.pid] = host

    def set_interceptor(self, pid: ProcessId, interceptor: Optional[Interceptor]) -> None:
        """Install (or clear, with ``None``) the adversary hook for ``pid``.

        Only the traffic *sent by* ``pid`` passes through the hook: the
        adversary controls faulty processes, not the channels of correct
        ones.
        """
        if interceptor is None:
            self._interceptors.pop(pid, None)
        else:
            self._interceptors[pid] = interceptor

    def hosts(self) -> Dict[int, Any]:
        """Registered hosts by pid (read-only use)."""
        return dict(self._hosts)

    def set_adversary_jitter(self, amplitude: float) -> None:
        """Arm (or, with ``0``, disarm) adversarial delivery jitter.

        While armed, every delivery gains uniform extra latency in
        ``[0, amplitude)`` drawn from the dedicated adversary RNG child —
        the scheduler half of an attack: the adversary perturbs message
        interleavings without touching content, which the asynchronous
        system model (pre-GST) always permits.  Messages are only ever
        delayed, never lost, so channel reliability is preserved; FIFO
        links keep their per-link order via the delivery floor.  Disarmed
        (the default) the hook draws nothing, keeping adversary-off
        traces byte-identical.
        """
        if not amplitude >= 0.0:  # also rejects NaN
            raise ConfigurationError(
                f"adversary jitter must be >= 0, got {amplitude}"
            )
        self._adversary_jitter = float(amplitude)

    def trace(self, kinds: Optional[set]) -> None:
        """Record per-message ``net.send`` log events for these kinds.

        Used to regenerate message-flow figures (Figs. 2-3) via
        :mod:`repro.analysis.traces`; pass ``None`` to turn tracing off.
        """
        self._trace_kinds = set(kinds) if kinds is not None else None

    # --------------------------------------------------------------- partitions

    def partition(self, *groups: Iterable[int]) -> None:
        """Split the network: traffic between different groups is held.

        Channels stay reliable — held messages are delivered after
        :meth:`heal` — so a partition is semantically a (possibly long)
        asynchronous period, exactly the pre-GST behaviour the failure
        detector must cope with.  Processes absent from every group keep
        full connectivity.
        """
        group_sets = [set(g) for g in groups]
        seen: set = set()
        for group in group_sets:
            if seen & group:
                raise SimulationError("partition groups must be disjoint")
            seen |= group
        self._partition_groups = group_sets
        # Re-evaluate traffic held under the *previous* layout: an envelope
        # whose endpoints now share a side must be released immediately —
        # before this, re-partitioning while messages were held stranded
        # them until a full heal(), silently breaking channel reliability
        # for layouts that never fully heal.
        released = 0
        if self._held:
            still_held = []
            for envelope in self._held:
                if self._crosses_partition(envelope.src, envelope.dst):
                    still_held.append(envelope)
                else:
                    released += 1
                    self._dispatch(envelope)
            self._held = still_held
        self.log.append(
            self.scheduler.now, 0, "net.partition",
            groups=tuple(tuple(sorted(g)) for g in group_sets),
            released=released,
        )

    def heal(self) -> int:
        """End the partition; release held traffic.  Returns count released.

        Each released envelope keeps the ``extra_delay`` it was sent with
        (an adversary's timing failure or an ``inject`` delay): holding a
        message across a partition postpones, but never cancels, the delay
        the sender's interceptor imposed.
        """
        self._partition_groups = None
        held, self._held = self._held, []
        for envelope in held:
            self._dispatch(envelope)
        self.log.append(self.scheduler.now, 0, "net.heal", released=len(held))
        return len(held)

    def _crosses_partition(self, src: ProcessId, dst: ProcessId) -> bool:
        if self._partition_groups is None:
            return False
        src_group = dst_group = None
        for index, group in enumerate(self._partition_groups):
            if src in group:
                src_group = index
            if dst in group:
                dst_group = index
        return src_group is not None and dst_group is not None and src_group != dst_group

    # ------------------------------------------------------------------ sending

    def send(self, src: ProcessId, dst: ProcessId, kind: str, payload: Any) -> None:
        """Send one message; honours interceptors, latency, and FIFO.

        Sends to unknown destinations are dropped (and logged), not
        errors: a Byzantine peer can name any process id in a message
        (e.g. a bogus client id in a request), and a correct process
        reacting to it must not crash.
        """
        if dst not in self._hosts:
            self.log.append(self.scheduler.now, src, "net.unroutable", msg=kind, dst=dst)
            return
        now = self.scheduler.clock.now
        envelope = Envelope(kind=kind, payload=payload, src=src, dst=dst, sent_at=now)
        interceptor = self._interceptors.get(src)
        self.stats.record_sent(kind, src, dst)
        if interceptor is None:
            # Plain correct-process send: no verdict, no rewrite.
            action = _DELIVER_ACTION
        else:
            action = interceptor(envelope)
            if action.verdict == DROP:
                self.stats.record_dropped(kind, src, dst)
                self.log.append(now, src, "net.drop", msg=kind, dst=dst)
                return
            if action.payload_override is not None:
                envelope.payload = action.payload_override
                self.log.append(now, src, "net.rewrite", msg=kind, dst=dst)
            envelope.extra_delay = action.extra_delay
        if self._trace_kinds is not None and kind in self._trace_kinds:
            self.log.append(now, src, "net.send", msg=kind, dst=dst)
        if self._partition_groups is not None and self._crosses_partition(src, dst):
            self._held.append(envelope)
            return
        self._dispatch(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        """Sample chaos and latency, honour FIFO, and schedule delivery."""
        now = self.scheduler.clock.now
        reorder_extra = 0.0
        duplicate = False
        if self._chaos_active:
            # Draw order is fixed (drop, reorder, duplicate) so runs are a
            # pure function of the seed regardless of which faults fire.
            link = self.chaos.for_link(envelope.src, envelope.dst)
            chaos_rng = self._chaos_rng
            if link.drop and chaos_rng.random() < link.drop:
                self.stats.record_lost(envelope.kind, envelope.src, envelope.dst)
                self.log.append(
                    now, envelope.src, "net.lost", msg=envelope.kind, dst=envelope.dst
                )
                return
            if link.reorder and chaos_rng.random() < link.reorder:
                reorder_extra = chaos_rng.uniform(0.0, self.chaos.reorder_delay)
            if link.duplicate and chaos_rng.random() < link.duplicate:
                duplicate = True
        delay = (
            self.latency.sample(now, envelope.src, envelope.dst, self.rng)
            + envelope.extra_delay
        )
        if self._adversary_jitter:
            # After latency sampling so arming the hook never shifts the
            # latency stream; own child stream, zero draws when disarmed.
            delay += self._adversary_rng.uniform(0.0, self._adversary_jitter)
        deliver_at = now + delay
        if reorder_extra:
            # A reordered message leaves the FIFO track entirely: it
            # neither respects nor advances the link's delivery floor, so
            # it can overtake later sends and be overtaken by earlier ones.
            deliver_at += reorder_extra
        elif self.fifo:
            link_key = (envelope.src, envelope.dst)
            floor = self._last_delivery.get(link_key, 0.0)
            if deliver_at <= floor:
                deliver_at = floor + self._fifo_epsilon
            self._last_delivery[link_key] = deliver_at
        envelope.deliver_at = deliver_at
        # The label is debug-only; the envelope's kind is enough to identify
        # a runaway storm without paying an f-string per send.
        self.scheduler.schedule_at(
            deliver_at, partial(self._deliver, envelope), label=envelope.kind
        )
        if duplicate:
            # The spurious copy shares the envelope (payloads are immutable
            # at this point) and also skips the FIFO floor.
            copy_at = deliver_at + self._chaos_rng.uniform(0.0, self.chaos.reorder_delay)
            self.log.append(
                now, envelope.src, "net.dup", msg=envelope.kind, dst=envelope.dst
            )
            self.scheduler.schedule_at(
                copy_at, partial(self._deliver, envelope), label=envelope.kind
            )

    def inject(
        self, src: ProcessId, dst: ProcessId, kind: str, payload: Any, delay: float = 0.0
    ) -> None:
        """Adversary-side raw injection from a faulty process.

        Bypasses the interceptor (the adversary is talking to itself) but
        not authentication: receivers still verify signatures, so ``src``
        can only inject content signed with keys it actually holds.
        """
        if dst not in self._hosts:
            raise SimulationError(f"inject to unknown host p{dst}")
        now = self.scheduler.now
        envelope = Envelope(
            kind=kind, payload=payload, src=src, dst=dst, sent_at=now, extra_delay=delay
        )
        self.stats.record_sent(kind, src, dst)
        if self._crosses_partition(src, dst):
            self._held.append(envelope)
            return
        self._dispatch(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        host = self._hosts.get(envelope.dst)
        if host is None or not host.running:
            return
        self.stats.record_delivered(envelope.kind, envelope.src, envelope.dst)
        host.on_receive(envelope.kind, envelope.payload, envelope.src)
