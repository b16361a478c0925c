"""The replica core: everything a leader-centric backend shares.

XPaxos and IBFT — like every protocol in the propose/vote/decide family —
differ only in their *vote rule*: which messages answer a proposal and
which set of them decides a slot.  :class:`ReplicaCore` owns the rest:

- **intake**: client-request validation, reply-cache retransmission,
  forwarding to the leader, dedup;
- **batching**: the leader's queue, the ``batch_window`` flush timer,
  slot assignment and the signed proposal;
- **accepting a proposal**: leader/view checks, equivocation and
  forged-request detection (Section V-A), then the backend's
  :meth:`_proposal_accepted` hook takes over until it calls
  :meth:`_decide`;
- **execution**: in-order apply, at-most-once reply cache, replies;
- **checkpoints**: quorum-certified state digests every
  ``checkpoint_interval`` slots, log compaction, compact service-mode
  snapshots, snapshot adoption by lagging replicas;
- **decision changes** (view / round changes): suspicion and
  ``<QUORUM, ...>`` adoption through the one
  :class:`~repro.protocol.selector.Selector` it is built on, signed
  history exchange,
  the new leader's longest-certified-history merge, NEW-VIEW install and
  re-proposal of prepared requests (DESIGN.md §5.7 lists the delta to
  XPaxos' full OSDI'16 protocol);
- failure-detector expectations, detections, metrics and the span.

A backend subclasses the core and supplies class attributes (names, wire
kinds, proposal type, slot-state type, certificate validator) plus its
vote phase: :meth:`_proposal_accepted`, one ``_on_<name>`` handler per
entry of :attr:`ReplicaCore.vote_kinds` and :meth:`_certificate_for`.
The core reads a message's decision number as ``body.view`` whatever the
backend calls it.

One vote rule serves every backend and selector (:meth:`_quorate`):
``q = n - f`` matching votes from members of the view's quorum decide,
the leader's proposal counting as its vote.  With ``|Q| = q`` — every
selector but ``all`` — that reads "every member".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.crypto.digests import digest
from repro.host import Host, Module, TimerHandle
from repro.obs.observability import NULL_OBS, get_obs
from repro.obs.spans import SPAN_DECISION_CHANGE
from repro.protocol.selector import Selector
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId
from repro.xpaxos.messages import (
    KIND_REPLY,
    KIND_REQUEST,
    CheckpointCertificate,
    CheckpointPayload,
    ClientRequest,
    NewViewPayload,
    ReplyPayload,
    ViewChangePayload,
    checkpoint_certificate_is_valid,
    is_client_request,
)
from repro.xpaxos.state_machine import KeyValueStore, StateMachine

STATUS_NORMAL = "normal"

#: Snapshot layouts (first tuple element).  The flat one keeps the whole
#: request history; the compact one is for service state machines, which
#: carry their own per-client dedup table inside ``snapshot_items()``.
SNAPSHOT_FLAT = "xp-snapshot"
SNAPSHOT_COMPACT = "xp-snapshot-svc"


def _name(kind: str) -> str:
    """``"xp.prepare"`` -> ``"prepare"``: a kind as labels and reasons say it."""
    return kind.partition(".")[2]


@dataclass
class SlotState:
    """Per-(view, slot) agreement state; backends add their vote fields."""

    proposal: Optional[SignedMessage] = None
    requests: Tuple[ClientRequest, ...] = ()
    request_digest: str = ""
    committed: bool = False


class ReplicaCore(Module):
    """One replica of a leader-centric protocol (process ids ``1..n``)."""

    #: Log-event and metric prefix (``xp`` / ``ibft``).
    prefix: str
    #: What the backend calls its decision number (``view`` / ``round``).
    term: str
    #: FD expectation group, cancelled as a whole on a decision change.
    fd_group: str
    #: Wire kinds; the change kinds double as the log-event names.
    kind_proposal: str
    kind_viewchange: str
    kind_newview: str
    kind_checkpoint: str
    #: The vote phase's own kinds, in sending order; ``xp.commit`` is
    #: handled by ``self._on_commit``.
    vote_kinds: Tuple[str, ...]
    #: Payload class of the leader's proposal: ``(view, slot,
    #: signed_requests)`` with ``requests`` and ``request_digest()``.
    proposal_type: type
    slot_state: type = SlotState
    #: ``(certificate, slot, selector, verify) -> bool``; a valid
    #: certificate exposes its batch as ``certificate.requests``.
    certificate_is_valid: Callable[..., bool]

    @classmethod
    def wire_kinds(cls) -> Tuple[str, ...]:
        """Every inter-replica kind this backend sends (clients' excluded)."""
        return (cls.kind_proposal, *cls.vote_kinds,
                cls.kind_viewchange, cls.kind_newview, cls.kind_checkpoint)

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        selector: Selector,
        batch_size: int = 1,
        batch_window: float = 0.0,
        checkpoint_interval: Optional[int] = None,
        state_machine: Optional[StateMachine] = None,
    ) -> None:
        super().__init__(host)
        if n <= 2 * f:
            raise ConfigurationError(
                f"{self.prefix} replicas need n >= 2f + 1; got n={n}, f={f}"
            )
        self.n = n
        self.f = f
        self.q = n - f
        self.selector = selector
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
        if batch_window < 0:
            raise ConfigurationError(f"batch window must be >= 0, got {batch_window}")
        # Leader-side batching: collect up to batch_size requests (or
        # whatever arrived within batch_window) into one slot.
        self.batch_size = batch_size
        self.batch_window = batch_window
        self._batch_timer: Optional[TimerHandle] = None
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint interval must be >= 1, got {checkpoint_interval}"
            )
        # Log compaction: every `checkpoint_interval` slots the quorum
        # certifies a state digest; certificates before it are dropped.
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_slot = 0  # slots covered by the stable checkpoint
        self.checkpoint: Optional[Tuple[CheckpointCertificate, Tuple]] = None
        self._pending_snapshots: Dict[int, Tuple] = {}
        self._ckpt_votes: Dict[Tuple[int, int, str], Dict[int, SignedMessage]] = {}
        self.checkpoints_made = 0
        # --- view state ---
        self.view = 0
        self.status = STATUS_NORMAL
        # --- log & execution state ---
        self.slots: Dict[int, Any] = {}
        self.next_slot = 0
        self.kv: StateMachine = state_machine if state_machine is not None else KeyValueStore()
        self._apply_request = getattr(self.kv, "apply_request", None)
        self.executed: List[ClientRequest] = []
        #: Requests covered by the stable checkpoint and pruned from
        #: ``executed`` (service mode only; 0 otherwise).
        self.executed_base = 0
        self.executed_certs: List[Any] = []  # one commit certificate per slot
        self._executed_ids: Set[Tuple[int, int]] = set()
        self._reply_cache: Dict[Tuple[int, int], Any] = {}
        self.pending: List[SignedMessage] = []  # leader queue of signed requests
        self._queued_ids: Set[Tuple[int, int]] = set()
        # --- view change bookkeeping: each sender's highest report ---
        self._vc_received: Dict[int, ViewChangePayload] = {}
        self._newview_done_for: int = -1
        # --- instrumentation ---
        self.view_changes = 0
        self.commits = 0
        self.detected_events: List[Tuple[float, int, str]] = []
        self._execution_cursor = 0
        self._obs = NULL_OBS  # bound in start()

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._obs = get_obs(self.host)
        self._obs.add_collector(self._collect_metrics)
        self.host.subscribe(KIND_REQUEST, self._on_request)
        self.host.subscribe(self.kind_proposal, self._on_proposal)
        self.host.subscribe(self.kind_viewchange, self._on_viewchange)
        self.host.subscribe(self.kind_newview, self._on_newview)
        self.host.subscribe(self.kind_checkpoint, self._on_checkpoint)
        for kind in self.vote_kinds:
            self.host.subscribe(kind, getattr(self, f"_on_{_name(kind)}"))
        if self.host.fd is not None:
            self.host.fd.subscribe_suspected(self._on_suspected)
        if self.selector.module is not None:
            self.selector.module.add_quorum_listener(self._on_selected_quorum)

    def recover(self) -> None:
        """The crash cancelled the batch flush timer; re-arm it if needed."""
        self._propose_pending()

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector for the replica's plain-int counters."""
        pid, prefix, term = self.pid, self.prefix, self.term
        registry.counter(f"{prefix}_commits_total", help="operations committed",
                         pid=pid).set(self.commits)
        registry.counter(f"{prefix}_{term}_changes_total",
                         help=f"{term} changes completed",
                         pid=pid).set(self.view_changes)
        registry.counter(f"{prefix}_checkpoints_total", help="checkpoints taken",
                         pid=pid).set(self.checkpoints_made)
        registry.gauge(f"{prefix}_{term}", help=f"current {term}",
                       pid=pid).set(self.view)

    # ---------------------------------------------------------------- helpers

    @property
    def quorum(self) -> FrozenSet[int]:
        return self.selector.quorum_of(self.view)

    @property
    def leader(self) -> ProcessId:
        return self.selector.leader_of(self.view)

    @property
    def is_leader(self) -> bool:
        return self.pid == self.leader

    @property
    def in_quorum(self) -> bool:
        return self.pid in self.quorum

    @property
    def total_slots(self) -> int:
        """Absolute number of committed slots (checkpointed + live)."""
        return self.checkpoint_slot + len(self.executed_certs)

    def _verify(self, message: SignedMessage) -> bool:
        return self.host.authenticator.verify(message)

    def _log(self, event: str, **payload: Any) -> None:
        self.host.log.append(self.host.now, self.pid, event, **payload)

    def _detect(self, culprit: ProcessId, reason: str) -> None:
        self.detected_events.append((self.host.now, culprit, reason))
        self._log(f"{self.prefix}.detected", target=culprit, reason=reason)
        if self.host.fd is not None:
            self.host.fd.detected(culprit)

    def _authentic(self, message: Any, payload_type: type) -> Optional[Any]:
        """The typed body of an authenticated signed message, else ``None``.

        Hosts with a failure detector authenticate before delivery.
        """
        if not isinstance(message, SignedMessage):
            return None
        if self.host.fd is None and not self._verify(message):
            return None
        body = message.payload
        return body if isinstance(body, payload_type) else None

    def _is_current(self, body: Any) -> bool:
        """Normal-case traffic counts only at members, in this view."""
        return (
            body.view == self.view
            and self.status == STATUS_NORMAL
            and self.in_quorum
        )

    def _slot(self, slot: int) -> Any:
        return self.slots.setdefault(slot, self.slot_state())

    def _quorate(self, others: int) -> bool:
        """The vote rule, given the matching votes of members *other than*
        this one and the leader: with the leader's proposal and (at a
        follower) this member's own vote, do ``q`` members agree?"""
        return others + 1 + (self.pid != self.leader) >= self.q

    # ----------------------------------------------------- FD expectations

    def _expect(
        self,
        source: ProcessId,
        kind: str,
        payload_type: type,
        view: int,
        slot: Optional[int] = None,
    ) -> None:
        """Section V-A: expect ``source`` to send ``kind`` for (view, slot)."""
        if self.host.fd is None:
            return

        def match(got_kind: str, payload: Any) -> bool:
            return (
                got_kind == kind
                and isinstance(payload, SignedMessage)
                and payload.signer == source
                and isinstance(payload.payload, payload_type)
                and payload.payload.view == view
                and (slot is None or payload.payload.slot == slot)
            )

        where = f"{self.term[0]}{view}" + ("" if slot is None else f"s{slot}")
        self.host.fd.expect(
            source=source, predicate=match, group=self.fd_group,
            label=f"{_name(kind)}<-p{source}@{where}",
        )

    def _expect_votes(
        self,
        kind: str,
        payload_type: type,
        view: int,
        slot: int,
        arrived: Dict[int, SignedMessage],
    ) -> None:
        """Expect a vote from every other non-leader quorum member.

        Subtlety #1: no expectation for members whose vote for this slot
        already arrived.
        """
        for member in sorted(self.quorum):
            if member not in (self.pid, self.leader) and member not in arrived:
                self._expect(member, kind, payload_type, view, slot)

    # =================================================================
    # Normal case: intake, batching, proposals
    # =================================================================

    def _on_request(self, kind: str, payload: Any, src: ProcessId) -> None:
        request = self._authentic(payload, ClientRequest)
        if request is None or payload.signer != request.client:
            return
        rid = request.request_id()
        if rid in self._reply_cache:
            self._send_reply(request, self._reply_cache[rid])
            return
        if not self.is_leader or self.status != STATUS_NORMAL:
            # Forward to whoever we currently believe leads (clients may
            # address a stale leader or broadcast on retry).
            if self.pid != self.leader and src == request.client:
                self.host.send(self.leader, KIND_REQUEST, payload)
            return
        if rid in self._queued_ids:
            return
        self._queued_ids.add(rid)
        self.pending.append(payload)
        self._propose_pending()

    def _propose_pending(self) -> None:
        """Leader: assign slots to queued requests and send proposals.

        With ``batch_window > 0`` the leader waits (once) for the window
        to fill before proposing, amortizing one slot's agreement cost
        over up to ``batch_size`` requests; otherwise requests are
        proposed immediately in batches of whatever is queued.
        """
        if not self.is_leader or self.status != STATUS_NORMAL:
            return
        if self.batch_window > 0 and 0 < len(self.pending) < self.batch_size:
            # Wait for the window to fill; arrivals while the flush timer
            # is armed simply join the forming batch.  A full batch takes
            # the immediate path below.
            if self._batch_timer is None or not self._batch_timer.active:
                self._batch_timer = self.host.set_timer(
                    self.batch_window, self._flush_batch,
                    label=f"{self.prefix}-batch",
                )
            return
        self._propose_now()

    def _flush_batch(self) -> None:
        """The batch window closed: propose whatever arrived.

        Nothing is proposed while a decision change is in flight — the
        queue is kept and proposed by whoever leads afterwards.
        """
        if self.is_leader and self.status == STATUS_NORMAL:
            self._propose_now()

    def _propose_now(self) -> None:
        while self.pending:
            batch: List[SignedMessage] = []
            while self.pending and len(batch) < self.batch_size:
                signed_request = self.pending.pop(0)
                if signed_request.payload.request_id() in self._executed_ids:
                    continue
                batch.append(signed_request)
            if not batch:
                return
            slot = self.next_slot
            self.next_slot += 1
            body = self.proposal_type(self.view, slot, tuple(batch))
            proposal = self.host.authenticator.sign(body)
            state = self._slot(slot)
            self._hold(state, proposal, body.request_digest())
            for member in sorted(self.quorum - {self.pid}):
                self.host.send(member, self.kind_proposal, proposal)
            self._proposal_accepted(state, body)

    def _on_proposal(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, self.proposal_type)
        if body is None or not self._is_current(body):
            return
        if payload.signer == self.leader:
            self._accept_proposal(payload, body)

    def _accept_proposal(self, proposal: SignedMessage, body: Any) -> None:
        state = self._slot(body.slot)
        incoming_digest = body.request_digest()
        if state.proposal is not None:
            if state.request_digest != incoming_digest:
                # Two leader-signed proposals for one (view, slot):
                # equivocation, provable from the two signatures.
                self._detect(self.leader, f"{_name(self.kind_proposal)}-equivocation")
            return
        # A leader cannot invent operations: the proposal must embed
        # requests correctly signed by the claimed clients.
        if not body.signed_requests:
            self._detect(proposal.signer, "empty-batch")
            return
        if not all(is_client_request(r, self._verify) for r in body.signed_requests):
            self._detect(proposal.signer, "forged-client-request")
            return
        self._hold(state, proposal, incoming_digest)
        self._proposal_accepted(state, body)

    def _hold(self, state: Any, proposal: SignedMessage, request_digest: str) -> None:
        """``state`` is now about the (checked) signed ``proposal``."""
        state.proposal = proposal
        state.requests = proposal.payload.requests
        state.request_digest = request_digest

    def _proposal_accepted(self, state: Any, body: Any) -> None:
        """Vote phase entry: ``state`` now holds the proposal ``body``.

        Runs at the leader right after it sent its proposal (which is
        also its own vote in every phase) and at members on accepting
        one.  Send this member's vote, issue expectations, and call
        :meth:`_decide` once the backend's threshold is met.
        """
        raise NotImplementedError

    def _certificate_for(self, state: Any) -> Any:
        """The commit certificate of a just-decided slot."""
        raise NotImplementedError

    # =================================================================
    # Decide, execute, reply
    # =================================================================

    def _decide(self, slot: int, state: Any) -> None:
        """The vote threshold for ``slot`` is met: commit and execute."""
        state.committed = True
        self.commits += 1
        self._log(
            f"{self.prefix}.commit", **{self.term: self.view}, slot=slot,
            requests=tuple(r.request_id() for r in state.requests),
        )
        # Execute the contiguous committed prefix, replying per request.
        while True:
            ready = self.slots.get(self._execution_cursor)
            if ready is None or not ready.committed:
                return
            self._apply_batch(ready.requests, self._certificate_for(ready))
            self._execution_cursor += 1

    def _apply_batch(self, requests, certificate: Any) -> None:
        """Execute one committed slot's batch; one certificate per slot."""
        for request in requests:
            self._execute_one(request)
        self.executed_certs.append(certificate)
        self._maybe_checkpoint()

    def _execute_one(self, request: ClientRequest) -> None:
        rid = request.request_id()
        if rid in self._executed_ids:
            result = self._reply_cache.get(rid)
        else:
            # Service state machines dedup per client (at-most-once) and
            # need the request id; plain ones only see the operation.
            if self._apply_request is not None:
                result = self._apply_request(request.client, request.sequence, request.op)
            else:
                result = self.kv.apply(request.op)
            self.executed.append(request)
            self._executed_ids.add(rid)
            self._reply_cache[rid] = result
            self._log(f"{self.prefix}.execute", request=rid, total=len(self.executed))
        self._send_reply(request, result)

    def _send_reply(self, request: ClientRequest, result: Any) -> None:
        reply = self.host.authenticator.sign(
            ReplyPayload(
                client=request.client,
                sequence=request.sequence,
                result=result,
                replica=self.pid,
                view=self.view,  # clients learn the decision number
            )
        )
        self.host.send(request.client, KIND_REPLY, reply)

    # =================================================================
    # Checkpointing (log compaction)
    # =================================================================

    def _snapshot(self, slot_count: int) -> Tuple:
        """Digestable snapshot of the application state right now.

        The snapshot keeps the flat request history so a replica adopting
        it can still serve retransmissions and the harness can check
        prefix consistency.  Service state machines carry their own
        per-client dedup table inside ``snapshot_items()``, so their
        snapshots keep only the applied-request *count* — without the
        bound, view-change payloads (which ship the snapshot) grow with
        total history and stall the live event loop long enough to trip
        failure detectors on healthy peers.
        """
        if self._apply_request is not None:
            return (
                SNAPSHOT_COMPACT,
                slot_count,
                self.executed_base + len(self.executed),
                self.kv.snapshot_items(),
                (),
            )
        return (
            SNAPSHOT_FLAT,
            slot_count,
            tuple(request.canonical() for request in self.executed),
            self.kv.snapshot_items(),
            tuple(sorted(self._reply_cache.items())),
        )

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_interval is None or self.status != STATUS_NORMAL:
            return
        total = self.total_slots
        if total == 0 or total % self.checkpoint_interval:
            return
        if total in self._pending_snapshots or not self.in_quorum:
            return
        snapshot = self._snapshot(total)
        self._pending_snapshots[total] = snapshot
        body = CheckpointPayload(
            view=self.view, slot_count=total, state_digest=digest(snapshot)
        )
        self.host.broadcast(
            sorted(self.quorum), self.kind_checkpoint,
            self.host.authenticator.sign(body),
        )

    def _on_checkpoint(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, CheckpointPayload)
        if body is None:
            return
        if body.view != self.view or payload.signer not in self.quorum:
            return
        if body.slot_count <= self.checkpoint_slot:
            return  # a vote past the threshold, or for a state long stable
        key = (body.view, body.slot_count, body.state_digest)
        votes = self._ckpt_votes.setdefault(key, {})
        votes[payload.signer] = payload
        if len(votes) < self.q:
            return
        snapshot = self._pending_snapshots.get(body.slot_count)
        if snapshot is None or digest(snapshot) != body.state_digest:
            return  # our state diverges from the certified digest
        certificate = CheckpointCertificate(
            votes=tuple(votes[member] for member in sorted(votes))
        )
        self._stabilize_checkpoint(certificate, snapshot)

    def _stabilize_checkpoint(
        self, certificate: CheckpointCertificate, snapshot: Tuple
    ) -> None:
        slot_count = certificate.payload.slot_count
        drop = slot_count - self.checkpoint_slot
        self.executed_certs = self.executed_certs[drop:]
        self.checkpoint_slot = slot_count
        self.checkpoint = (certificate, snapshot)
        self.checkpoints_made += 1
        self._pending_snapshots = {
            slots: snap
            for slots, snap in self._pending_snapshots.items()
            if slots > slot_count
        }
        self._ckpt_votes = {
            key: votes
            for key, votes in self._ckpt_votes.items()
            if key[1] > slot_count
        }
        if snapshot[0] == SNAPSHOT_COMPACT:
            # The service dedup table now covers everything up to the
            # snapshot; drop the flat history and its reply-cache entries
            # so replica memory — and view-change payloads — stay bounded.
            covered = max(0, snapshot[2] - self.executed_base)
            for request in self.executed[:covered]:
                rid = request.request_id()
                self._executed_ids.discard(rid)
                self._reply_cache.pop(rid, None)
            del self.executed[:covered]
            self.executed_base = snapshot[2]
        self._log(
            f"{self.prefix}.checkpoint",
            slots=slot_count, live_certs=len(self.executed_certs),
        )

    def _adopt_snapshot(self, checkpoint: CheckpointCertificate, snapshot: Tuple) -> None:
        """Jump to a certified checkpoint wholesale (state transfer)."""
        if snapshot[0] == SNAPSHOT_COMPACT:
            # Compact service snapshot: state lives in the KV items (data
            # plus per-client dedup table); the flat history is elided.
            self.executed = []
            self.executed_base = snapshot[2]
            self.kv.restore(snapshot[3], [])
            self._executed_ids = set()
            self._reply_cache = {}
        else:
            canonicals = snapshot[2]
            self.executed = [
                ClientRequest(client=c[1], sequence=c[2], op=tuple(c[3]))
                for c in canonicals
            ]
            self.kv.restore(snapshot[3], [tuple(c[3]) for c in canonicals])
            self._executed_ids = {(c[1], c[2]) for c in canonicals}
            self._reply_cache = dict(snapshot[4])
        self.executed_certs = []
        self.checkpoint_slot = snapshot[1]
        self.checkpoint = (checkpoint, snapshot)
        self._log(f"{self.prefix}.snapshot-adopted", slots=snapshot[1])

    # =================================================================
    # Decision changes (view / round changes)
    # =================================================================

    def _on_suspected(self, suspected: FrozenSet[int]) -> None:
        self._move_to(self.selector.view_on_suspicion(self.view, suspected))

    def _on_selected_quorum(self, event: Any) -> None:
        self._move_to(self.selector.view_on_selected(event, self.view))

    def _move_to(self, target: Optional[int]) -> None:
        if target is not None and target > self.view:
            self._start_view_change(target)

    def _start_view_change(self, target: int) -> None:
        self.view = target
        self.status = f"{self.term}-change"
        self.view_changes += 1
        # Report prepared-but-uncommitted entries *before* clearing the
        # per-view log, so the new leader can re-propose them.
        prepared = tuple(
            (slot, state.proposal)
            for slot, state in sorted(self.slots.items())
            if state.proposal is not None and not state.committed
        )
        self.slots = {}
        self.next_slot = self._execution_cursor = self.total_slots
        # Requests that were assigned view-local slots but not committed
        # must become acceptable again (clients retransmit them).
        self._queued_ids = {
            signed.payload.request_id() for signed in self.pending
        }
        # Reports for views we have moved past can never be merged.
        self._vc_received = {
            sender: report
            for sender, report in self._vc_received.items()
            if report.new_view >= target
        }
        self._log(
            self.kind_viewchange, **{self.term: target},
            quorum=tuple(sorted(self.quorum)),
        )
        self._obs.span(SPAN_DECISION_CHANGE, self.pid, self.host.now,
                       view=target, protocol=self.prefix, term=self.term)
        if self.host.fd is not None:
            # Section V-B: during view change processes may legitimately
            # stop sending expected normal-case messages.
            self.host.fd.cancel(group=self.fd_group)
        checkpoint, snapshot = self.checkpoint or (None, None)
        vc_body = ViewChangePayload(
            new_view=target,
            committed=tuple(self.executed_certs),
            prepared=prepared,
            checkpoint=checkpoint,
            snapshot=snapshot,
        )
        signed = self.host.authenticator.sign(vc_body)
        for replica in range(1, self.n + 1):
            if replica != self.pid:
                self.host.send(replica, self.kind_viewchange, signed)
        self._record_viewchange(self.pid, vc_body)
        if not self.is_leader and self.in_quorum:
            self._expect(self.leader, self.kind_newview, NewViewPayload, target)

    def _on_viewchange(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, ViewChangePayload)
        if body is None:
            return
        # Join a peer's change only where the selector would go itself.
        if body.new_view > self.view and self.selector.accepts(body.new_view):
            self._start_view_change(body.new_view)
        self._record_viewchange(payload.signer, body)

    def _record_viewchange(self, sender: ProcessId, body: ViewChangePayload) -> None:
        """Keep ``sender``'s report if it is for the highest view so far.

        One report per sender bounds what a Byzantine replica can park
        here; a report below our view can never be merged.
        """
        held = self._vc_received.get(sender)
        if body.new_view < self.view or (
            held is not None and held.new_view >= body.new_view
        ):
            return
        # Re-insert last: the merge below walks reports in arrival order.
        self._vc_received.pop(sender, None)
        self._vc_received[sender] = body
        self._maybe_finish_view_change()

    def _maybe_finish_view_change(self) -> None:
        """New leader: once every quorum member reported, emit NEW-VIEW."""
        if self.status == STATUS_NORMAL or not self.is_leader:
            return
        if self._newview_done_for >= self.view:
            return
        reports = {
            sender: report
            for sender, report in self._vc_received.items()
            if report.new_view == self.view
        }
        if not self.quorum <= reports.keys():
            return
        self._newview_done_for = self.view
        # Pick the longest *certified* history: every entry — checkpoint
        # included — must verify, so a Byzantine member cannot smuggle
        # fabricated requests into the merged state.
        best = ((), None, None)
        best_length = -1
        for vc in reports.values():
            history = (vc.committed, vc.checkpoint, vc.snapshot)
            length = self._history_flat_length(*history)
            if length is not None and length > best_length:
                best_length = length
                best = history
        committed, checkpoint, snapshot = best
        newview = self.host.authenticator.sign(
            NewViewPayload(
                view=self.view, committed=committed,
                checkpoint=checkpoint, snapshot=snapshot,
            )
        )
        for member in sorted(self.quorum - {self.pid}):
            self.host.send(member, self.kind_newview, newview)
        self._enter_view(committed, checkpoint, snapshot)
        # Re-propose uncommitted prepared requests reported by members.
        reproposals: Dict[Tuple[int, int], SignedMessage] = {}
        for vc in reports.values():
            for _, proposal in vc.prepared:
                if not isinstance(proposal, SignedMessage) or not self._verify(proposal):
                    continue
                inner = proposal.payload
                if not isinstance(inner, self.proposal_type):
                    continue
                for signed_request in inner.signed_requests:
                    if not is_client_request(signed_request, self._verify):
                        continue
                    rid = signed_request.payload.request_id()
                    if rid not in self._executed_ids and rid not in self._queued_ids:
                        reproposals[rid] = signed_request
        for rid, signed_request in sorted(reproposals.items()):
            # The request keeps its original client signature.
            self._queued_ids.add(rid)
            self.pending.append(signed_request)
        self._propose_pending()

    def _on_newview(self, kind: str, payload: Any, src: ProcessId) -> None:
        body = self._authentic(payload, NewViewPayload)
        if body is None or body.view != self.view or payload.signer != self.leader:
            return
        if self.status == STATUS_NORMAL:
            return
        history = (body.committed, body.checkpoint, body.snapshot)
        if self._history_flat_length(*history) is None:
            # The leader signed a NEW-VIEW with an uncertified history:
            # provable misbehaviour.
            self._detect(
                payload.signer, f"invalid-{_name(self.kind_newview)}-certificates"
            )
            return
        self._enter_view(*history)

    def _enter_view(self, committed, checkpoint, snapshot) -> None:
        self._install_history(committed, checkpoint, snapshot)
        self.status = STATUS_NORMAL
        self._log(self.kind_newview, **{self.term: self.view})

    def _history_flat_length(
        self,
        committed: Tuple[Any, ...],
        checkpoint: Optional[Any],
        snapshot: Optional[Any],
    ) -> Optional[int]:
        """Validate a (checkpoint, suffix) history; return its flat length.

        ``None`` means invalid: a bad checkpoint certificate, a snapshot
        that does not match the certified digest, or any suffix entry
        without a valid commit certificate for its absolute slot.
        """
        base_slot = 0
        length = 0
        if checkpoint is not None or snapshot is not None:
            if not checkpoint_certificate_is_valid(
                checkpoint, self.selector, self._verify
            ):
                return None
            reference = checkpoint.payload
            if (
                not isinstance(snapshot, tuple)
                or len(snapshot) != 5
                or snapshot[0] not in (SNAPSHOT_FLAT, SNAPSHOT_COMPACT)
                or snapshot[1] != reference.slot_count
                or digest(snapshot) != reference.state_digest
            ):
                return None
            base_slot = reference.slot_count
            length = (
                snapshot[2] if snapshot[0] == SNAPSHOT_COMPACT else len(snapshot[2])
            )
        for index, cert in enumerate(committed):
            if not self.certificate_is_valid(
                cert, base_slot + index, self.selector, self._verify
            ):
                return None
            length += len(cert.requests)
        return length

    def _install_history(
        self,
        committed: Tuple[Any, ...],
        checkpoint: Optional[CheckpointCertificate],
        snapshot: Optional[Tuple],
    ) -> None:
        """Adopt the merged certified history (longest-prefix semantics).

        ``committed`` holds one certificate per *slot* (batch) after the
        optional checkpoint; correct histories are batch-aligned, so
        comparison happens on the flattened request sequence.  A replica
        too far behind the checkpoint adopts the snapshot wholesale
        (state transfer); otherwise missing whole batches are applied
        (``_execute_one`` deduplicates by request id in any case).
        """
        if self._apply_request is not None:
            # Service mode: snapshots are compact (counts, not flat
            # history), so longest-history comparison happens on request
            # counts; per-request dedup during replay falls to the state
            # machine's at-most-once table.
            theirs_len = (snapshot[2] if snapshot is not None else 0) + sum(
                len(cert.requests) for cert in committed
            )
            longer = theirs_len > self.executed_base + len(self.executed)
        else:
            mine = tuple(request.canonical() for request in self.executed)
            theirs = tuple(snapshot[2] if snapshot is not None else ()) + tuple(
                request.canonical() for cert in committed for request in cert.requests
            )
            shared = min(len(mine), len(theirs))
            if theirs[:shared] != mine[:shared]:
                self._log(f"{self.prefix}.divergence")
            longer = len(theirs) > len(mine)
        if longer:
            base_slot = checkpoint.payload.slot_count if checkpoint is not None else 0
            if base_slot > self.total_slots:
                self._adopt_snapshot(checkpoint, snapshot)
            for index, cert in enumerate(committed):
                if base_slot + index >= self.total_slots:
                    self._apply_batch(cert.requests, cert)
        self.next_slot = self._execution_cursor = self.total_slots
