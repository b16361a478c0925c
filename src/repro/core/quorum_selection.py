"""Algorithm 1 — decentralized Quorum Selection (Section VI).

State per process: ``epoch`` (starts at 1), ``suspecting`` (the failure
detector's current set), the shared :class:`SuspicionMatrix`, and
``Qlast`` (initially ``{p_1 .. p_q}``).

Flow, exactly as in the paper (modulo the row-index typo documented in
DESIGN.md §5.1):

- ``SUSPECTED`` from the failure detector -> ``updateSuspicions``: stamp
  every currently-suspected process with the current epoch in *my* row and
  broadcast the signed row to all, including myself.
- ``UPDATE`` from anyone -> max-merge into the signer's row; if anything
  changed, forward the original signed message to the other processes
  (gossip reliability, Lemma 1) and run ``updateQuorum``.
- ``updateQuorum``: build the suspect graph for the current epoch; if no
  independent set of size ``q`` exists, advance the epoch and re-stamp the
  current suspicions (some correct process must have suspected another —
  accurate suspicions alone always leave the correct set independent);
  otherwise select the lexicographically first independent set of size
  ``q`` and emit ``<QUORUM, Q>`` if it differs from ``Qlast``.

Hot-path engineering (DESIGN.md §5.13): the module reads the matrix's
*maintained* suspect-graph view instead of rebuilding per UPDATE, and
memoizes the last quorum search under a ``(graph uid, graph version,
epoch, q)`` key — a merge that changes no edge of the current band, or a
duplicate gossip forward, therefore skips the search entirely.  Both are
pure caches: decisions are byte-identical to the from-scratch path
(``incremental=False`` restores it, and the equivalence test runs both).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.events import QuorumEvent
from repro.core.messages import (
    KIND_DIGEST,
    KIND_ROWS,
    KIND_UPDATE,
    MatrixDigestPayload,
    RowCertsPayload,
    UpdatePayload,
)
from repro.core.suspicion_matrix import SuspicionMatrix
from repro.crypto.authenticator import SignedMessage
from repro.graphs.independent_set import has_independent_set, lex_first_independent_set
from repro.host import Host, Module
from repro.obs.observability import NULL_OBS, get_obs
from repro.obs.spans import SPAN_EPOCH_ADVANCE, SPAN_QUORUM_CHANGE, SPAN_SUSPICION_EDGE
from repro.sim.transport import ReliableTransport
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId, default_quorum

QuorumListener = Callable[[QuorumEvent], None]

# Forwarded-digest memory cap; on overflow the memory is reset, which can
# at worst re-forward an old message once (gossip is idempotent).  Primary
# bounding is the per-epoch prune in ``_advance_epoch``; the cap is the
# backstop for very long single epochs.
FORWARD_MEMORY_LIMIT = 65536

# Row certificates retained per owner for anti-entropy.  A correct owner's
# row is monotone, so dominance pruning keeps exactly one cert; only an
# equivocating (Byzantine) owner can accumulate an antichain, and this cap
# bounds the memory it can cost us.
MAX_CERTS_PER_OWNER = 16


class QuorumSelectionModule(Module):
    """Algorithm 1 running at one process."""

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        use_fd: bool = True,
        epoch_slack: Optional[int] = 1024,
        forward_updates: bool = True,
        incremental: bool = True,
        transport: Optional[ReliableTransport] = None,
        anti_entropy_period: Optional[float] = None,
    ) -> None:
        super().__init__(host)
        if not 1 <= f < n - f:
            raise ConfigurationError(
                f"need 1 <= f and q = n - f > f (majority correct); got n={n}, f={f}"
            )
        self.n = n
        self.f = f
        self.q = n - f
        self.use_fd = use_fd
        # Ignore suspicion stamps more than this far in the future (the
        # epoch-inflation defense, DESIGN.md §5.12); None = paper-literal.
        self.epoch_slack = epoch_slack
        # Gossip forwarding (Algorithm 1 line 23) is what makes the matrix
        # eventually consistent under equivocation (Lemma 1); the flag
        # exists only for the E9d ablation.
        self.forward_updates = forward_updates
        # Incremental graph view + quorum memo (DESIGN.md §5.13); False
        # restores the from-scratch seed path for equivalence testing.
        self.incremental = incremental
        # Optional lossy-channel countermeasures (DESIGN.md §5.14): route
        # protocol messages through an ack/retransmit layer, and/or run a
        # periodic digest-based matrix sync.  Both default off — the seed's
        # reliable-channel behaviour (and its traces) are untouched then.
        if anti_entropy_period is not None and anti_entropy_period <= 0:
            raise ConfigurationError(
                f"anti-entropy period must be positive, got {anti_entropy_period}"
            )
        self.transport = transport
        self.anti_entropy_period = anti_entropy_period
        # --- Algorithm 1 state ---
        self.epoch = 1
        self.suspecting: FrozenSet[int] = frozenset()
        self.matrix = SuspicionMatrix(n)
        self.qlast: FrozenSet[int] = default_quorum(n, self.q)
        # --- hot-path caches ---
        self._memo_key: Optional[Tuple[int, int, int, int]] = None
        self._memo_quorum: Optional[FrozenSet[int]] = None
        # (signer, tag) -> [last epoch the message was seen in, peers sent].
        # The epoch tag lets _advance_epoch prune entries for messages that
        # stopped circulating — gossip for a retired epoch dies out fast.
        self._forwarded: Dict[Tuple[int, bytes], List[Any]] = {}
        # --- anti-entropy state ---
        # owner -> dominance-pruned signed UPDATEs proving its row.
        self._row_certs: Dict[int, List[SignedMessage]] = {}
        self._ae_cursor = 0
        self._ae_handle: Optional[Any] = None
        # --- instrumentation ---
        self.quorum_events: List[QuorumEvent] = []
        self.quorums_per_epoch: Dict[int, int] = {}
        self.quorum_searches = 0
        self.searches_memoized = 0
        self.forwards_suppressed = 0
        self.forward_entries_pruned = 0
        self.ae_digests_sent = 0
        self.ae_rows_sent = 0
        self.ae_rows_applied = 0
        self._listeners: List[QuorumListener] = []
        # Bound in start(); NULL_OBS keeps bare stub hosts working.
        self._obs = NULL_OBS

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._obs = get_obs(self.host)
        self._obs.add_collector(self._collect_metrics)
        if self._obs.enabled:
            # Suspicion-edge spans ride the matrix's write observer; the
            # hot path pays one None-check per *actual* entry increase.
            self.matrix.observer = self._on_matrix_write
        self.host.subscribe(KIND_UPDATE, self._on_update)
        if self.use_fd:
            if self.host.fd is None:
                raise ConfigurationError(
                    f"p{self.pid}: QuorumSelectionModule(use_fd=True) needs a failure detector"
                )
            self.host.fd.subscribe_suspected(self.on_suspected)
        if self.anti_entropy_period is not None:
            self.host.subscribe(KIND_DIGEST, self._on_digest)
            self.host.subscribe(KIND_ROWS, self._on_rows)
            # Scheduler-level loop, not a host timer: the sync must keep
            # ticking through crash/recover so a recovered process pulls
            # itself back up to date without waiting for fresh suspicions.
            self._ae_handle = self.host.scheduler.schedule_every(
                self.anti_entropy_period,
                self._anti_entropy_tick,
                label=f"qs-ae@p{self.pid}",
            )

    def add_quorum_listener(self, listener: QuorumListener) -> None:
        """Consumers (e.g. the replicated application) get QUORUM events."""
        self._listeners.append(listener)

    @property
    def current_quorum(self) -> FrozenSet[int]:
        return self.qlast

    # ------------------------------------------------- Algorithm 1, lines 9-15

    def on_suspected(self, suspected: FrozenSet[int]) -> None:
        """``<SUSPECTED, S>`` from the failure detector (line 9)."""
        self._update_suspicions(frozenset(suspected) - {self.pid})

    def _update_suspicions(self, suspected: FrozenSet[int]) -> None:
        """Lines 11-15: stamp current suspicions, broadcast own row.

        Deviation from the pseudocode as printed (documented in DESIGN.md
        §5): the originator also recomputes its quorum when its own marks
        changed.  In the paper the recomputation is triggered by the
        self-addressed UPDATE, but that message merges as a no-change (the
        matrix was already written on line 14), so without this call the
        *originator* of a suspicion would never react to it.
        """
        self.suspecting = suspected
        changed = self._remark_and_broadcast()
        if changed:
            self._update_quorum()

    def _remark_and_broadcast(self) -> bool:
        """Stamp ``suspecting`` with the current epoch; broadcast own row."""
        changed = False
        for target in sorted(self.suspecting):
            if self.matrix.mark(self.pid, target, self.epoch):
                changed = True
        signed = self.host.authenticator.sign(UpdatePayload(self.matrix.row(self.pid)))
        if self.anti_entropy_period is not None:
            self._remember_cert(signed)
        self._broadcast_protocol(KIND_UPDATE, signed)
        return changed

    # ------------------------------------------------------- message routing

    def _send_protocol(self, dst: ProcessId, kind: str, payload: Any) -> None:
        """Send a protocol message, reliably when a transport is attached."""
        if self.transport is not None and dst != self.pid:
            self.transport.send(dst, kind, payload)
        else:
            self.host.send(dst, kind, payload)

    def _broadcast_protocol(self, kind: str, payload: Any) -> None:
        """Broadcast to all (including self), honouring the transport.

        Without a transport this is exactly the host broadcast the paper's
        pseudocode uses; with one, the local copy still takes the host's
        scheduled self-delivery path (ordering preserved) while remote
        copies get retransmission.
        """
        if self.transport is None:
            self.host.broadcast(range(1, self.n + 1), kind, payload)
            return
        self.host.broadcast((self.pid,), kind, payload)
        if not self.host.running:
            return
        for dst in range(1, self.n + 1):
            if dst != self.pid:
                self.transport.send(dst, kind, payload)

    # ------------------------------------------------ Algorithm 1, lines 16-24

    def _on_update(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Handle a (pre-authenticated) ``UPDATE`` (lines 16-24).

        The failure detector already verified the signature; ``src`` is the
        signer.  Hosts without a failure detector verify here.
        """
        if not isinstance(payload, SignedMessage):
            return
        if self.host.fd is None and not self.host.authenticator.verify(payload):
            return
        owner = payload.signer
        body = payload.payload
        if not isinstance(body, UpdatePayload):
            return
        if self.anti_entropy_period is not None:
            self._remember_cert(payload)
        changed = self.matrix.merge_row(owner, body.row)
        if changed:
            # Forward the original signed message so peers converge even if
            # the (possibly faulty) owner never sent it to them (Lemma 1).
            if self.forward_updates:
                self._forward_update(payload, src)
            self._update_quorum()

    def _forward_update(self, payload: SignedMessage, src: ProcessId) -> None:
        """Gossip-forward an UPDATE, at most once per (message, peer).

        The signature tag is already a MAC over the signed row, so
        ``(signer, tag)`` identifies the message content without extra
        hashing.  Max-merge idempotence makes re-forwarding harmless but
        wasteful; the memory guarantees each peer is sent a given signed
        UPDATE at most once by this process.
        """
        key = (payload.signature.signer, payload.signature.tag)
        entry = self._forwarded.get(key)
        if entry is None:
            if len(self._forwarded) >= FORWARD_MEMORY_LIMIT:
                self._forwarded.clear()
            entry = self._forwarded[key] = [self.epoch, set()]
        else:
            entry[0] = self.epoch
        sent = entry[1]
        for dst in range(1, self.n + 1):
            if dst in (self.pid, src):
                continue
            if dst in sent:
                self.forwards_suppressed += 1
                continue
            sent.add(dst)
            self._send_protocol(dst, KIND_UPDATE, payload)

    # ------------------------------------------------ Algorithm 1, lines 25-34

    def _update_quorum(self) -> None:
        """Lines 25-34: recompute the quorum for the current epoch.

        When the epoch's suspicions are inconsistent (no independent set —
        some correct process suspected another), the epoch is advanced to
        the next *viable* value and the current suspicions are re-stamped.
        The paper increments by one per pass; jumping over epochs whose
        graphs are identical (delimited by the distinct matrix values) is
        observationally equivalent and caps the work a Byzantine process
        can cause by stamping absurdly high epochs (DESIGN.md §5).
        """
        while True:
            graph = self._suspect_graph()
            key = (graph.uid, graph.version, self.epoch, self.q)
            if key == self._memo_key:
                # Matrix changed but no edge of this epoch's band did: the
                # previous search result stands and qlast is already it.
                self.searches_memoized += 1
                return
            if self._viable(graph):
                break
            self._advance_epoch(self._next_viable_epoch())
            # Re-stamp current suspicions in the new epoch and let peers
            # know (may itself remove the independent set again: loop).
            self._remark_and_broadcast()
        quorum = lex_first_independent_set(graph, self.q, assume_exists=True)
        assert quorum is not None  # existence was just checked
        self.quorum_searches += 1
        self._memo_key = (graph.uid, graph.version, self.epoch, self.q)
        self._memo_quorum = quorum
        if quorum != self.qlast:
            self.qlast = quorum
            self._issue(quorum)

    def _advance_epoch(self, new_epoch: int) -> None:
        """Move to ``new_epoch`` (logging as the seed did) and collect
        gossip bookkeeping for retired epochs.

        An UPDATE that stopped circulating before the advance will never be
        received again (every peer that held it has forwarded it already),
        so forward-dedup entries last touched in an older epoch are dead
        weight — pruning them is what keeps ``_forwarded`` bounded across
        epoch-inflation runs instead of growing until the overflow reset.
        An entry for a message that *does* arrive again is merely recreated
        with an empty sent-set; re-forwarding is idempotent (max-merge).
        """
        self.epoch = new_epoch
        self.host.log.append(self.host.now, self.pid, "qs.epoch", epoch=new_epoch)
        self._obs.span(SPAN_EPOCH_ADVANCE, self.pid, self.host.now, epoch=new_epoch)
        stale = [key for key, entry in self._forwarded.items() if entry[0] < new_epoch]
        for key in stale:
            del self._forwarded[key]
        self.forward_entries_pruned += len(stale)

    def _suspect_graph(self, epoch: Optional[int] = None):
        """The suspect graph at an epoch, with the inflation band applied.

        With no explicit epoch this returns the matrix's maintained view
        (O(1) when nothing re-tracked); an explicit epoch always builds
        from scratch — only non-hot paths ask for arbitrary epochs.
        """
        if epoch is None and self.incremental:
            return self.matrix.suspect_graph_view(self.epoch, self.epoch_slack)
        return self.matrix.build_suspect_graph(
            self.epoch if epoch is None else epoch, slack=self.epoch_slack
        )

    def _viable(self, graph) -> bool:
        """Whether a quorum can be selected from this epoch's graph.

        Algorithm 1 needs an independent set of size ``q``; variants
        (e.g. Chain Selection) override this with their weaker existence
        predicate so epochs advance only when *their* structure is gone.
        """
        return has_independent_set(graph, self.q)

    def _next_viable_epoch(self) -> int:
        """Smallest epoch > current whose suspect graph is viable.

        The graph only changes at thresholds ``value + 1`` for values in
        the matrix, so those are the only candidates worth testing; the
        final threshold (max value + 1) yields an empty graph, which is
        always viable.  Candidate graphs are derived from the current one
        by band deltas (:meth:`SuspicionMatrix.iter_probe_graphs`) rather
        than rebuilt per threshold.
        """
        change_points = {self.epoch + 1}
        for _, _, value in self.matrix.entries():
            if value + 1 > self.epoch + 1:
                change_points.add(value + 1)
            if self.epoch_slack is not None:
                # A future-dated stamp *enters* the band at value - slack:
                # the graph also changes there.
                entry = value - self.epoch_slack
                if entry > self.epoch + 1:
                    change_points.add(entry)
        thresholds = sorted(change_points)
        if self.incremental:
            for candidate, graph in self.matrix.iter_probe_graphs(
                self.epoch, thresholds, self.epoch_slack
            ):
                if self._viable(graph):
                    return candidate
        else:
            for candidate in thresholds:
                if self._viable(self._suspect_graph(candidate)):
                    return candidate
        return thresholds[-1]  # pragma: no cover - last is always viable

    # ---------------------------------------------- anti-entropy (DESIGN §5.14)

    def _remember_cert(self, signed: SignedMessage) -> None:
        """Retain a signed UPDATE as a row certificate, dominance-pruned.

        Gossip forwards relay the *original* signed messages because nobody
        can re-sign another's row; anti-entropy needs the same originals to
        repair peers later.  A correct owner's row only grows, so its newest
        cert pointwise-dominates all earlier ones and exactly one survives;
        only an equivocator can build an antichain, capped at
        :data:`MAX_CERTS_PER_OWNER` (oldest dropped — its claims are
        usually absorbed into peers' matrices already, and losing them only
        costs convergence of the *liar's* row entries).
        """
        body = signed.payload
        if not isinstance(body, UpdatePayload):
            return
        row = body.row
        kept = self._row_certs.get(signed.signer)
        if kept is None:
            self._row_certs[signed.signer] = [signed]
            return
        survivors: List[SignedMessage] = []
        for cert in kept:
            old_row = cert.payload.row
            if len(old_row) == len(row) and all(a >= b for a, b in zip(old_row, row)):
                return  # an existing cert already proves everything new one does
            if len(old_row) == len(row) and all(b >= a for a, b in zip(old_row, row)):
                continue  # new cert strictly covers this one: drop it
            survivors.append(cert)
        survivors.append(signed)
        if len(survivors) > MAX_CERTS_PER_OWNER:
            survivors = survivors[-MAX_CERTS_PER_OWNER:]
        self._row_certs[signed.signer] = survivors

    def _anti_entropy_tick(self) -> None:
        """Push a matrix digest to the next peer (round-robin).

        Round-robin rather than random keeps the simulation deterministic
        without touching any RNG stream, and guarantees every ordered pair
        of correct processes syncs within ``n - 1`` periods — which is all
        Lemma 1's eventual consistency needs once channels can lose gossip.
        Digests and row replies ride the raw (lossy) channel on purpose: a
        lost probe is retried by the next tick, so reliability here would
        only add traffic.
        """
        if not self.host.running:
            return
        if self.n < 2:
            return
        # index into [1..n] \ {self.pid} without materialising the list
        index = self._ae_cursor % (self.n - 1)
        peer = index + 1 if index + 1 < self.pid else index + 2
        self._ae_cursor += 1
        payload = MatrixDigestPayload(self.epoch, self.matrix.row_digests())
        self.host.send(peer, KIND_DIGEST, payload)
        self.ae_digests_sent += 1

    def _on_digest(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Answer a digest probe with certs for every differing row.

        "Differing" may mean the prober is *ahead* of us — shipping our
        certs is then redundant but harmless (max-merge), and the reverse
        direction is covered when our own cursor reaches the prober.
        """
        if not isinstance(payload, MatrixDigestPayload):
            return
        theirs = payload.row_digests
        mine = self.matrix.row_digests()
        if not isinstance(theirs, tuple) or len(theirs) != len(mine):
            return  # malformed or different n: Byzantine garbage
        certs: List[SignedMessage] = []
        for owner in range(1, self.n + 1):
            if mine[owner] != theirs[owner]:
                certs.extend(self._row_certs.get(owner, ()))
        if certs:
            self.host.send(src, KIND_ROWS, RowCertsPayload(tuple(certs)))
            self.ae_rows_sent += 1

    def _on_rows(self, kind: str, payload: Any, src: ProcessId) -> None:
        """Verify and merge received row certificates; recompute once."""
        if not isinstance(payload, RowCertsPayload):
            return
        certs = payload.certs
        if not isinstance(certs, tuple):
            return
        if len(certs) > self.n * MAX_CERTS_PER_OWNER:
            return  # no honest peer ships more than its full cert store
        changed = False
        for cert in certs:
            if not isinstance(cert, SignedMessage):
                continue
            if not isinstance(cert.payload, UpdatePayload):
                continue
            if not self.host.authenticator.verify(cert):
                continue
            self._remember_cert(cert)
            if self.matrix.merge_row(cert.signer, cert.payload.row):
                changed = True
                self.ae_rows_applied += 1
        if changed:
            # No gossip re-forward here: anti-entropy repairs pairwise and
            # periodically, so flooding certs would defeat its point.
            self._update_quorum()

    def _issue(self, quorum: FrozenSet[int], leader: Optional[int] = None) -> None:
        event = QuorumEvent(
            time=self.host.now,
            process=self.pid,
            epoch=self.epoch,
            quorum=quorum,
            leader=leader,
        )
        self.quorum_events.append(event)
        self.quorums_per_epoch[self.epoch] = self.quorums_per_epoch.get(self.epoch, 0) + 1
        self.host.log.append(
            self.host.now,
            self.pid,
            "qs.quorum",
            epoch=self.epoch,
            quorum=tuple(sorted(quorum)),
            leader=leader,
        )
        self._obs.span(
            SPAN_QUORUM_CHANGE, self.pid, self.host.now,
            epoch=self.epoch, quorum=tuple(sorted(quorum)),
        )
        for listener in self._listeners:
            listener(event)

    # ---------------------------------------------------------- observability

    def _on_matrix_write(self, suspector: int, suspectee: int, value: int) -> None:
        """Matrix write observer: one suspicion-edge span per entry increase."""
        self._obs.span(
            SPAN_SUSPICION_EDGE, self.pid, self.host.now,
            suspector=suspector, suspectee=suspectee, stamp=value,
        )

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: fold the plain-int counters in.

        Runs only when a snapshot is taken (never on the UPDATE hot path);
        every metric is labelled with this process's pid so the sim's
        shared registry and a net node's private one export comparable
        families.
        """
        pid = self.pid
        registry.counter("qs_quorum_changes_total",
                         help="QUORUM events issued", pid=pid
                         ).set(len(self.quorum_events))
        registry.gauge("qs_epoch", help="current epoch", pid=pid).set(self.epoch)
        registry.gauge("qs_quorum_size", help="members in the current quorum",
                       pid=pid).set(len(self.qlast))
        registry.gauge("qs_suspecting", help="processes currently suspected",
                       pid=pid).set(len(self.suspecting))
        registry.gauge("qs_max_changes_per_epoch",
                       help="worst per-epoch quorum-change count (Thm 3 subject)",
                       pid=pid).set(self.max_quorums_in_any_epoch())
        for name, value in (
            ("qs_quorum_searches_total", self.quorum_searches),
            ("qs_searches_memoized_total", self.searches_memoized),
            ("qs_forwards_suppressed_total", self.forwards_suppressed),
            ("qs_forward_entries_pruned_total", self.forward_entries_pruned),
            ("qs_ae_digests_sent_total", self.ae_digests_sent),
            ("qs_ae_rows_sent_total", self.ae_rows_sent),
            ("qs_ae_rows_applied_total", self.ae_rows_applied),
            ("matrix_entry_writes_total", self.matrix.version),
            ("matrix_graph_builds_total", self.matrix.graph_builds),
            ("matrix_graph_reuses_total", self.matrix.graph_reuses),
            ("matrix_edge_updates_total", self.matrix.incremental_edge_updates),
        ):
            registry.counter(name, help="quorum-selection hot-path counter",
                             pid=pid).set(value)

    # ------------------------------------------------------------ diagnostics

    def total_quorums_issued(self) -> int:
        return len(self.quorum_events)

    def max_quorums_in_any_epoch(self) -> int:
        return max(self.quorums_per_epoch.values(), default=0)

    def hotpath_stats(self) -> Dict[str, int]:
        """Counters for the E21 hot-path benchmark harness."""
        return {
            "quorum_searches": self.quorum_searches,
            "searches_memoized": self.searches_memoized,
            "graph_builds": self.matrix.graph_builds,
            "graph_reuses": self.matrix.graph_reuses,
            "incremental_edge_updates": self.matrix.incremental_edge_updates,
            "forwards_suppressed": self.forwards_suppressed,
        }

    def robustness_stats(self) -> Dict[str, int]:
        """Counters for the lossy-gossip (E22) benchmark harness."""
        return {
            "forward_entries_pruned": self.forward_entries_pruned,
            "forward_entries_live": len(self._forwarded),
            "ae_digests_sent": self.ae_digests_sent,
            "ae_rows_sent": self.ae_rows_sent,
            "ae_rows_applied": self.ae_rows_applied,
        }
