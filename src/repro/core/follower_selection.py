"""Algorithm 2 — Follower Selection for leader-centric systems (Sec. VIII).

Requires ``n > 3f`` and FIFO channels between correct processes.  Shares
Algorithm 1's suspicion propagation (the module subclasses
:class:`QuorumSelectionModule`) but replaces quorum computation:

- If the suspect graph has no independent set of size ``q``: advance the
  epoch, cancel failure-detector expectations, fall back to the default
  leader ``p_1`` and default quorum ``{p_1..p_q}``, and re-stamp
  suspicions (lines 9-16).
- Otherwise compute the maximal line subgraph ``L`` (Definition 1).  If
  its designated leader differs from the current one: remember the new
  leader, mark the quorum unstable, cancel expectations, and either
  *expect* a signed ``FOLLOWERS`` message from the new leader (follower
  side, line 23) or select ``q - 1`` possible followers and broadcast the
  signed ``FOLLOWERS`` message (leader side, lines 25-26).
- A received ``FOLLOWERS`` message from the current leader in the current
  epoch is checked for well-formedness (Definition 3); malformed messages
  and equivocation yield ``DETECTED`` (lines 29-32); the first acceptable
  one commits the quorum, is forwarded, and is announced via
  ``<QUORUM, leader, Q>`` (lines 33-37).
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional

from repro.core.messages import KIND_FOLLOWERS, FollowersPayload
from repro.core.quorum_selection import QuorumSelectionModule
from repro.crypto.authenticator import SignedMessage
from repro.graphs.independent_set import has_independent_set
from repro.graphs.line_subgraph import (
    LineSubgraph,
    is_line_subgraph,
    leader_of,
    maximal_line_subgraph,
    possible_followers,
)
from repro.host import Host
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId, default_quorum

FD_GROUP = "follower-selection"


class FollowerSelectionModule(QuorumSelectionModule):
    """Algorithm 2 running at one process."""

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        use_fd: bool = True,
        transport=None,
        anti_entropy_period: Optional[float] = None,
    ) -> None:
        super().__init__(
            host,
            n,
            f,
            use_fd=use_fd,
            transport=transport,
            anti_entropy_period=anti_entropy_period,
        )
        if n <= 3 * f:
            raise ConfigurationError(
                f"Follower Selection assumes |Pi| > 3f; got n={n}, f={f}"
            )
        # --- Algorithm 2 extra state ---
        self.leader: ProcessId = 1
        self.stable = True
        self.line: Optional[LineSubgraph] = None
        # Diagnostics: times a leader could not find q-1 possible followers.
        self.insufficient_followers = 0

    def start(self) -> None:
        super().start()
        self.host.subscribe(KIND_FOLLOWERS, self._on_followers)

    # ----------------------------------------------- Algorithm 2, updateQuorum

    def _update_quorum(self) -> None:
        while True:
            graph = self._suspect_graph()
            key = (graph.uid, graph.version, self.epoch, self.q)
            if key == self._memo_key:
                # Unchanged graph ⇒ same maximal line subgraph ⇒ same
                # leader, which line 18 would ignore anyway — skip the
                # (expensive) line-subgraph recomputation entirely.
                self.searches_memoized += 1
                return
            if has_independent_set(graph, self.q):
                break
            # Lines 9-16: inconsistent suspicions -> next epoch, defaults.
            self._advance_epoch(self._next_viable_epoch())
            self._cancel_expectations()
            self.leader = 1
            self.stable = True
            self.qlast = default_quorum(self.n, self.q)
            self._issue(self.qlast, leader=self.leader)
            # Re-stamping own suspicions may break independence again; the
            # loop then advances further, as the self-UPDATE would in the
            # paper's event-at-a-time formulation.
            self._remark_and_broadcast()
        line = maximal_line_subgraph(graph)
        self.quorum_searches += 1
        self._memo_key = (graph.uid, graph.version, self.epoch, self.q)
        new_leader = leader_of(line)
        assert new_leader is not None  # the search always leaves one uncovered
        self.line = line
        if self.leader == new_leader:
            # Line 18: suspicions that do not change the leader are ignored.
            return
        # Lines 19-26.
        self.stable = False
        self.leader = new_leader
        self._cancel_expectations()
        if self.leader != self.pid:
            self._expect_followers_message()
        else:
            self._broadcast_followers(line)

    # -------------------------------------------------------------- leader side

    def _broadcast_followers(self, line: LineSubgraph) -> None:
        """Lines 25-26: pick ``q - 1`` possible followers, broadcast signed."""
        candidates = sorted(possible_followers(line) - {self.pid})
        if len(candidates) < self.q - 1:
            # Cannot form a well-formed FOLLOWERS message.  Stay silent:
            # followers' expectations will time out, we get suspected, the
            # leader moves on.  Instrumented because under an accurate
            # failure detector this should never happen (Lemma 8).
            self.insufficient_followers += 1
            self.host.log.append(
                self.host.now, self.pid, "fs.insufficient", candidates=len(candidates)
            )
            return
        followers = tuple(candidates[: self.q - 1])
        payload = FollowersPayload(
            followers=followers,
            line_edges=tuple(sorted(line.edges())),
            epoch=self.epoch,
        )
        signed = self.host.authenticator.sign(payload)
        self._broadcast_protocol(KIND_FOLLOWERS, signed)

    # ------------------------------------------------------------ follower side

    def _expect_followers_message(self) -> None:
        """Line 23: expect ``<FOLLOWERS, ..., epoch>`` signed by the leader."""
        if self.host.fd is None:
            return
        expected_leader = self.leader
        expected_epoch = self.epoch

        def match(kind: str, payload: Any) -> bool:
            return (
                kind == KIND_FOLLOWERS
                and isinstance(payload, SignedMessage)
                and payload.signer == expected_leader
                and isinstance(payload.payload, FollowersPayload)
                and payload.payload.epoch == expected_epoch
            )

        self.host.fd.expect(
            source=expected_leader,
            predicate=match,
            group=FD_GROUP,
            label=f"followers<-p{expected_leader}@e{expected_epoch}",
        )

    def _cancel_expectations(self) -> None:
        """Line 11 / line 21: ``<CANCEL>`` scoped to this module's group."""
        if self.host.fd is not None:
            self.host.fd.cancel(group=FD_GROUP)

    # ------------------------------------------------ Algorithm 2, lines 27-37

    def _on_followers(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage):
            return
        if self.host.fd is None and not self.host.authenticator.verify(payload):
            return
        sender = payload.signer
        body = payload.payload
        if not isinstance(body, FollowersPayload):
            return
        # Line 28: only the current leader's message for the current epoch.
        if sender != self.leader or body.epoch != self.epoch:
            return
        if not self._well_formed(body, sender):
            # Line 30: malformed -> proof of leader misbehaviour.
            self._detect(sender, reason="malformed-followers")
            return
        quorum = frozenset(body.followers) | {self.leader}
        if self.stable and quorum != self.qlast:
            # Line 31-32: two different accepted FOLLOWERS in one epoch.
            self._detect(sender, reason="followers-equivocation")
            return
        if not self.stable:
            # Lines 33-37: commit, forward, announce.
            self.stable = True
            self.qlast = quorum
            for dst in range(1, self.n + 1):
                if dst not in (self.pid, src):
                    self._send_protocol(dst, KIND_FOLLOWERS, payload)
            self._issue(quorum, leader=self.leader)

    def _well_formed(self, body: FollowersPayload, sender: ProcessId) -> bool:
        """Definition 3 (a)-(d) against the local suspect graph."""
        followers = body.followers
        # (a) leader not among followers, exactly q - 1 of them, all valid ids.
        if len(set(followers)) != self.q - 1 or sender in followers:
            return False
        if any(not isinstance(p, int) or not 1 <= p <= self.n for p in followers):
            return False
        # (b) the edges form a line subgraph of *my* current suspect graph.
        graph = self._suspect_graph()
        if not is_line_subgraph(body.line_edges, graph):
            return False
        line = LineSubgraph(self.n, body.line_edges)
        # (c) the line subgraph designates the sender as leader.
        if leader_of(line) != sender:
            return False
        # (d) every follower is a possible follower for that line subgraph.
        allowed = possible_followers(line)
        return all(p in allowed for p in followers)

    def _detect(self, culprit: ProcessId, reason: str) -> None:
        self.host.log.append(self.host.now, self.pid, "fs.detected", target=culprit, reason=reason)
        if self.host.fd is not None:
            self.host.fd.detected(culprit)
