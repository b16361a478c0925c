"""Chain Selection — Quorum Selection for chain-communicating systems.

This module implements the special case the paper's conclusion leaves as
future work: systems like BChain route traffic along a *chain*, so only
consecutive links carry messages and only suspicions on those links
endanger operation.  The specification relaxes accordingly:

- **No link suspicion** — eventually, for every pair of *adjacent* chain
  members, neither suspects the other (suspicions between non-adjacent
  members are tolerated, like follower-follower suspicions in Follower
  Selection).
- Termination and Agreement are unchanged from Section IV-A.

The mechanism reuses Algorithm 1 wholesale — the same suspicion matrix,
gossip, and epoch machinery — and only replaces the selection function:
the output is the lexicographically first *conflict-free chain* (a
``q``-sequence with no suspect edge between neighbours) instead of the
lexicographically first independent set.  Two consequences, both
measured in benchmark E13:

- chains exist whenever independent sets do (sort the set) *and* in many
  denser graphs, so epochs advance less often;
- an adversary inside the chain can only force a change by creating a
  suspicion on one of the ``q - 1`` *current* links, and the
  lexicographic re-selection buries repeat offenders deeper down the
  chain — measured churn sits well below Algorithm 1's
  ``C(f+2,2) - 1``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.quorum_selection import QuorumSelectionModule
from repro.graphs.chain_path import has_chain, lex_first_chain
from repro.host import Host


class ChainSelectionModule(QuorumSelectionModule):
    """Chain Selection at one process (extension module)."""

    def __init__(self, host: Host, n: int, f: int, use_fd: bool = True) -> None:
        super().__init__(host, n, f, use_fd=use_fd)
        self.chain: Tuple[int, ...] = tuple(range(1, self.q + 1))

    # -------------------------------------------------- selection override

    def _viable(self, graph) -> bool:
        # Chains exist at least as often as independent sets: epochs
        # advance only when even a chain is impossible.
        return has_chain(graph, self.q)

    def _update_quorum(self) -> None:
        while True:
            graph = self._suspect_graph()
            key = (graph.uid, graph.version, self.epoch, self.q)
            if key == self._memo_key:
                # No edge of this epoch's band changed: the previous chain
                # stands (see QuorumSelectionModule._update_quorum).
                self.searches_memoized += 1
                return
            # Viability and selection share one search: a chain existing is
            # lex_first_chain returning non-None.
            chain = lex_first_chain(graph, self.q)
            if chain is not None:
                break
            self.epoch = self._next_viable_epoch()
            self.host.log.append(self.host.now, self.pid, "qs.epoch", epoch=self.epoch)
            self._remark_and_broadcast()
        self.quorum_searches += 1
        self._memo_key = (graph.uid, graph.version, self.epoch, self.q)
        if chain != self.chain:
            self.chain = chain
            self.qlast = frozenset(chain)
            self._issue(self.qlast, leader=chain[0])
            self.host.log.append(
                self.host.now, self.pid, "cs.chain", chain=chain, epoch=self.epoch
            )

    # ------------------------------------------------------------ diagnostics

    @property
    def head(self) -> Optional[int]:
        return self.chain[0] if self.chain else None

    @property
    def tail(self) -> Optional[int]:
        return self.chain[-1] if self.chain else None
