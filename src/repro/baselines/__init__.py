"""Baseline BFT protocols used by the paper's comparisons.

- The PBFT-style pattern (PRE-PREPARE / PREPARE / COMMIT, broadcast to
  all ``n``, proceed on ``n - f`` replies) is not a module here: it is
  backend ``ibft`` on selector ``all``, against the same backend on
  ``qs`` for the active-quorum configuration the paper's introduction
  credits with dropping ~1/3 of inter-replica messages
  (:func:`repro.protocol.system.build_backend_system`).
- :mod:`repro.baselines.bchain` — a BChain-style chain-replication
  normal case with re-chaining on suspicion and an external standby pool,
  the other prior system the paper identifies as doing (unsatisfactory)
  Quorum Selection.  The chains stay outside the replica core: a chain
  forwards hop by hop — no proposal answered by votes, no certificate —
  so mounting one would put a topology branch into every core path.
"""

from repro.baselines.bchain import BChainReplica, BChainClient, build_bchain_cluster, BChainCluster
from repro.baselines.bchain_cs import (
    BChainCsReplica,
    BChainCsClient,
    BChainCsCluster,
    build_bchain_cs_cluster,
)

__all__ = [
    "BChainReplica",
    "BChainClient",
    "build_bchain_cluster",
    "BChainCluster",
    "BChainCsReplica",
    "BChainCsClient",
    "BChainCsCluster",
    "build_bchain_cs_cluster",
]
