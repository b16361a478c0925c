"""A leader-centric (star) replication protocol for Follower Selection.

Section VIII motivates Follower Selection with applications "where a
single leader communicates with several followers, but followers do not
directly communicate with each other".  :mod:`repro.leadercentric.star`
is such an application: a vote phase on the shared replica core
(:mod:`repro.protocol.replica`) whose only links are leader<->follower,
registered as backend ``star``.

Why it matters for the paper's story:

- follower-follower omissions are *physically impossible* to matter
  (there are no such links), so the relaxed *no leader suspicion*
  property is exactly the right specification;
- every decision costs ``3 (q - 1)`` messages (PROPOSE + ACK + DECIDE on
  the star) instead of the quadratic COMMIT exchange of XPaxos;
- on selector ``fs`` reconfiguration churn under attack is Follower
  Selection's ``O(f)`` (Theorem 9 / benchmark E20) instead of Quorum
  Selection's ``Θ(f²)``.
"""

from repro.leadercentric.star import StarReplica

__all__ = ["StarReplica"]
