"""The decision-number <-> quorum mapping (Section V-B), protocol-neutral.

Every leader-centric backend numbers its decisions (XPaxos *views*,
IBFT *rounds*) and runs each inside a fixed quorum.  XPaxos enumerates
all ``C(n, f)`` quorums of size ``q = n - f`` in a fixed order and moves
"to the next quorum in the enumeration, using round robin
if the list is exhausted".  We use lexicographic order of sorted id
tuples, the same total order Quorum Selection uses, and combinatorial
(un)ranking so view numbers can grow without materializing the list.

View ``v`` (0-based) maps to the quorum with lexicographic rank
``v mod C(n, f)``; the view's leader is the quorum's lowest id (Fig. 2).
A ``<QUORUM, Q>`` event maps back to the smallest view ``>= v_min`` whose
quorum is ``Q`` — installing it "suspects all quorums ordered before Q".
"""

from __future__ import annotations

from math import comb
from typing import FrozenSet, Iterable, Tuple

from repro.util.errors import ConfigurationError


def total_quorums(n: int, q: int) -> int:
    """``C(n, q)`` — the length of the enumeration cycle."""
    if not 1 <= q <= n:
        raise ConfigurationError(f"invalid quorum size q={q} for n={n}")
    return comb(n, q)


def quorum_for_view(view: int, n: int, q: int) -> FrozenSet[int]:
    """Unrank: the quorum assigned to (0-based) ``view``."""
    if view < 0:
        raise ConfigurationError(f"view must be >= 0, got {view}")
    rank = view % total_quorums(n, q)
    members = []
    next_id = 1
    remaining = q
    while remaining > 0:
        # Count of q-subsets starting with next_id among ids >= next_id.
        with_next = comb(n - next_id, remaining - 1)
        if rank < with_next:
            members.append(next_id)
            remaining -= 1
        else:
            rank -= with_next
        next_id += 1
    return frozenset(members)


def rank_of_quorum(quorum: Iterable[int], n: int, q: int) -> int:
    """Rank of a quorum in the lexicographic enumeration (0-based)."""
    members: Tuple[int, ...] = tuple(sorted(quorum))
    if len(members) != q or len(set(members)) != q:
        raise ConfigurationError(f"quorum must have exactly q={q} distinct members")
    if members[0] < 1 or members[-1] > n:
        raise ConfigurationError(f"quorum members out of range 1..{n}")
    rank = 0
    previous = 0
    for position, member in enumerate(members):
        for skipped in range(previous + 1, member):
            rank += comb(n - skipped, q - position - 1)
        previous = member
    return rank


def _view_at_rank(rank: int, cycle: int, min_view: int) -> int:
    """Smallest view ``>= min_view`` congruent to ``rank`` modulo ``cycle``."""
    lap = min_view // cycle + (rank < min_view % cycle)
    return lap * cycle + rank


def view_for_quorum(quorum: Iterable[int], n: int, q: int, min_view: int) -> int:
    """Smallest view ``>= min_view`` whose assigned quorum is ``quorum``."""
    return _view_at_rank(rank_of_quorum(quorum, n, q), total_quorums(n, q), min_view)


def leader_of_view(view: int, n: int, q: int) -> int:
    """The view's leader: lowest id in the view's quorum (Figure 2)."""
    return min(quorum_for_view(view, n, q))


# ---------------------------------------------------------------------------
# Follower Selection (Algorithm 2) outputs a *pair*: a leader and the
# ``q - 1`` followers it chose, so its views enumerate ``(leader,
# follower-set)`` configurations — leader-major (Definition 2 moves the
# leader strictly upward within an epoch, so views grow with it), then
# the follower set in the lexicographic order above over the other
# ``n - 1`` ids.  View 0 is Algorithm 2's default ``(p1, {p1..pq})``.


def total_configs(n: int, q: int) -> int:
    """``n * C(n-1, q-1)`` — the length of the configuration cycle."""
    return n * total_quorums(n - 1, q - 1)


def config_for_view(view: int, n: int, q: int) -> Tuple[int, FrozenSet[int]]:
    """Unrank: the ``(leader, quorum)`` assigned to (0-based) ``view``."""
    if view < 0:
        raise ConfigurationError(f"view must be >= 0, got {view}")
    leader, rank = divmod(view % total_configs(n, q), total_quorums(n - 1, q - 1))
    leader += 1
    # Followers are ranked over the ids with the leader taken out.
    followers = (p + (p >= leader) for p in quorum_for_view(rank, n - 1, q - 1))
    return leader, frozenset(followers) | {leader}


def view_for_config(
    leader: int, quorum: Iterable[int], n: int, q: int, min_view: int
) -> int:
    """Smallest view ``>= min_view`` assigned ``(leader, quorum)``."""
    members = frozenset(quorum)
    if leader not in members or not 1 <= leader <= n:
        raise ConfigurationError(f"leader p{leader} must be a member of {sorted(members)}")
    followers = (p - (p > leader) for p in members - {leader})
    rank = (leader - 1) * total_quorums(n - 1, q - 1) + rank_of_quorum(
        followers, n - 1, q - 1
    )
    return _view_at_rank(rank, total_configs(n, q), min_view)
