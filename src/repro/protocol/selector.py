"""Selectors: who runs a decision number, and when to leave it (shared).

This is the protocol-neutral half of the contract the paper describes
in Section V-B: a BFT protocol exposes a totally ordered sequence of
*decision numbers* (XPaxos calls them views, IBFT rounds), each run by
a fixed ``(leader, quorum)`` pair from a public enumeration, and a
selection module steers which decision number to jump to.  A
:class:`Selector` is everything the replica core asks about that:

- ``leader_of(view)`` / ``quorum_of(view)`` — pure functions of the
  view, so certificates of earlier views stay checkable by anyone;
- ``view_on_suspicion(view, suspected)`` — where a failure-detector
  suspicion alone moves the replica (or ``None``);
- ``view_on_selected(event, view)`` — where a ``<QUORUM, ...>`` event
  of :attr:`Selector.module` moves it (or ``None``);
- ``accepts(view)`` — whether to join a change to ``view`` that a peer
  announced;
- ``module`` — the selection module whose events the replica listens
  to, if any.

Four are registered: ``qs`` (Algorithm 1 drives the views), ``enum``
(XPaxos' original try-the-next-quorum), ``fs`` (Algorithm 2 drives
``(leader, followers)`` configurations; ``n > 3f``) and ``all`` (every
replica, one static view).  Because every backend consults the *same*
selector over the *same* enumeration, identical selection output makes
them adopt identical leaders and quorums — the property the
differential suite pins.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple, Type

from repro.core.follower_selection import FollowerSelectionModule
from repro.core.quorum_selection import QuorumSelectionModule
from repro.protocol.enumeration import (
    config_for_view,
    quorum_for_view,
    view_for_config,
    view_for_quorum,
)
from repro.util.errors import ConfigurationError


class Selector:
    """Strategy interface consulted by every protocol backend's replica."""

    #: Class of the selection module this selector listens to, if any.
    module_class: Optional[type] = None

    def __init__(self, n: int, f: int, module: Optional[Any] = None) -> None:
        self.n = n
        self.f = f
        self.q = n - f
        self.module = module
        # The pair of the view asked about last: a replica asks for its
        # current view's leader and quorum several times per message.
        self._view = -1
        self._pair: Tuple[int, FrozenSet[int]] = (0, frozenset())

    def _pair_of(self, view: int) -> Tuple[int, FrozenSet[int]]:
        """Unrank ``view`` into its ``(leader, quorum)``."""
        raise NotImplementedError

    def _lookup(self, view: int) -> Tuple[int, FrozenSet[int]]:
        if view != self._view:
            self._pair = self._pair_of(view)
            self._view = view
        return self._pair

    def leader_of(self, view: int) -> int:
        return self._lookup(view)[0]

    def quorum_of(self, view: int) -> FrozenSet[int]:
        return self._lookup(view)[1]

    def view_on_suspicion(self, view: int, suspected: FrozenSet[int]) -> Optional[int]:
        """View to move to when the FD suspects ``suspected`` (or None)."""
        return None

    def view_on_selected(self, event: Any, view: int) -> Optional[int]:
        """View to move to when :attr:`module` outputs ``event`` (or None)."""
        return None

    def accepts(self, view: int) -> bool:
        """Whether to join a peer's change to the (higher) ``view``."""
        return False


class _LowestIdLeads(Selector):
    """Algorithm 1's enumeration: all ``C(n, f)`` quorums in lexicographic
    order, each led by its lowest id (Figure 2)."""

    def _pair_of(self, view):
        quorum = quorum_for_view(view, self.n, self.q)
        return min(quorum), quorum


class EnumSelector(_LowestIdLeads):
    """Original XPaxos: on a suspicion inside the quorum, try the next."""

    def view_on_suspicion(self, view, suspected):
        return view + 1 if suspected & self.quorum_of(view) else None

    def accepts(self, view):
        return True


class QsSelector(_LowestIdLeads):
    """Quorum-Selection-driven decisions (Section V-B).

    Suspicions alone do not move the decision number — Algorithm 1
    aggregates them (including other processes', via its eventually
    consistent matrix) and its ``<QUORUM, Q>`` output picks the target
    directly, skipping every quorum ordered before ``Q``.
    """

    module_class = QuorumSelectionModule

    def view_on_selected(self, event, view):
        if event.quorum == self.quorum_of(view):
            return None
        return view_for_quorum(event.quorum, self.n, self.q, view + 1)

    def accepts(self, view):
        return self.quorum_of(view) == self.module.current_quorum


class FsSelector(Selector):
    """Follower-Selection-driven decisions (Section VIII, ``n > 3f``).

    Algorithm 2's ``<QUORUM, l, Q>`` names the leader as well, so views
    enumerate ``(leader, follower-set)`` pairs and the leader need not
    be the quorum's lowest id.
    """

    module_class = FollowerSelectionModule

    def __init__(self, n, f, module=None):
        if n <= 3 * f:
            raise ConfigurationError(
                f"Follower Selection assumes |Pi| > 3f; got n={n}, f={f}"
            )
        super().__init__(n, f, module)

    def _pair_of(self, view):
        return config_for_view(view, self.n, self.q)

    def view_on_selected(self, event, view):
        if (event.leader, event.quorum) == self._lookup(view):
            return None
        return view_for_config(event.leader, event.quorum, self.n, self.q, view + 1)

    def accepts(self, view):
        # An unstable module has a leader but no followers yet.
        module = self.module
        return module.stable and (module.leader, module.current_quorum) == self._lookup(view)


class AllSelector(Selector):
    """Every replica takes part and ``q = n - f`` matching votes decide:
    the paper's "broadcast to all, need ``n - f`` replies" baseline.

    Static on purpose: the core's decision change is XFT-style — every
    member of the new quorum reports, and prepared requests are
    re-proposed by request id, not at their old slot — which is sound
    only when every member reports.  Among all ``n`` replicas that is
    not the case, so this selector never moves; a PBFT NEW-VIEW is out
    of scope, as it was for the baseline this replaces.
    """

    def _pair_of(self, view):
        return 1, frozenset(range(1, self.n + 1))


SELECTORS: Dict[str, Type[Selector]] = {
    "qs": QsSelector,
    "enum": EnumSelector,
    "fs": FsSelector,
    "all": AllSelector,
}


def make_selector(
    name: str, n: int, f: int, host: Optional[Any] = None, **module_options: Any
) -> Selector:
    """The selector called ``name``; with a ``host``, its selection module
    is created (with ``module_options``) and mounted there (without one —
    a client, a certificate check — only the stateless view mapping is
    usable)."""
    try:
        cls = SELECTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown selector {name!r}; known: {', '.join(sorted(SELECTORS))}"
        ) from None
    module = None
    if host is not None and cls.module_class is not None:
        module = host.add_module(cls.module_class(host, n=n, f=f, **module_options))
    return cls(n, f, module)


def as_selector(source: Any, n: int, f: int) -> Selector:
    """``source`` as a :class:`Selector`.

    One passes through.  A bare selection module — how replicas were
    built before selectors had a name — gets the selector that listens
    to its class; no module at all means the enumeration baseline.
    """
    if isinstance(source, Selector):
        return source
    if source is None:
        return EnumSelector(n, f)
    for cls in SELECTORS.values():
        if cls.module_class is type(source):
            return cls(n, f, source)
    raise ConfigurationError(f"no selector listens to a {type(source).__name__}")
