"""One deployment spec, mounted one way on every substrate.

A :class:`Deployment` names every choice in the paper's Figure-1 stack
once — sizes, selector, protocol, service, batching, checkpoints, FD
timings, anti-entropy — and :func:`mount` builds that stack on any
:class:`repro.host.Host`, simulated or live.  Every world builder, the
live node, the load drivers and the CLI assemble through here; each
keeps its own defaults and writes them once, where it builds its
``Deployment``.  The defaults below are the paper's simulated world.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from repro.fd.detector import FailureDetector
from repro.fd.heartbeat import HeartbeatModule
from repro.fd.timers import TimeoutPolicy
from repro.host import Host
from repro.protocol.backend import backend_names, get_backend
from repro.protocol.selector import SELECTORS, Selector, make_selector
from repro.sim.transport import ReliableTransport
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class Deployment:
    """What every replica of one system runs."""

    n: int
    f: int
    #: Any name in :data:`repro.protocol.selector.SELECTORS`.
    selector: str = "qs"
    #: Backend executing requests, or ``None`` for the bare selection stack.
    protocol: Optional[str] = None
    #: ``"kv"`` runs the replicated KV store on the backend; ``None`` the
    #: backend's own state machine.
    service: Optional[str] = None
    batch_size: int = 1
    batch_window: float = 0.0
    checkpoint_interval: Optional[int] = None
    heartbeat_period: float = 2.0
    heartbeats: bool = True
    base_timeout: float = 4.0
    anti_entropy_period: Optional[float] = None
    #: Route UPDATE/FOLLOWERS through a per-process ReliableTransport.
    reliable: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` unless every replica can mount this."""
        selector = SELECTORS.get(self.selector)
        problems = [
            (not 1 <= self.f < self.n - self.f,
             f"need 1 <= f and q = n - f > f; got n={self.n}, f={self.f}"),
            (selector is None, f"unknown selector {self.selector!r}; "
                               f"known: {', '.join(sorted(SELECTORS))}"),
            (self.selector == "fs" and self.n <= 3 * self.f,
             f"Follower Selection assumes |Pi| > 3f; got n={self.n}, f={self.f}"),
            (self.protocol is None and selector is not None
             and selector.module_class is None,
             f"a bare selection stack needs a selection module, not {self.selector!r}"),
            (self.protocol not in (None, *backend_names()),
             f"protocol must be one of {backend_names()}, got {self.protocol!r}"),
            (self.service not in (None, "kv"),
             f"service must be 'kv' or omitted, got {self.service!r}"),
            (self.service is not None and self.protocol is None,
             f"service {self.service!r} needs a protocol"),
            (self.heartbeat_period <= 0 or self.base_timeout <= 0,
             "heartbeat period and base timeout must be positive"),
            (self.batch_size < 1, f"batch_size must be >= 1, got {self.batch_size}"),
            (self.batch_window < 0, f"batch_window must be >= 0, got {self.batch_window}"),
            (self.checkpoint_interval is not None and self.checkpoint_interval < 1,
             f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"),
            (self.anti_entropy_period is not None and self.anti_entropy_period <= 0,
             f"anti-entropy period must be positive, got {self.anti_entropy_period}"),
        ]
        for failed, message in problems:
            if failed:
                raise ConfigurationError(message)


#: Names of every :class:`Deployment` field.
FIELDS = tuple(field.name for field in dataclasses.fields(Deployment))


class Mounted(NamedTuple):
    """Handles to one mounted stack."""

    selector: Selector
    #: The backend replica, or ``None`` on a bare selection stack.
    replica: Any

    @property
    def module(self) -> Any:
        """The selection module (``None`` for ``enum`` and ``all``)."""
        return self.selector.module


def mount(host: Host, deployment: Deployment, state_machine: Any = None) -> Mounted:
    """Build ``deployment``'s stack on ``host``; returns its handles.

    Start order is the failure detector, the heartbeat, the optional
    :class:`ReliableTransport`, the selection module, the replica — the
    module order every event trace is pinned to.  ``state_machine`` is
    the replica's when ``service`` is ``None`` (``None`` = the backend's
    default).  ``deployment`` is expected to be validated.
    """
    d = deployment
    FailureDetector(host, TimeoutPolicy(base_timeout=d.base_timeout))
    if d.heartbeats:
        host.add_module(HeartbeatModule(host, n=d.n, period=d.heartbeat_period))
    transport = host.add_module(ReliableTransport(host)) if d.reliable else None
    selector = make_selector(
        d.selector, d.n, d.f, host,
        transport=transport, anti_entropy_period=d.anti_entropy_period,
    )
    replica = None
    if d.protocol is not None:
        if d.service == "kv":
            from repro.service.kv import ServiceKVStore

            state_machine = ServiceKVStore()
        replica = get_backend(d.protocol).build_replica(
            host, d.n, d.f, selector,
            batch_size=d.batch_size, batch_window=d.batch_window,
            checkpoint_interval=d.checkpoint_interval,
            state_machine=state_machine,
        )
    return Mounted(selector, replica)


def takes_deployment_fields(build: Callable[..., Deployment]):
    """Class decorator for a config holding a ``deployment`` field.

    ``cls(..., n=4, f=1, batch_size=8)`` then builds that field as
    ``build(n=4, f=1, batch_size=8)``; passing a ``deployment`` and any
    of its fields at once is a ``TypeError``.
    """

    def decorate(cls):
        init = cls.__init__

        @functools.wraps(init)
        def __init__(self, *args: Any, deployment: Optional[Deployment] = None, **kwargs: Any):
            knobs = {name: kwargs.pop(name) for name in FIELDS if name in kwargs}
            if deployment is None:
                deployment = build(**knobs)
            elif knobs:
                raise TypeError(
                    f"{cls.__name__} takes a deployment or its fields, not both"
                )
            init(self, *args, deployment=deployment, **kwargs)

        cls.__init__ = __init__
        return cls

    return decorate
