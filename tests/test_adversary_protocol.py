"""E28 adversary strategies replayed against protocol backends.

The adversary engine observes and actuates exclusively through the
frozen surfaces — :mod:`repro.core.observation` snapshots in,
QS-module/rule-layer actions out — so the same Byzantine policies that
attack a bare Quorum Selection world must run unmodified against a full
backend system: every registered backend, on Quorum Selection and on
Follower Selection.  The claims under attack are protocol-independent
because they belong to the selection module, not to the decision engine:

- **Theorem 3 / Theorem 9 envelope**: with at most ``f`` corrupted
  processes, no correct process issues more than ``f(f+1)`` (Quorum
  Selection) resp. ``3f+1`` (Follower Selection) quorums in one epoch,
  whatever traffic the backend adds to the schedule;
- **agreement**: correct QS modules converge on one quorum, and the
  backend replicas adopt exactly that quorum (checked through the same
  frozen ProcessView the adversary reads);
- **safety + liveness**: non-faulty histories stay prefix-consistent
  and the client workload completes once the attack stops.
"""

import pytest

from repro.adversary.engine import AdversaryEngine
from repro.analysis.bounds import thm9_per_epoch_bound
from repro.adversary.strategies import (
    EquivocationStrategy,
    SelectiveOmissionStrategy,
)
from repro.core.observation import observe_world
from repro.core.spec import agreement_holds
from repro.net.parity import thm3_bound
from repro.protocol.backend import backend_names
from repro.protocol.system import build_backend_system

PROTOCOLS = sorted(backend_names())
F = 2
#: selector -> (n, quorums-per-epoch bound).
SELECTORS = {"qs": (6, thm3_bound(F)), "fs": (7, thm9_per_epoch_bound(F))}
FAULTY = frozenset({1, 2})
OPS = 20


@pytest.fixture(params=[
    pytest.param((protocol, selector),
                 id=protocol if selector == "qs" else f"{protocol}-{selector}")
    for selector in SELECTORS for protocol in PROTOCOLS
])
def mount(request):
    return request.param


def attacked_system(mount, strategies, seed=3, horizon=900.0):
    """One backend system with the engine driving ``strategies`` over it."""
    protocol, selector = mount
    system = build_backend_system(
        protocol, SELECTORS[selector][0], F, selector,
        clients=1, seed=seed, client_retry=20.0,
    )
    # Teach the system's bookkeeping who is corrupted *before* the engine
    # installs its interceptors (set_interceptor replaces, so the
    # engine's rule-bearing hooks win).
    for pid in sorted(FAULTY):
        system.adversary.corrupt(pid)
    engine = AdversaryEngine(system.sim, system.qs_modules, set(FAULTY), f_max=F)
    for strategy in strategies:
        engine.add(strategy)
    engine.install()
    system.run(horizon)
    return system, engine


def correct_modules(system):
    return [system.qs_modules[p] for p in system.replica_pids if p not in FAULTY]


def assert_qs_claims_hold(system, selector):
    """Per-epoch envelope + agreement + frozen-API adoption, post-attack."""
    bound = SELECTORS[selector][1]
    for pid in system.replica_pids:
        if pid in FAULTY:
            continue
        assert system.qs_modules[pid].max_quorums_in_any_epoch() <= bound, (
            f"p{pid} exceeded the {selector} per-epoch envelope {bound}"
        )
    assert agreement_holds(correct_modules(system))

    # The adversary's own lens: the backend replicas run exactly the
    # quorum the frozen observation API reports for their QS module.
    view = observe_world(system.sim.now, system.qs_modules, set(FAULTY), F)
    assert view.agreed_quorum is not None
    for pid in view.correct:
        assert system.observe(pid).quorum == view.processes[pid].quorum
        selected_leader = getattr(system.qs_modules[pid], "leader", None)
        assert system.observe(pid).leader == (selected_leader or min(view.agreed_quorum))


class TestEquivocation:
    def test_conflicting_rows_cannot_break_backend_claims(self, mount):
        system, engine = attacked_system(
            mount, [EquivocationStrategy(pid=1, victims=(3, 4))]
        )
        strategy = engine.strategies[0]
        assert strategy.done and strategy.rounds_done == strategy.rounds
        assert engine.action_counts["equivocation:equivocate"] == strategy.rounds

        assert system.total_completed() == OPS
        assert system.histories_consistent()
        assert_qs_claims_hold(system, mount[1])
        # Gossip (Lemma 1) reunited the equivocator's split row.
        rows = {tuple(m.matrix.row(1)) for m in correct_modules(system)}
        assert len(rows) == 1


class TestSelectiveOmission:
    def test_adaptive_omission_cannot_break_backend_claims(self, mount):
        system, engine = attacked_system(
            mount, [SelectiveOmissionStrategy(pid=1, stop_at=120.0)]
        )
        strategy = engine.strategies[0]
        assert strategy.done and strategy.repointed >= 1
        assert engine.rules.rules(1) == ()  # cleaned up at stop_at

        assert system.total_completed() == OPS
        assert system.histories_consistent()
        assert_qs_claims_hold(system, mount[1])


class TestStackedAttack:
    def test_thm3_envelope_is_protocol_independent(self):
        """The stacked attack lands inside the same envelope on every
        backend — the bound belongs to the selection module, not to the
        decision engine."""
        for selector, (_, bound) in SELECTORS.items():
            per_protocol = {}
            for protocol in PROTOCOLS:
                system, engine = attacked_system(
                    (protocol, selector),
                    [
                        EquivocationStrategy(pid=1, victims=(3, 4)),
                        SelectiveOmissionStrategy(pid=2, stop_at=120.0),
                    ],
                )
                assert engine.done
                assert system.total_completed() == OPS
                assert system.histories_consistent()
                assert_qs_claims_hold(system, selector)
                per_protocol[protocol] = max(
                    m.max_quorums_in_any_epoch() for m in correct_modules(system)
                )
            assert all(worst <= bound for worst in per_protocol.values()), per_protocol
