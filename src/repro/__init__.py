"""Reproduction of "Quorum Selection for Byzantine Fault Tolerance".

Leander Jehl, ICDCS 2019.  See README.md for a guided tour, DESIGN.md
for the system inventory and resolved ambiguities, and EXPERIMENTS.md
for paper-vs-measured results.

The public API re-exports the pieces most users need; subpackages stay
importable directly for everything else:

- :mod:`repro.sim` — deterministic discrete-event simulation substrate.
- :mod:`repro.crypto` — simulated signatures.
- :mod:`repro.graphs` — suspect-graph algorithms.
- :mod:`repro.fd` — the expectation-driven Byzantine failure detector.
- :mod:`repro.core` — Quorum Selection (Alg. 1) and Follower Selection
  (Alg. 2), plus the extension modules.
- :mod:`repro.failures` — fault injection and adversary strategies.
- :mod:`repro.protocol` — the replica core, the selectors (``qs``,
  ``enum``, ``fs``, ``all``) and the one system builder; the vote phases
  on it are :mod:`repro.xpaxos`, :mod:`repro.ibft` (PBFT's pattern on
  ``all``) and :mod:`repro.leadercentric` (the star protocol).
- :mod:`repro.baselines` — BChain-lite baselines.
- :mod:`repro.analysis` — bounds, worst-case search, experiment runners.
"""

from repro.core import FollowerSelectionModule, QuorumSelectionModule
from repro.failures import Adversary
from repro.fd import FailureDetector, HeartbeatModule
from repro.sim import Simulation, SimulationConfig
from repro.xpaxos import build_system

__version__ = "1.0.0"

__all__ = [
    "QuorumSelectionModule",
    "FollowerSelectionModule",
    "FailureDetector",
    "HeartbeatModule",
    "Adversary",
    "Simulation",
    "SimulationConfig",
    "build_system",
    "__version__",
]
