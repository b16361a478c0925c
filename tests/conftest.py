"""Shared fixtures and world builders for integration tests.

``build_qs_world`` moved to :mod:`repro.sim.worlds` so the parallel
execution engine's worker processes and the CLI can import it from the
installed package; it is re-exported here because many tests (and the
benchmark harness) import it from ``tests.conftest``.
"""

from __future__ import annotations

import pytest

from repro.sim.worlds import build_qs_world

__all__ = ["build_qs_world"]


@pytest.fixture
def qs_world_5_2():
    """n=5, f=2 Quorum Selection world (the paper's running scale)."""
    return build_qs_world(5, 2)


@pytest.fixture
def fs_world_7_2():
    """n=7=3f+1, f=2 Follower Selection world."""
    return build_qs_world(7, 2, selector="fs")
