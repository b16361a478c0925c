"""End-to-end XPaxos experiments (the E5/E7/E8 logic as tests)."""

import pytest

from repro.analysis.runner import (
    measure_message_savings,
    run_xpaxos_crash_comparison,
)
from repro.xpaxos.system import build_system


class TestSelectionVsEnumeration:
    def test_same_faults_fewer_changes_with_selection(self):
        comparison = run_xpaxos_crash_comparison(
            n=5, f=2, crash_pids=(1,), seed=9, duration=900.0
        )
        selection_changes, enumeration_changes = comparison.view_changes()
        assert selection_changes < enumeration_changes
        sel_done, enum_done = comparison.completed()
        assert sel_done == 40 and enum_done == 40

    def test_both_modes_safe(self):
        comparison = run_xpaxos_crash_comparison(
            n=5, f=2, crash_pids=(1, 2), seed=11, duration=1200.0
        )
        assert comparison.selection.histories_consistent()
        assert comparison.enumeration.histories_consistent()

    def test_enumeration_walks_while_selection_jumps(self):
        comparison = run_xpaxos_crash_comparison(
            n=5, f=2, crash_pids=(1,), seed=9, duration=900.0
        )
        sel_views = {r.view for r in comparison.selection.correct_replicas()}
        enum_views = {r.view for r in comparison.enumeration.correct_replicas()}
        # Both converge to a single view whose quorum excludes p1.
        assert len(sel_views) == 1 and len(enum_views) == 1
        for system, views in (
            (comparison.selection, sel_views),
            (comparison.enumeration, enum_views),
        ):
            view = views.pop()
            quorum = system.replicas[2].selector.quorum_of(view)
            assert 1 not in quorum


class TestMessageSavings:
    def test_3f_plus_1_family(self):
        savings = measure_message_savings(2)
        # Per-broadcast drop is the paper's ~1/3 claim.
        assert savings.per_broadcast_reduction == pytest.approx(1 / 3, abs=0.01)
        # Total reduction is even larger (passive replicas stop sending).
        assert savings.total_reduction > 0.4

    def test_2f_plus_1_family(self):
        savings = measure_message_savings(2, two_f_plus_one=True)
        assert savings.per_broadcast_reduction == pytest.approx(1 / 2, abs=0.01)
        assert savings.total_reduction > 0.5

    def test_total_savings_grow_with_f_towards_asymptote(self):
        # Per-broadcast reduction is exactly f/(n-1) = 1/3 at every f;
        # the *total* reduction grows with f towards 5/9 as the passive
        # replicas' silence dominates.
        one = measure_message_savings(1)
        three = measure_message_savings(3)
        assert one.per_broadcast_reduction == pytest.approx(1 / 3)
        assert three.per_broadcast_reduction == pytest.approx(1 / 3)
        assert three.total_reduction > one.total_reduction
        assert three.total_reduction < 5 / 9


class TestQuorumSelectionDrivesViews:
    def test_omission_faulty_process_ends_outside_quorum(self):
        # A process that keeps omitting COMMITs on one link is eventually
        # kept out of the active quorum by Quorum Selection.
        system = build_system(n=5, f=2, mode="selection", clients=1, seed=21)
        system.adversary.omit_links(2, dsts={3}, kinds={"xp.commit"}, start=20.0)
        system.run(900.0)
        assert system.total_completed() == 20
        final_quorum = system.replicas[4].quorum
        assert not {2, 3} <= final_quorum
        assert system.histories_consistent()

    def test_gst_late_start_still_stabilizes(self):
        system = build_system(
            n=5, f=2, mode="selection", clients=1, seed=23,
            gst=50.0, fd_base_timeout=6.0, client_retry=60.0,
        )
        system.run(1500.0)
        assert system.total_completed() == 20
        assert system.histories_consistent()
