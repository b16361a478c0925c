"""Tests for the view <-> quorum mapping (Section V-B)."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.enumeration import (
    leader_of_view,
    quorum_for_view,
    rank_of_quorum,
    total_quorums,
    view_for_quorum,
)
from repro.util.errors import ConfigurationError


class TestTotals:
    def test_counts(self):
        assert total_quorums(5, 3) == 10
        assert total_quorums(7, 5) == 21

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            total_quorums(5, 0)
        with pytest.raises(ConfigurationError):
            total_quorums(5, 6)


class TestUnranking:
    def test_view_zero_is_lexicographic_first(self):
        assert quorum_for_view(0, 5, 3) == frozenset({1, 2, 3})

    def test_enumeration_matches_itertools_order(self):
        combos = [frozenset(c) for c in itertools.combinations(range(1, 6), 3)]
        assert [quorum_for_view(v, 5, 3) for v in range(10)] == combos

    def test_round_robin_wraps(self):
        assert quorum_for_view(10, 5, 3) == quorum_for_view(0, 5, 3)
        assert quorum_for_view(23, 5, 3) == quorum_for_view(3, 5, 3)

    def test_rejects_negative_view(self):
        with pytest.raises(ConfigurationError):
            quorum_for_view(-1, 5, 3)


class TestRanking:
    def test_rank_roundtrip_small(self):
        for view in range(total_quorums(6, 4)):
            quorum = quorum_for_view(view, 6, 4)
            assert rank_of_quorum(quorum, 6, 4) == view

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 9), st.data())
    def test_rank_roundtrip_property(self, n, data):
        q = data.draw(st.integers(1, n))
        view = data.draw(st.integers(0, total_quorums(n, q) - 1))
        quorum = quorum_for_view(view, n, q)
        assert rank_of_quorum(quorum, n, q) == view

    def test_rejects_wrong_size(self):
        with pytest.raises(ConfigurationError):
            rank_of_quorum({1, 2}, 5, 3)

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ConfigurationError):
            rank_of_quorum({1, 2, 9}, 5, 3)


class TestViewForQuorum:
    def test_jumps_forward_skipping_earlier_quorums(self):
        # "i suspects all quorums ordered before Q": the view lands
        # exactly on Q's rank in the current cycle.
        target = frozenset({2, 3, 4})
        rank = rank_of_quorum(target, 5, 3)
        assert view_for_quorum(target, 5, 3, min_view=0) == rank

    def test_wraps_to_next_cycle_when_passed(self):
        target = frozenset({1, 2, 3})  # rank 0
        assert view_for_quorum(target, 5, 3, min_view=1) == 10

    def test_min_view_inclusive(self):
        target = frozenset({1, 2, 4})  # rank 1
        assert view_for_quorum(target, 5, 3, min_view=1) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 9))
    def test_result_at_least_min_view_and_correct(self, min_view, rank):
        target = quorum_for_view(rank, 5, 3)
        view = view_for_quorum(target, 5, 3, min_view)
        assert view >= min_view
        assert quorum_for_view(view, 5, 3) == target
        # Minimality: no earlier view >= min_view maps to the target.
        for earlier in range(min_view, view):
            assert quorum_for_view(earlier, 5, 3) != target


class TestLeader:
    def test_leader_is_min_of_quorum(self):
        for view in range(10):
            assert leader_of_view(view, 5, 3) == min(quorum_for_view(view, 5, 3))
