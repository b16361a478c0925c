"""Perf smoke tier — seconds-scale hot-path regression checks.

``pytest -m perf_smoke`` runs only these; they also run in the default
tier (they are ordinary tests).  Scales are capped at n=10 so the whole
module stays under a few seconds even on slow shared runners; the full
consortium-scale measurement lives in
``benchmarks/bench_e21_update_hotpath.py`` / ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.perf_report import (
    check_invariants,
    find_net_regressions,
    find_regressions,
    find_service_regressions,
    find_shard_regressions,
    read_previous_report,
    run_hotpath_case,
)

pytestmark = pytest.mark.perf_smoke

# Generous ceiling: the n=10 case runs in ~0.1s on the baseline machine;
# 5s only trips on a real algorithmic regression (e.g. the incremental
# view silently falling back to per-UPDATE rebuilds).
SMOKE_WALL_CEILING = 5.0


@pytest.mark.parametrize("n,f", [(5, 2), (10, 3)])
def test_hotpath_smoke(n, f):
    started = time.perf_counter()
    row = run_hotpath_case(n, f)
    elapsed = time.perf_counter() - started
    check_invariants(row)
    assert elapsed < SMOKE_WALL_CEILING


class TestRegressionGate:
    """perf_report's >20% wall-time gate against the previous report."""

    OLD = {"cases": [{"n": 5, "f": 2, "wall_seconds": 1.0},
                     {"n": 10, "f": 3, "wall_seconds": 2.0}]}

    def test_within_threshold_passes(self):
        new = [{"n": 5, "f": 2, "wall_seconds": 1.15},
               {"n": 10, "f": 3, "wall_seconds": 1.9}]
        assert find_regressions(self.OLD, new) == []

    def test_regression_flagged_per_case(self):
        new = [{"n": 5, "f": 2, "wall_seconds": 1.5},
               {"n": 10, "f": 3, "wall_seconds": 2.0}]
        flags = find_regressions(self.OLD, new)
        assert len(flags) == 1
        assert "n=5" in flags[0] and "+50%" in flags[0]

    def test_no_previous_report_flags_nothing(self):
        new = [{"n": 5, "f": 2, "wall_seconds": 100.0}]
        assert find_regressions(None, new) == []
        assert find_regressions({}, new) == []

    def test_unknown_or_malformed_cases_ignored(self):
        old = {"cases": [{"n": 5, "f": 2, "wall_seconds": "fast"}, "junk"]}
        new = [{"n": 5, "f": 2, "wall_seconds": 9.0},
               {"n": 99, "f": 9, "wall_seconds": 9.0}]
        assert find_regressions(old, new) == []



def net_report(throughput):
    return {"update_throughput_frames_per_s": throughput}


def service_report(throughput):
    return {"live": {"phases": {"steady": {"throughput": throughput}}}}


def shard_report(**points):
    return {"live": {"points": {
        m: {"aggregate": {"steady": {"throughput": throughput}}}
        for m, throughput in points.items()
    }}}


class TestThroughputGates:
    """The net, service and shard gates: a >20% throughput drop flags."""

    def test_net_drop_flags(self):
        assert find_net_regressions(net_report(1000.0), net_report(850.0)) == []
        flags = find_net_regressions(net_report(1000.0), net_report(700.0))
        assert flags == ["UPDATE throughput 1000/s -> 700/s (-30%, threshold -20%)"]

    def test_service_drop_flags(self):
        assert find_service_regressions(service_report(500), service_report(450)) == []
        flags = find_service_regressions(service_report(500), service_report(300))
        assert len(flags) == 1 and "-40%" in flags[0]

    def test_shard_drop_flags_per_shard_count(self):
        old = shard_report(m1=100.0, m2=200.0)
        flags = find_shard_regressions(old, shard_report(m1=95.0, m2=120.0))
        assert len(flags) == 1 and "M=m2" in flags[0] and "-40%" in flags[0]

    @pytest.mark.parametrize("previous", [
        None, {}, {"live": None}, {"live": {"phases": {}}},
        net_report("fast"), net_report(0), service_report(None),
        shard_report(m1="fast"), {"live": {"points": []}},
    ])
    def test_missing_or_malformed_previous_flags_nothing(self, previous):
        assert find_net_regressions(previous, net_report(1.0)) == []
        assert find_service_regressions(previous, service_report(1.0)) == []
        assert find_shard_regressions(previous, shard_report(m1=1.0)) == []

class TestCheckedInReportGate:
    """Gate against the *repo's* ``BENCH_hotpath.json``, when present.

    The wall-clock comparison lives in the benchmark runner (machines
    differ); what this tier pins is the **deterministic** column: the
    quorum-change trace digest of the n=5 case must match the checked-in
    report exactly — a cheap, machine-independent regression tripwire.
    On checkouts without a report the gate skips with an explicit reason
    instead of failing or silently passing.
    """

    def test_missing_report_reads_as_none(self, tmp_path):
        assert read_previous_report(tmp_path / "nope.json") is None
        corrupt = tmp_path / "bad.json"
        corrupt.write_text("{not json")
        assert read_previous_report(corrupt) is None

    def test_trace_digest_matches_checked_in_report(self):
        previous = read_previous_report()
        if previous is None:
            pytest.skip(
                "BENCH_hotpath.json not present (fresh checkout) — "
                "generate it with `python benchmarks/perf_report.py` "
                "to arm the regression gate"
            )
        held = next(
            (case for case in previous.get("cases", [])
             if isinstance(case, dict) and case.get("n") == 5),
            None,
        )
        if held is None or "trace_sha256" not in held:
            pytest.skip("checked-in report carries no n=5 trace digest")
        fresh = run_hotpath_case(5, 2)
        assert fresh["trace_sha256"] == held["trace_sha256"], (
            "the n=5 quorum-change trace diverged from BENCH_hotpath.json — "
            "a behaviour change, not just a perf change; regenerate the "
            "report only if the divergence is intended"
        )
