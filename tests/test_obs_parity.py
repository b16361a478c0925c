"""Sim<->net **metric** parity: both runtimes export the same registry.

The observability tentpole's acceptance scenario: run the canonical
metric-parity schedule (n=5, f=2, kill a non-quorum member) on the
deterministic simulator and on a live loopback cluster, then compare
the protocol-logic metrics — ``qs_quorum_changes_total`` and
``qs_epoch`` per correct replica — for exact equality.  Wall-clock
families (latency histograms) are excluded by design; protocol logic is
what must not diverge between runtimes.

Marked ``net`` (subprocess mesh, ~10s wall) *and* ``props`` (it is the
parity leg of the property tier; CI's props job runs it and uploads the
metrics JSONL artifact from the run directory it leaves behind).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.net.parity import (
    METRIC_PARITY_SCHEDULE,
    PARITY_METRIC_NAMES,
    metric_parity_problems,
    run_net_metrics,
    run_sim_metrics,
)
from repro.obs import SNAPSHOT_SCHEMA, metric_value

pytestmark = [pytest.mark.net, pytest.mark.props]

#: Written under the repo (not tmp_path) so CI can upload it as an
#: artifact after the job; overwritten per run, gitignored directory.
ARTIFACT_DIR = Path(".benchmarks") / "parity_metrics"


def test_metric_parity_sim_vs_net():
    schedule = METRIC_PARITY_SCHEDULE
    seed = int(os.environ.get("REPRO_PROP_SEEDS", "3").split(",")[0])

    sim_snapshot = run_sim_metrics(schedule, seed=seed)
    net_snapshots, result = run_net_metrics(schedule, run_dir=ARTIFACT_DIR)

    assert result.correct_pids() == [1, 2, 3, 4], result.summary()
    problems = metric_parity_problems(sim_snapshot, net_snapshots, schedule)
    assert problems == [], "\n".join(problems)

    # The compared values themselves are pinned: the killed p5 is outside
    # the initial quorum {1,2,3}, so no quorum change is ever required.
    for pid in (1, 2, 3, 4):
        assert metric_value(sim_snapshot, "qs_quorum_changes_total", pid=pid) == 0
        assert metric_value(sim_snapshot, "qs_epoch", pid=pid) == 1
        assert metric_value(net_snapshots[pid], "qs_quorum_changes_total", pid=pid) == 0
        assert metric_value(net_snapshots[pid], "qs_epoch", pid=pid) == 1

    # Snapshots from both runtimes speak the same schema with the same
    # metric families for the compared names.
    assert sim_snapshot["schema"] == SNAPSHOT_SCHEMA
    for snapshot in net_snapshots.values():
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
    assert set(PARITY_METRIC_NAMES) <= {e["name"] for e in sim_snapshot["metrics"]}

    # The artifact directory CI uploads holds the per-node JSONL streams
    # (metrics events included) and Prometheus exposition files.
    for pid in range(1, schedule.n + 1):
        stream = ARTIFACT_DIR / f"node_{pid}.jsonl"
        assert stream.exists()
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        assert any(e.get("event") == "metrics" for e in events)
        assert (ARTIFACT_DIR / f"node_{pid}.prom").exists()
