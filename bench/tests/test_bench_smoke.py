"""Smoke tier for the benchmark: ``python -m pytest bench/tests -q``.

Shortened versions of all five workloads (``--quick``: short warm-ups,
one failover round, a small sim world), untraced and traced, through the
same ``main`` the driver calls.  The numbers are not looked at — only
that every metric BENCHMARK.json names is emitted with its unit, that
the correctness gate runs, and that breaking an invariant fails the run.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402  (puts src/ on sys.path)

SPEC = bench_run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: The failover round must outlast the ~3 s outage it measures.
SECONDS = {"live_failover": 4.0, "sim_qs_churn": 0.5}


def run_main(capsys, *argv: str):
    status = bench_run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s").items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert len(SPEC["workloads"]) == 5


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_declared_metric(capsys, workload, trace):
    seconds = SECONDS.get(workload, 1.5)
    status, result = run_main(
        capsys, "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", trace, "--quick",
    )
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    elif workload == "sim_qs_churn":
        assert result["metrics"]["net.peer.frames_per_req"]["value"] == 0
        assert result["metrics"]["core.qs.searches"]["value"] > 0
    else:
        backend_cost = {"live_ibft_n7": 36}.get(workload, 6)
        assert result["metrics"]["replica.msgs_per_decision"]["value"] == backend_cost


def test_broken_state_digest_fails_the_run(capsys, monkeypatch):
    from repro.service.kv import ServiceKVStore

    monkeypatch.setattr(ServiceKVStore, "state_digest", lambda self: str(id(self)))
    status, result = run_main(
        capsys, "--workload", "live_open_light", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--quick",
    )
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_unpinned_quorum_trace_fails_the_run(capsys, monkeypatch):
    from bench import workloads

    monkeypatch.setattr(workloads, "expected_sha256", lambda size, seed: "0" * 64)
    status, result = run_main(
        capsys, "--workload", "sim_qs_churn", "--seed", "3", "--seconds", "0.2",
        "--trace", "0", "--quick",
    )
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}
