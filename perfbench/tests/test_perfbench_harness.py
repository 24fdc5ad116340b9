"""Harness tests for the end-to-end benchmark, at a tiny scale.

Every workload runs at 1% of its site counts with a 1-second budget; the
tests check the result contract against ``BENCHMARK.json`` and that the
output checks catch a corrupted sink, a wrong served total and a broken
daemon campaign.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _run(tmp_path, monkeypatch, workload: str) -> bench.Run:
    monkeypatch.setattr(bench, "WORK", tmp_path)
    args = argparse.Namespace(workload=workload, seed=5, seconds=1.0, trace=0, scale=0.01)
    return bench.Run(args)


def test_corrupted_campaign_sink_fails_the_checks(tmp_path, monkeypatch):
    run = _run(tmp_path, monkeypatch, "campaign")
    sink = run.dir / "c.jsonl"
    proc = run.spawn("campaign", "--sites", "200", "--days", "1", "--seed", "5",
                     "--sink", str(sink))
    result = run.finish(proc)
    bench.check_campaign(run, result, sink, 200, 1)
    assert all(ok for _, ok in run.checks), run.checks

    lines = sink.read_text().splitlines(keepends=True)
    record = json.loads(lines[-1])
    record["page_load_ms"] += 1.0
    lines[-1] = json.dumps(record) + "\n"
    sink.write_text("".join(lines))
    run.checks.clear()
    bench.check_campaign(run, result, sink, 200, 1)
    failed = {name for name, ok in run.checks if not ok}
    assert "campaign.sha256" in failed

    sink.write_text("".join(lines[:-1]))
    run.checks.clear()
    bench.check_campaign(run, result, sink, 200, 1)
    failed = {name for name, ok in run.checks if not ok}
    assert {"campaign.sink_count", "campaign.sha256"} <= failed


def test_wrong_served_total_or_error_fails_the_read_check(tmp_path, monkeypatch):
    run = _run(tmp_path, monkeypatch, "service_reads")
    hb = {"kind": "hb", "hb": "true"}
    expected = {"filters": [hb], "totals": [120], "metrics": {"table1": "T"}}
    good = [({"filter": hb, "offset": 100}, 0.01, True, (120, 20)),
            ({"artifact": "table1"}, 0.01, True, "T")]
    assert bench.check_reads(run, good, expected) == 0
    wrong_total = [({"filter": hb, "offset": 0}, 0.01, True, (119, 50))]
    wrong_text = [({"artifact": "table1"}, 0.01, True, "other")]
    refused = [({"artifact": "table1"}, 0.01, False, "ServiceClientError('-> 500')")]
    for outcomes in (wrong_total, wrong_text, refused):
        assert bench.check_reads(run, outcomes, expected) == 1
    assert [ok for _, ok in run.checks] == [True, False, False, False]


def test_daemon_partitions_that_miss_detections_fail_the_check(tmp_path, monkeypatch):
    run = _run(tmp_path, monkeypatch, "daemon")
    ticks = [{"status": "advanced", "day": 1, "detections": 130, "pages": 30, "s": 0.1}]
    result = {"bootstrap": {"status": "bootstrapped"}, "ticks": ticks, "partitions": 2,
              "partition_detections": 130, "sink_detections": 130, "supervision_events": 0}
    bench.check_daemon(run, result, 1)
    assert all(ok for _, ok in run.checks)
    run.checks.clear()
    bench.check_daemon(run, {**result, "partition_detections": 129, "supervision_events": 1}, 1)
    failed = {name for name, ok in run.checks if not ok}
    assert failed == {"daemon.partitions_sum_to_sink", "daemon.no_supervision_events"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("campaign", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
