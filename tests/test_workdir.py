"""A campaign directory's small files: one writer, one reader, one decode policy.

Every file here may be damaged by a crash or a hand edit: a log line that is
not UTF-8 or not a JSON object, a checkpoint or snapshot that is not valid
UTF-8, a ``campaign.json`` holding a list, or a replace that fails halfway.
Each case must cost only the damaged record, never the daemon, the service's
``/events`` stream or a campaign's record.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.crawler import CrawlConfig, log_fault_event
from repro.daemon import RecrawlDaemon
from repro.errors import CheckpointError
from repro.experiments.config import ExperimentConfig
from repro.service import ServiceClient, running_server
from repro.service.campaigns import CampaignManager
from repro.workdir import append_jsonl, tail_jsonl

# An absolute floor no simulated day reaches: every comparable day alerts.
FLOOR = "table1.summary.websites_with_hb:min=100000"

ALERT = {"day": 2, "kind": "min", "rule": FLOOR, "message": "a recorded alert"}
EARLIER = {"day": 1, "kind": "max", "rule": "r", "message": "an earlier alert"}
# A line that is not UTF-8, and a JSON line whose top level is not an object.
DAMAGED = [b'{"day": 3, "kind": "min", "rule": "\xff\xfe"}\n', b"[1, 2]\n"]


def _daemon_config(**overrides):
    return ExperimentConfig(total_sites=400, seed=7, historical_sites=120, **overrides)


class TestLogs:
    def test_tail_skips_corrupt_lines_and_stops_before_a_torn_one(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        whole = json.dumps(EARLIER).encode() + b"\n" + b"".join(DAMAGED) + b"\n"
        log.write_bytes(whole + b'{"day": 4, "ki')
        records, offset = tail_jsonl(log)
        assert records == [EARLIER]
        assert offset == len(whole)
        assert tail_jsonl(log, offset) == ([], offset)
        assert tail_jsonl(tmp_path / "missing.jsonl", 7) == ([], 7)

    def test_an_append_after_a_torn_line_stays_whole(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        log.write_bytes(json.dumps(EARLIER).encode() + b"\n" + b'{"day": 4, "ki')
        append_jsonl(log, [ALERT])
        assert tail_jsonl(log)[0] == [EARLIER, ALERT]

    def test_fault_events_are_key_sorted_lines(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        log_fault_event(CrawlConfig(fault_log=str(log)), "retry", shard=3)
        (line,) = log.read_bytes().splitlines()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True).encode()
        assert record["event"] == "retry" and record["shard"] == 3


class TestDamagedAlertLog:
    def test_events_count_and_tick_survive_damaged_lines(self, tmp_path):
        with running_server(tmp_path / "service") as srv:
            client = ServiceClient(srv.base_url)
            cid = client.submit({"sites": 60, "days": 1, "seed": 13})["id"]
            assert client.wait(cid, timeout=300)["state"] == "done"
            log = srv.manager.get(cid).workdir / "alerts.jsonl"
            log.write_bytes(
                json.dumps(EARLIER).encode() + b"\n"
                + b"".join(DAMAGED)
                + json.dumps(ALERT).encode() + b"\n"
            )
            before = log.read_bytes()
            assert client.campaign(cid)["alerts"] == 2

            # The tick crawls day 2, whose alert the log already holds.
            client.tick(cid, thresholds=[FLOOR])
            tail = client.stream_to_completion(cid, interval=0.05)
            assert tail["state"]["state"] == "done", tail["state"]
            assert tail["state"]["runs"] == 2
            assert tail["state"]["config"]["recrawl_days"] == 2
            served = [{k: v for k, v in a.items() if k != "campaign"} for a in tail["alerts"]]
            assert served == [EARLIER, ALERT]
            assert tail["state"]["alerts"] == len(served)
            assert log.read_bytes() == before


class TestDamagedJsonFiles:
    def test_a_checkpoint_that_is_not_utf8_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_bytes(b'{"version": 2, "fingerprint": "\xff"}')
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            CrawlCheckpoint.load(path)
        path.write_bytes(b"[1, 2]")
        with pytest.raises(CheckpointError, match="not an object"):
            CrawlCheckpoint.load(path)

    def test_damaged_snapshots_are_re_derived(self, tmp_path):
        config = _daemon_config(store_format="columnar")
        daemon = RecrawlDaemon(tmp_path / "work", config, target_days=1)
        assert [r.status for r in daemon.run()] == ["bootstrapped", "advanced"]
        daemon.close()
        day0, day1 = (daemon.metrics_dir / f"day-0000{d}.json" for d in (0, 1))
        recorded = day0.read_bytes(), day1.read_bytes()
        day0.write_bytes(b"[1, 2]")
        day1.write_bytes(b'{"day": 1, "metrics": "\xff"}')

        with RecrawlDaemon(tmp_path / "work", config, target_days=2) as again:
            report = again.tick()
        assert report.status == "advanced", report.error
        assert report.snapshot_days == [0, 1, 2]
        assert (day0.read_bytes(), day1.read_bytes()) == recorded

    def test_a_snapshot_without_day_or_metrics_is_re_derived(self, tmp_path):
        config = _daemon_config()
        with RecrawlDaemon(tmp_path / "work", config, target_days=2) as daemon:
            assert [r.status for r in daemon.run()] == ["bootstrapped", "advanced", "advanced"]
        day2 = daemon.metrics_dir / "day-00002.json"
        recorded = day2.read_bytes()
        day2.write_bytes(b"{}")

        with RecrawlDaemon(tmp_path / "work", config, target_days=3) as again:
            report = again.tick()
        assert report.status == "advanced", report.error
        assert report.snapshot_days == [2, 3]
        assert day2.read_bytes() == recorded

        day2.write_bytes(b'{"day": 5, "metrics": {}}')
        with RecrawlDaemon(tmp_path / "work", config, target_days=4) as third:
            report = third.tick()
        assert report.status == "advanced", report.error
        assert report.snapshot_days == [2, 4]
        assert day2.read_bytes() == recorded

    def test_a_list_in_campaign_json_is_rewritten_when_the_campaign_ends(self, tmp_path):
        manager = CampaignManager(tmp_path / "service", max_parallel=1)
        try:
            # The first campaign holds the only slot, so the second stays queued.
            manager.submit(ExperimentConfig(total_sites=2000, recrawl_days=2, seed=3))
            queued = manager.submit(ExperimentConfig(total_sites=60, recrawl_days=1, seed=13))
            record = queued.workdir / "campaign.json"
            record.write_text("[1, 2]")
            manager.cancel(queued.id)
            assert manager.wait(queued.id, timeout=300).state == "cancelled"
        finally:
            manager.shutdown()
        written = json.loads(record.read_text())
        assert written["id"] == queued.id
        assert written["state"] == "cancelled"
        assert written["config"]["total_sites"] == 60

    def test_a_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "crawl.ckpt"
        old = CrawlCheckpoint(fingerprint={"seed": 1}, sink_offset=0, phases=())
        old.save(path)
        before = path.read_bytes()

        def fail(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", fail)
        new = CrawlCheckpoint(fingerprint={"seed": 2}, sink_offset=0, phases=())
        with pytest.raises(CheckpointError, match="could not write checkpoint"):
            new.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crawl.ckpt"]


class TestSaveSuffix:
    def test_save_hbc_defaults_to_the_columnar_store(self, tmp_path):
        args = ["run", "--sites", "400", "--days", "1", "--seed", "2", "--figures", "table1"]
        implied, explicit = tmp_path / "implied.hbc", tmp_path / "explicit.hbc"
        assert cli_main([*args, "--save", str(implied)]) == 0
        assert cli_main([*args, "--store-format", "columnar", "--save", str(explicit)]) == 0
        assert implied.read_bytes() == explicit.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["explicit.hbc", "implied.hbc"]
