"""The continuous-recrawl daemon: ticks, alerts, retention, crash recovery.

The load-bearing property is inherited byte-identity: a campaign grown one
tick at a time produces exactly the sink a one-shot run with the full horizon
produces, and a daemon killed mid-day resumes into the same bytes.  On top
of that sit the alert mechanics — threshold parsing, metric flattening,
day-over-day evaluation, exactly-once logging — and the retention policy.
"""

import collections
import dataclasses
import json

import pytest

from repro.crawler.checkpoint import CrawlCheckpointer
from repro.crawler.colstore import ColumnarStorage
from repro.crawler.storage import CrawlStorage
from repro.crawler.engine import ProcessPoolBackend, SharedPayload
from repro.daemon import (
    FIRST_COMPARABLE_DAY,
    AlertRule,
    RecrawlDaemon,
    evaluate_rules,
    flatten_metric_data,
    parse_rule,
    parse_rules,
)
from repro.errors import ConfigurationError, ReproError, UnknownMetricError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.testing import FaultyBackend, SimulatedCrash

from test_shared_memory import block_exists


def _config(store_format="columnar", **overrides):
    return ExperimentConfig(
        total_sites=400,
        seed=7,
        historical_sites=120,
        store_format=store_format,
        **overrides,
    )


def _oneshot_bytes(tmp_path, config, days, name="oneshot"):
    """An uninterrupted run's bytes: the ``.hbc`` store it streams, or for
    JSONL the canonical oracle, a direct JSONL sink over its detections."""
    runner = ExperimentRunner(dataclasses.replace(config, recrawl_days=days))
    if config.store_format == "jsonl":
        storage = CrawlStorage(tmp_path / f"{name}.jsonl")
        storage.save(runner.run().longitudinal.all_detections)
    else:
        storage = ColumnarStorage(tmp_path / f"{name}.hbc")
        runner.run(storage=storage)
    return storage.path.read_bytes()


# An absolute floor no simulated day reaches: fires on every comparable day.
IMPOSSIBLE_FLOOR = "table1.summary.websites_with_hb:min=100000"


class TestRuleParsing:
    def test_parses_the_three_kinds(self):
        rules = parse_rules(
            [
                "table1.summary.websites_with_hb:drop=0.25",
                "table1.summary.websites_crawled:min=100",
                "table1.summary.avg_bid_requests:max=9.5",
            ]
        )
        assert rules[0] == AlertRule("table1", "summary.websites_with_hb", "drop", 0.25)
        assert rules[1].kind == "min" and rules[1].value == 100.0
        assert rules[2].metric == "table1" and rules[2].value == 9.5

    def test_spec_round_trips(self):
        spec = "table1.summary.websites_with_hb:drop=0.25"
        assert parse_rule(spec).spec == spec

    @pytest.mark.parametrize(
        "spec",
        [
            "table1.summary.websites_with_hb",  # no kind
            "table1.summary.websites_with_hb:between=3",  # unknown kind
            "table1:drop=0.25",  # no field path
            "table1.summary.websites_with_hb:drop=lots",  # not a number
            "table1.summary.websites_with_hb:drop=1.5",  # drop outside (0, 1]
            "table1.summary.websites_with_hb:drop=0",  # drop outside (0, 1]
            "table1.summary.websites_with_hb:min",  # no value
            "table1.summary.websites_with_hb:max=nan",  # can never fire
            "table1.summary.websites_with_hb:min=inf",
            "table1.summary.websites_with_hb:max=-Infinity",
        ],
    )
    def test_malformed_specs_are_refused(self, spec):
        with pytest.raises(ConfigurationError):
            parse_rule(spec)


class TestFlattening:
    def test_numeric_leaves_get_dotted_paths(self):
        flat = flatten_metric_data(
            {
                "summary": {"websites_with_hb": 60, "fraction": 0.15},
                "top": [3, 1],
                "label": "ignored",
                "nested": {"flag": True},
            }
        )
        assert flat == {
            "summary.websites_with_hb": 60.0,
            "summary.fraction": 0.15,
            "top.0": 3.0,
            "top.1": 1.0,
            "nested.flag": 1.0,
        }

    def test_long_sequences_are_skipped(self):
        flat = flatten_metric_data({"ecdf": list(range(1000)), "n": 7})
        assert flat == {"n": 7.0}


class TestEvaluateRules:
    def _snap(self, value):
        return {"table1": {"summary.websites_with_hb": value}}

    def test_drop_fires_past_threshold(self):
        rule = parse_rule("table1.summary.websites_with_hb:drop=0.25")
        alerts = evaluate_rules([rule], self._snap(100), self._snap(60), day=3)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["day"] == 3 and alert["baseline_day"] == 2
        assert alert["relative_drop"] == pytest.approx(0.4)
        assert "violates drop=0.25" in alert["message"]

    def test_drop_within_threshold_is_quiet(self):
        rule = parse_rule("table1.summary.websites_with_hb:drop=0.25")
        assert evaluate_rules([rule], self._snap(100), self._snap(80), day=3) == []

    def test_drop_skips_zero_baseline(self):
        rule = parse_rule("table1.summary.websites_with_hb:drop=0.25")
        assert evaluate_rules([rule], self._snap(0), self._snap(0), day=3) == []

    def test_min_and_max_are_absolute(self):
        floor = parse_rule("table1.summary.websites_with_hb:min=70")
        ceiling = parse_rule("table1.summary.websites_with_hb:max=50")
        alerts = evaluate_rules([floor, ceiling], self._snap(55), self._snap(60), day=2)
        assert [a["kind"] for a in alerts] == ["min", "max"]

    def test_missing_field_is_skipped(self):
        rule = parse_rule("table1.summary.nonexistent:min=1")
        assert evaluate_rules([rule], self._snap(10), self._snap(10), day=2) == []


class TestDaemonGrowth:
    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_ticks_match_one_shot_bytes(self, tmp_path, store_format):
        config = _config(store_format)
        daemon = RecrawlDaemon(tmp_path / "work", config, target_days=2)
        reports = daemon.run()
        assert [r.status for r in reports] == ["bootstrapped", "advanced", "advanced"]
        assert [r.day for r in reports] == [0, 1, 2]
        assert daemon.sink_path.read_bytes() == _oneshot_bytes(tmp_path, config, 2)

    def test_tick_after_target_is_a_complete_noop(self, tmp_path):
        daemon = RecrawlDaemon(tmp_path / "work", _config(), target_days=1)
        daemon.run()
        before = daemon.sink_path.read_bytes()
        report = daemon.tick()
        assert report.status == "complete" and report.day is None
        assert report.detections > 0
        assert daemon.sink_path.read_bytes() == before

    def test_workdir_layout(self, tmp_path):
        daemon = RecrawlDaemon(tmp_path / "work", _config(), target_days=2)
        daemon.run()
        work = tmp_path / "work"
        assert (work / "daemon.json").exists()
        assert (work / "crawl.ckpt").exists()
        for day in range(3):
            assert (work / "metrics" / f"day-{day:05d}.json").exists()
            assert (work / "partitions" / f"day-{day:05d}.hbc").exists()
        snapshot = json.loads((work / "metrics" / "day-00002.json").read_text())
        assert snapshot["day"] == 2
        assert "summary.websites_with_hb" in snapshot["metrics"]["table1"]

    def test_partitions_concatenate_to_the_sink(self, tmp_path):
        config = _config("jsonl")
        daemon = RecrawlDaemon(tmp_path / "work", config, target_days=2)
        daemon.run()
        parts = b"".join(
            (tmp_path / "work" / "partitions" / f"day-{day:05d}.jsonl").read_bytes()
            for day in range(3)
        )
        assert parts == daemon.sink_path.read_bytes()

    def test_kill_mid_day_then_fresh_daemon_recovers(self, tmp_path, monkeypatch):
        import repro.crawler.engine as engine_mod

        config = _config(crawl_backend="process", workers=2)
        work = tmp_path / "work"
        RecrawlDaemon(work, config, target_days=2).run(max_ticks=2)  # days 0 and 1 done

        real = engine_mod.backend_from_name
        with monkeypatch.context() as patch:
            patch.setattr(
                engine_mod,
                "backend_from_name",
                lambda name, workers=None: FaultyBackend(real(name, workers=workers), 1),
            )
            with pytest.raises(SimulatedCrash):
                RecrawlDaemon(work, config, target_days=2).tick()

        # A brand-new daemon (a restarted process) completes day 2.
        reports = RecrawlDaemon(work, config, target_days=2).run()
        assert reports[0].status == "advanced" and reports[0].day == 2
        sink = (work / "detections.hbc").read_bytes()
        assert sink == _oneshot_bytes(tmp_path, config, 2)

    def test_refuses_sink_without_checkpoint(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        (work / "detections.hbc").write_bytes(b"orphaned")
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            RecrawlDaemon(work, _config())


class TestDaemonAlerts:
    def test_impossible_floor_fires_once_per_comparable_day(self, tmp_path):
        daemon = RecrawlDaemon(
            tmp_path / "work",
            _config(),
            rules=parse_rules([IMPOSSIBLE_FLOOR]),
            target_days=3,
        )
        reports = daemon.run()
        fired = [a for r in reports for a in r.alerts]
        assert [a["day"] for a in fired] == [2, 3]  # days 0/1 are not comparable
        assert all(a["kind"] == "min" for a in fired)
        logged = daemon.read_alerts()
        assert [a["day"] for a in logged] == [2, 3]
        assert all("ts" in a for a in logged)

    def test_restart_never_duplicates_alerts(self, tmp_path, monkeypatch):
        import repro.crawler.engine as engine_mod

        config = _config(crawl_backend="process", workers=2)
        work = tmp_path / "work"
        rules = parse_rules([IMPOSSIBLE_FLOOR])
        RecrawlDaemon(work, config, rules=rules, target_days=3).run(max_ticks=3)

        # Kill mid-day-3, restart: day 2's alert must not be re-emitted.
        real = engine_mod.backend_from_name
        with monkeypatch.context() as patch:
            patch.setattr(
                engine_mod,
                "backend_from_name",
                lambda name, workers=None: FaultyBackend(real(name, workers=workers), 1),
            )
            with pytest.raises(SimulatedCrash):
                RecrawlDaemon(work, config, rules=rules, target_days=3).tick()
        daemon = RecrawlDaemon(work, config, rules=rules, target_days=3)
        daemon.run()
        assert [a["day"] for a in daemon.read_alerts()] == [2, 3]

        # Re-running the complete campaign emits nothing new either.
        daemon.run()
        assert [a["day"] for a in daemon.read_alerts()] == [2, 3]

    def test_day_below_first_comparable_never_alerts(self, tmp_path):
        daemon = RecrawlDaemon(
            tmp_path / "work",
            _config(),
            rules=parse_rules([IMPOSSIBLE_FLOOR]),
            target_days=FIRST_COMPARABLE_DAY - 1,
        )
        reports = daemon.run()
        assert all(not r.alerts for r in reports)
        assert daemon.read_alerts() == []


class TestDaemonValidation:
    def test_unknown_metric_is_refused(self, tmp_path):
        with pytest.raises(UnknownMetricError):
            RecrawlDaemon(tmp_path / "work", _config(), metrics=("tableZ",))

    def test_rule_must_target_a_watched_metric(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not watched"):
            RecrawlDaemon(
                tmp_path / "work",
                _config(),
                metrics=("table1",),
                rules=parse_rules(["table2.summary.x:min=1"]),
            )

    def test_negative_target_days_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="negative"):
            RecrawlDaemon(tmp_path / "work", _config(), target_days=-1)

    def test_retention_below_one_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="retention"):
            RecrawlDaemon(tmp_path / "work", _config(), retention_days=0)

    def test_empty_metrics_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one metric"):
            RecrawlDaemon(tmp_path / "work", _config(), metrics=())


class TestRetention:
    def test_prunes_partitions_and_snapshots_but_never_the_sink(self, tmp_path):
        config = _config()
        daemon = RecrawlDaemon(
            tmp_path / "work", config, target_days=3, retention_days=1
        )
        daemon.run()
        work = tmp_path / "work"
        kept = sorted(p.name for p in (work / "partitions").iterdir())
        assert kept == ["day-00002.hbc", "day-00003.hbc"]
        snaps = sorted(p.name for p in (work / "metrics").iterdir())
        assert snaps == ["day-00002.json", "day-00003.json"]
        # The canonical sink still holds every day.
        assert daemon.sink_path.read_bytes() == _oneshot_bytes(tmp_path, config, 3)

    def test_last_two_days_always_survive(self, tmp_path):
        # retention_days=1 would keep only the last day, but the next tick's
        # diff needs the previous snapshot, so two days always remain.
        daemon = RecrawlDaemon(
            tmp_path / "work",
            _config(),
            rules=parse_rules([IMPOSSIBLE_FLOOR]),
            target_days=4,
            retention_days=1,
        )
        reports = daemon.run()
        assert [a["day"] for r in reports for a in r.alerts] == [2, 3, 4]
        snaps = sorted(p.name for p in (tmp_path / "work" / "metrics").iterdir())
        assert snaps == ["day-00003.json", "day-00004.json"]


def _spy(monkeypatch, calls, owner, name):
    """Count calls of ``owner.name`` in ``calls`` without changing them."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _workdir_bytes(work):
    """Every file of a daemon workdir; alerts without their wall-clock ``ts``."""
    files = {}
    for path in sorted(work.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "alerts.jsonl":
            records = [json.loads(line) for line in data.splitlines()]
            data = [{k: v for k, v in r.items() if k != "ts"} for r in records]
        files[str(path.relative_to(work))] = data
    return files


def _fresh_daemon_ticks(work, config, ticks, rules):
    for _ in range(ticks):
        with RecrawlDaemon(work, config, rules=rules) as daemon:
            daemon.tick()


class TestResidentDaemon:
    """A daemon keeps its crawler, pool and checkpointer between ticks."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_resident_ticks_equal_fresh_daemon_ticks(self, tmp_path, store_format, backend):
        config = _config(store_format, crawl_backend=backend, workers=2)
        rules = parse_rules([IMPOSSIBLE_FLOOR])
        with RecrawlDaemon(tmp_path / "resident", config, rules=rules) as daemon:
            reports = [daemon.tick() for _ in range(4)]
        assert [r.status for r in reports] == ["bootstrapped"] + ["advanced"] * 3
        _fresh_daemon_ticks(tmp_path / "fresh", config, 4, rules)
        resident = _workdir_bytes(tmp_path / "resident")
        assert "partitions/day-00003." + ("hbc" if store_format == "columnar" else "jsonl") in resident
        assert [a["day"] for a in resident["alerts.jsonl"]] == [2, 3]
        assert resident == _workdir_bytes(tmp_path / "fresh")
        # The warm ticks wrote the grown horizon into the checkpoint.
        checkpoint = json.loads(resident["crawl.ckpt"])
        assert checkpoint["fingerprint"]["recrawl_days"] == 3
        sink = resident["detections." + ("hbc" if store_format == "columnar" else "jsonl")]
        assert sink == _oneshot_bytes(tmp_path, config, 3)

    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_warm_ticks_only_append_to_the_working_store(self, tmp_path, store_format):
        """Each warm tick continues the working store, so a service tailing
        it absorbs just the new day and never re-reads the campaign."""
        from repro.service.store import DetectionStore

        with RecrawlDaemon(tmp_path / "work", _config(store_format)) as daemon:
            daemon.tick()
            store = DetectionStore(daemon.working_path)
            store.refresh()
            for _ in range(3):
                before = daemon.working_path.read_bytes()
                report = daemon.tick()
                assert report.status == "advanced"
                assert daemon.working_path.read_bytes().startswith(before)
                grown = store.count
                assert store.refresh() == report.detections - grown > 0
            assert store.restarts == 0 and store.drained()

    def test_tick_cost_does_not_grow_with_campaign_age(self, tmp_path, monkeypatch):
        calls = collections.Counter()
        _spy(monkeypatch, calls, ExperimentRunner, "build_population")
        _spy(monkeypatch, calls, ProcessPoolBackend, "_make_executor")
        warm_only_absent = ("resume", "recover_to", "load", "read_new")
        _spy(monkeypatch, calls, CrawlCheckpointer, "resume")
        for name in ("recover_to", "load", "read_new"):
            _spy(monkeypatch, calls, ColumnarStorage, name)
        config = _config(crawl_backend="process", workers=2)
        per_tick = []
        reports = []
        with RecrawlDaemon(tmp_path / "work", config) as daemon:
            for _ in range(6):
                before = collections.Counter(calls)
                reports.append(daemon.tick())
                per_tick.append(calls - before)
        assert [r.day for r in reports] == list(range(6))
        assert calls["build_population"] == 1
        assert calls["_make_executor"] == 1
        for tick in per_tick[1:]:
            assert not any(tick[name] for name in warm_only_absent), tick
        # Every re-crawl day visits the same HB sites, on day 5 as on day 1.
        grown = [b.detections - a.detections for a, b in zip(reports, reports[1:])]
        assert len(set(grown)) == 1 and grown[0] > 0

    def test_a_second_writer_sends_the_first_daemon_down_the_cold_path(
        self, tmp_path, monkeypatch
    ):
        config = _config(crawl_backend="process", workers=2)
        rules = parse_rules([IMPOSSIBLE_FLOOR])
        work = tmp_path / "shared"
        calls = collections.Counter()
        _spy(monkeypatch, calls, CrawlCheckpointer, "resume")
        with RecrawlDaemon(work, config, rules=rules) as first:
            first.tick()
            first.tick()  # days 0 and 1
            assert calls["resume"] == 0
            with RecrawlDaemon(work, config, rules=rules) as second:
                assert second.tick().day == 2
            assert calls["resume"] == 1
            report = first.tick()
            assert report.day == 3 and report.status == "advanced"
            assert calls["resume"] == 2  # the stat check refused the warm path
        _fresh_daemon_ticks(tmp_path / "fresh", config, 4, rules)
        assert _workdir_bytes(work) == _workdir_bytes(tmp_path / "fresh")

    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_truncated_sink_fails_the_tick_loudly(self, tmp_path, store_format):
        config = _config(store_format, crawl_backend="process", workers=2)
        with RecrawlDaemon(tmp_path / "work", config) as daemon:
            daemon.tick()
            daemon.tick()
            # The working store is what resume recovers and warm ticks extend.
            size = daemon.working_path.stat().st_size
            with daemon.working_path.open("r+b") as handle:
                handle.truncate(size // 2)
            with pytest.raises(ReproError):
                daemon.tick()
            assert daemon._resident is None

    def test_a_degraded_warm_tick_drops_the_pool_and_resumes_cold(self, tmp_path):
        from repro.testing import parse_fault_plan

        config = _config(crawl_backend="process", workers=2, shard_retries=0)
        with RecrawlDaemon(tmp_path / "work", config) as daemon:
            assert daemon.tick().status == "bootstrapped"
            daemon._resident.crawler.fault_plan = parse_fault_plan("raise@shard=0x9")
            report = daemon.tick()
            assert report.status == "failed" and "quarantined" in report.error
            assert daemon._resident is None
            # The fault plan went with the pool: a cold resume completes day 1.
            assert [daemon.tick().day for _ in range(2)] == [1, 2]
        assert daemon.sink_path.read_bytes() == _oneshot_bytes(tmp_path, config, 2)

    def _record_blocks(self, monkeypatch):
        created = []
        real_init = SharedPayload.__init__

        def recording(payload, obj):
            real_init(payload, obj)
            created.append(payload.name)

        monkeypatch.setattr(SharedPayload, "__init__", recording)
        return created

    def test_close_releases_every_shared_block(self, tmp_path, monkeypatch):
        created = self._record_blocks(monkeypatch)
        config = _config(crawl_backend="process", workers=2)
        with RecrawlDaemon(tmp_path / "work", config) as daemon:
            daemon.tick()
            daemon.tick()
            assert created and all(block_exists(name) for name in created)
        assert not any(block_exists(name) for name in created)
        daemon.close()  # idempotent

    def test_a_crashed_tick_releases_every_shared_block(self, tmp_path, monkeypatch):
        import repro.crawler.engine as engine_mod

        created = self._record_blocks(monkeypatch)
        config = _config(crawl_backend="process", workers=2)
        real = engine_mod.backend_from_name
        # Discovery is 8 shard results; the crash lands mid-day-1.
        monkeypatch.setattr(
            engine_mod,
            "backend_from_name",
            lambda name, workers=None: FaultyBackend(real(name, workers=workers), 12),
        )
        daemon = RecrawlDaemon(tmp_path / "work", config)
        assert daemon.tick().status == "bootstrapped"
        with pytest.raises(SimulatedCrash):
            daemon.tick()
        assert daemon._resident is None
        assert created and not any(block_exists(name) for name in created)
