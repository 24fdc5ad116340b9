"""Resumable checkpointed crawls: crash injection, recovery, byte identity.

The acceptance criterion under test: interrupting a checkpointed crawl at any
shard boundary and resuming it produces byte-identical sink files, identical
detections and identical registered metrics versus an uninterrupted run, for
every execution backend.  A checkpointed crawl streams into an ``.hbc``
working store; the JSONL exported from it must equal the bytes of an
uninterrupted direct JSONL sink.
"""

import dataclasses
import json

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import available_metrics, compute_metric
from repro.crawler.checkpoint import (
    CHECKPOINT_VERSION,
    CrawlCheckpoint,
    CrawlCheckpointer,
    PhaseProgress,
    plan_fingerprint,
    population_fingerprint,
)
from repro.crawler.colstore import ColumnarStorage, campaign_store
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.engine import CrawlPlan
from repro.crawler.scheduler import LongitudinalScheduler
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.detector.records import SiteDetection
from repro.errors import CheckpointError, ConfigurationError, ReproError, StorageError
from repro.testing import (
    FaultyBackend,
    SimulatedCrash,
    interrupted_then_resumed,
    uninterrupted_baseline,
)


def serialise(detections):
    return json.dumps([detection_to_dict(d) for d in detections])


# ---------------------------------------------------------------------------
# The on-disk format


class TestCheckpointFormat:
    def checkpoint(self):
        phase = PhaseProgress(
            crawl_day=0, plan_hash="abc", n_shards=3, completed_shards=(0, 1),
            n_detections=12, pages_visited=12, sessions_started=12,
            timed_out_domains=("slow.example",),
        )
        return CrawlCheckpoint(
            fingerprint={"seed": 5, "population": "deadbeef"},
            sink_offset=4096,
            phases=(phase,),
        )

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cp.json"
        original = self.checkpoint()
        original.save(path)
        assert CrawlCheckpoint.load(path) == original

    def test_save_is_atomic_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "cp.json"
        self.checkpoint().save(path)
        self.checkpoint().save(path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]
        json.loads(path.read_text())  # plain, inspectable JSON

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CrawlCheckpoint.load(tmp_path / "nope.json")

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            CrawlCheckpoint.load(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        data = self.checkpoint().to_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version"):
            CrawlCheckpoint.load(path)

    def test_a_version_1_checkpoint_is_refused_by_version(self, tmp_path):
        """Version 1 recorded JSONL sink offsets: resuming one must fail on
        the version, before any sink is looked at."""
        path = tmp_path / "cp.json"
        data = self.checkpoint().to_dict()
        data["version"] = 1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert CHECKPOINT_VERSION == 2
        with pytest.raises(CheckpointError, match="version 1 is not supported"):
            CrawlCheckpointer.resume(
                path, data["fingerprint"], ColumnarStorage(tmp_path / "missing.hbc")
            )

    def test_non_prefix_completed_shards_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        data = self.checkpoint().to_dict()
        data["phases"][0]["completed_shards"] = [0, 2]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="non-prefix"):
            CrawlCheckpoint.load(path)

    def test_unfinished_middle_phase_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        data = self.checkpoint().to_dict()
        done = dict(data["phases"][0], crawl_day=1,
                    completed_shards=[0, 1, 2], n_detections=18)
        data["phases"] = [data["phases"][0], done]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="unfinished"):
            CrawlCheckpoint.load(path)

    def test_plan_fingerprint_tracks_workers_and_seed(self, small_population):
        sites = list(small_population)[:12]
        base = plan_fingerprint(CrawlPlan.build(sites, workers=3, seed=5))
        assert base == plan_fingerprint(CrawlPlan.build(sites, workers=3, seed=5))
        assert base != plan_fingerprint(CrawlPlan.build(sites, workers=4, seed=5))
        assert base != plan_fingerprint(CrawlPlan.build(sites, workers=3, seed=6))
        assert base != plan_fingerprint(CrawlPlan.build(sites[:11], workers=3, seed=5))

    def test_population_fingerprint_is_order_sensitive(self):
        assert population_fingerprint(["a", "b"]) != population_fingerprint(["b", "a"])
        assert population_fingerprint(["a", "b"]) == population_fingerprint(iter(["a", "b"]))


# ---------------------------------------------------------------------------
# Crash injection across every backend


class TestCrashAndResume:
    """FaultyBackend dies after N shards; resume must reproduce one-shot bytes."""

    @pytest.mark.parametrize("backend_name,workers", [
        ("serial", 4), ("process", 2), ("process", 4),
    ])
    def test_resumed_equals_one_shot_byte_for_byte(
        self, environment, detector, crash_sites, tmp_path, backend_name, workers
    ):
        config = CrawlConfig(seed=5, workers=workers, backend=backend_name)
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites, tmp_path=tmp_path
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=2,
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)
        assert result.pages_visited == expected.pages_visited
        assert result.sessions_started == expected.sessions_started
        assert result.timed_out_domains == expected.timed_out_domains

    def test_crash_before_any_shard_restarts_from_scratch(
        self, environment, detector, crash_sites, tmp_path
    ):
        config = CrawlConfig(seed=5, workers=3, backend="process")
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites, tmp_path=tmp_path
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=0,
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)

    def test_resume_after_complete_crawl_is_a_noop_replay(
        self, environment, detector, crash_sites, tmp_path
    ):
        """fail_after == n_shards: the crash lands after the final boundary."""
        config = CrawlConfig(seed=5, workers=3, backend="process")
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites, tmp_path=tmp_path
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=3,
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)

    def test_resume_may_change_backend_but_not_mid_phase_workers(
        self, environment, detector, crash_sites, tmp_path
    ):
        """Byte identity holds across backends, so the interrupted phase may
        resume on a different backend — but its shard plan (worker count)
        must re-plan identically."""
        config = CrawlConfig(seed=5, workers=4, backend="process")
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites, tmp_path=tmp_path
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=2,
            resume_config=CrawlConfig(seed=5, workers=4, backend="serial"),
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)

        with pytest.raises(CheckpointError, match="different shard plan"):
            interrupted_then_resumed(
                environment, detector, config, crash_sites,
                tmp_path=tmp_path / "different-workers", fail_after=2,
                resume_config=CrawlConfig(seed=5, workers=2, backend="process"),
            )

    def test_noop_replay_does_not_spin_up_pool_workers(
        self, environment, detector, crash_sites, tmp_path
    ):
        """Resuming a finished campaign recovers everything from the sink;
        the backend must not pay pool start-up for zero remaining shards."""
        config = CrawlConfig(seed=5, workers=2, backend="process")
        fingerprint = {"seed": 5}
        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", fingerprint)
        with Crawler(environment, detector, config) as engine:
            with storage.open_sink() as sink:
                expected = engine.crawl(crash_sites, sink=sink, checkpoint=recorder)
        resumed = CrawlCheckpointer.resume(tmp_path / "cp.json", fingerprint, storage)
        with Crawler(environment, detector, config) as engine:
            with storage.open_sink(append=True) as sink:
                result = engine.crawl(crash_sites, sink=sink, checkpoint=resumed)
            assert engine.backend._executor is None  # no pool was built
        assert serialise(result.detections) == serialise(expected.detections)
        assert result.pages_visited == expected.pages_visited

    @pytest.mark.parametrize("flush_every", [1, 2, 64])
    def test_sink_flush_interval_does_not_change_resumed_bytes(
        self, environment, detector, crash_sites, tmp_path, flush_every
    ):
        config = CrawlConfig(seed=5, workers=4, backend="process")
        _, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, flush_every=64,
        )
        _, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=2, flush_every=flush_every,
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()

    def test_throttled_checkpoint_cadence_still_resumes_identically(
        self, environment, detector, crash_sites, tmp_path
    ):
        """checkpoint_every_shards > 1: the checkpoint may lag the sink; the
        lagging shards are re-crawled, never double-counted."""
        config = CrawlConfig(
            seed=5, workers=4, backend="serial", checkpoint_every_shards=3
        )
        expected, baseline = uninterrupted_baseline(
            environment, detector, config, crash_sites, tmp_path=tmp_path
        )
        result, storage = interrupted_then_resumed(
            environment, detector, config, crash_sites,
            tmp_path=tmp_path, fail_after=2,
        )
        assert storage.path.read_bytes() == baseline.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)


# ---------------------------------------------------------------------------
# The boundary-sweep property


class TestBoundarySweep:
    """Interrupt at every shard boundary k in [0, n_shards] and resume."""

    @pytest.fixture(scope="class")
    def sweep_config(self):
        return CrawlConfig(seed=5, workers=4, backend="serial")

    @pytest.fixture(scope="class")
    def baseline(self, environment, detector, sweep_config, small_population, tmp_path_factory):
        sites = list(small_population)[:32]
        result, storage = uninterrupted_baseline(
            environment, detector, sweep_config, sites,
            tmp_path=tmp_path_factory.mktemp("baseline"),
        )
        return sites, result, storage

    def metric_texts(self, path):
        """Every registered offline metric's outcome: its rendered text, or —
        for metrics this small dataset cannot support — the identical error."""
        context = AnalysisContext.offline(CrawlDataset.from_jsonl(path))
        names = sorted(available_metrics(frozenset({"dataset"})))
        assert names, "the registry must expose offline metrics"
        outcomes = {}
        for name in names:
            try:
                outcomes[name] = compute_metric(name, context).text
            except ReproError as exc:
                outcomes[name] = f"{type(exc).__name__}: {exc}"
        return outcomes

    @pytest.mark.parametrize("boundary", [0, 1, 2, 3, 4])
    def test_interrupt_at_every_boundary(
        self, environment, detector, sweep_config, baseline, tmp_path, boundary
    ):
        sites, expected, base_storage = baseline
        n_shards = len(CrawlPlan.build(sites, workers=sweep_config.workers,
                                       seed=sweep_config.seed).shards)
        assert n_shards == 4  # the parametrised sweep covers k = 0..n_shards
        result, storage = interrupted_then_resumed(
            environment, detector, sweep_config, sites,
            tmp_path=tmp_path, fail_after=boundary,
        )
        assert storage.path.read_bytes() == base_storage.path.read_bytes()
        assert serialise(result.detections) == serialise(expected.detections)
        assert result.pages_visited == expected.pages_visited
        assert result.sessions_started == expected.sessions_started
        assert self.metric_texts(storage.path) == self.metric_texts(base_storage.path)


# ---------------------------------------------------------------------------
# Guard rails


class TestCheckpointGuards:
    def fingerprint(self, sites, seed=5):
        return {"seed": seed, "sites": [p.domain for p in sites]}

    def crash(self, environment, detector, config, sites, tmp_path, fail_after=1):
        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        recorder = CrawlCheckpointer.fresh(
            tmp_path / "cp.json", self.fingerprint(sites, seed=config.seed)
        )
        from repro.crawler.engine import backend_from_name

        engine = Crawler(
            environment, detector, config,
            backend=FaultyBackend(
                backend_from_name(config.backend, workers=config.workers), fail_after
            ),
        )
        with pytest.raises(SimulatedCrash):
            with engine, storage.open_sink(flush_every=2) as sink:
                engine.crawl(sites, sink=sink, checkpoint=recorder)
        return storage

    def test_checkpoint_without_sink_is_rejected(
        self, environment, detector, small_population, tmp_path
    ):
        sites = list(small_population)[:6]
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", self.fingerprint(sites))
        with Crawler(environment, detector, CrawlConfig(seed=5)) as engine:
            with pytest.raises(ConfigurationError, match="needs a sink"):
                engine.crawl(sites, checkpoint=recorder)

    def test_sink_without_offset_tracking_is_rejected(
        self, environment, detector, small_population, tmp_path
    ):
        class BareSink:
            def write(self, detection):
                pass

        sites = list(small_population)[:6]
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", self.fingerprint(sites))
        with Crawler(environment, detector, CrawlConfig(seed=5)) as engine:
            with pytest.raises(ConfigurationError, match="offset-tracking"):
                engine.crawl(sites, sink=BareSink(), checkpoint=recorder)

    def test_a_jsonl_sink_is_rejected(
        self, environment, detector, small_population, tmp_path
    ):
        """JSONL is only exported whole: a checkpoint records .hbc offsets."""
        sites = list(small_population)[:6]
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", self.fingerprint(sites))
        with Crawler(environment, detector, CrawlConfig(seed=5)) as engine:
            with CrawlStorage(tmp_path / "crawl.jsonl").open_sink() as sink:
                with pytest.raises(ConfigurationError, match=r"\.hbc sink"):
                    engine.crawl(sites, sink=sink, checkpoint=recorder)

    def test_fresh_campaign_with_a_misaligned_sink_is_rejected(
        self, environment, detector, small_population, tmp_path
    ):
        """A fresh checkpoint over an append sink on a non-empty file would
        record offsets that do not describe the pre-existing content."""
        sites = list(small_population)[:6]
        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        storage.save([SiteDetection(domain="pre.example", rank=1, hb_detected=False)])
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", self.fingerprint(sites))
        with Crawler(environment, detector, CrawlConfig(seed=5)) as engine:
            with storage.open_sink(append=True) as sink:
                with pytest.raises(CheckpointError, match="byte 0"):
                    engine.crawl(sites, sink=sink, checkpoint=recorder)

    def test_fingerprint_mismatch_refuses_to_resume(
        self, environment, detector, small_population, tmp_path
    ):
        sites = list(small_population)[:8]
        config = CrawlConfig(seed=5, workers=2, backend="serial")
        storage = self.crash(environment, detector, config, sites, tmp_path)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            CrawlCheckpointer.resume(
                tmp_path / "cp.json", self.fingerprint(sites, seed=99), storage
            )

    def test_resume_with_a_deleted_sink_fails_loudly(
        self, environment, detector, small_population, tmp_path
    ):
        sites = list(small_population)[:8]
        config = CrawlConfig(seed=5, workers=2, backend="serial")
        storage = self.crash(environment, detector, config, sites, tmp_path)
        storage.path.unlink()
        with pytest.raises(ReproError, match="does not exist"):
            CrawlCheckpointer.resume(
                tmp_path / "cp.json", self.fingerprint(sites), storage
            )

    def test_resume_with_a_replaced_sink_fails_loudly(
        self, environment, detector, small_population, tmp_path
    ):
        """A sink swapped for a different (valid-looking) file must not be
        silently merged into the resumed crawl."""
        sites = list(small_population)[:8]
        config = CrawlConfig(seed=5, workers=2, backend="serial")
        storage = self.crash(environment, detector, config, sites, tmp_path)
        size = storage.path.stat().st_size
        storage.path.write_bytes(b"x" * size)  # same size, alien content
        with pytest.raises(StorageError, match="not a columnar detection store"):
            CrawlCheckpointer.resume(
                tmp_path / "cp.json", self.fingerprint(sites), storage
            )

    def test_resume_detects_sink_from_a_different_campaign(
        self, environment, detector, small_population, tmp_path
    ):
        """Matching record count but wrong sites: the deterministic re-plan
        must reject the recovered records instead of merging them."""
        sites = list(small_population)[:8]
        other = list(small_population)[8:16]
        config = CrawlConfig(seed=5, workers=2, backend="serial")
        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", self.fingerprint(sites))
        with Crawler(environment, detector, config) as engine:
            with storage.open_sink(flush_every=2) as sink:
                # The checkpoint+sink pair records a different site list.
                engine.crawl(other, sink=sink, checkpoint=recorder)
        resumed = CrawlCheckpointer.resume(
            tmp_path / "cp.json", self.fingerprint(sites), storage
        )
        with Crawler(environment, detector, config) as engine:
            with storage.open_sink(append=True, flush_every=2) as sink:
                with pytest.raises(CheckpointError, match="do not match"):
                    engine.crawl(sites, sink=sink, checkpoint=resumed)

    def test_record_progress_requires_begin_phase(self, tmp_path):
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", {"seed": 1})
        with pytest.raises(CheckpointError, match="begin_phase"):
            recorder.record_progress(
                0, completed_shards=1, n_detections=1, pages_visited=1,
                sessions_started=1, timed_out_domains=(), sink_offset=10,
            )

    def test_config_validates_checkpoint_every_shards(self):
        with pytest.raises(ConfigurationError):
            CrawlConfig(checkpoint_every_shards=0)


# ---------------------------------------------------------------------------
# Campaign-level resume (scheduler + runner)


class TestCampaignResume:
    def test_scheduler_campaign_killed_mid_recrawl_resumes_identically(
        self, environment, detector, small_population, tmp_path
    ):
        from repro.crawler.engine import backend_from_name

        domains = small_population.domains[:30]
        config = CrawlConfig(seed=9, workers=2, backend="process")
        fingerprint = {"seed": 9, "domains": list(domains)}

        clean = CrawlStorage(tmp_path / "clean.jsonl")
        with Crawler(environment, detector, config) as crawler:
            with clean.open_sink(flush_every=4) as sink:
                expected = LongitudinalScheduler(crawler, recrawl_days=1).run(
                    small_population, domains=domains, sink=sink
                )

        # Kill during the day-1 re-crawl: discovery contributes 2 shards, so
        # dying after 3 results lands one shard into the second phase.
        storage = campaign_store(tmp_path / "resumable.jsonl", "jsonl")
        recorder = CrawlCheckpointer.fresh(tmp_path / "cp.json", fingerprint)
        faulty = FaultyBackend(backend_from_name("process", workers=2), 3)
        crawler = Crawler(environment, detector, config, backend=faulty)
        with pytest.raises(SimulatedCrash):
            with crawler, storage.open_sink(flush_every=4) as sink:
                LongitudinalScheduler(crawler, recrawl_days=1).run(
                    small_population, domains=domains, sink=sink, checkpoint=recorder
                )

        resumed_recorder = CrawlCheckpointer.resume(
            tmp_path / "cp.json", fingerprint, storage
        )
        with Crawler(environment, detector, config) as crawler:
            with storage.open_sink(append=True, flush_every=4) as sink:
                resumed = LongitudinalScheduler(crawler, recrawl_days=1).run(
                    small_population, domains=domains, sink=sink,
                    checkpoint=resumed_recorder,
                )

        assert storage.export_to.read_bytes() == clean.path.read_bytes()
        assert serialise(resumed.all_detections) == serialise(expected.all_detections)
        assert resumed.discovery.hb_domains == expected.discovery.hb_domains
        assert resumed.pages_visited == expected.pages_visited

    def test_runner_checkpoint_resume_round_trip(self, tmp_path, monkeypatch):
        import repro.crawler.engine as engine_mod
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import ExperimentRunner

        config = ExperimentConfig(
            total_sites=400, seed=7, recrawl_days=1, historical_sites=120,
            workers=2, crawl_backend="process",
        )
        clean = CrawlStorage(tmp_path / "clean.jsonl")
        expected = ExperimentRunner(config).run(storage=clean)

        ckpt_config = dataclasses.replace(config, checkpoint_path=str(tmp_path / "cp.json"))
        storage = CrawlStorage(tmp_path / "resumable.jsonl")
        real = engine_mod.backend_from_name
        with monkeypatch.context() as patch:
            patch.setattr(
                engine_mod, "backend_from_name",
                lambda name, workers=None: FaultyBackend(
                    real(name, workers=workers), 3
                ),
            )
            with pytest.raises(SimulatedCrash):
                ExperimentRunner(ckpt_config).run(storage=storage)

        resumed = ExperimentRunner(
            dataclasses.replace(ckpt_config, resume=True)
        ).run(storage=storage)
        assert storage.path.read_bytes() == clean.path.read_bytes()
        assert serialise(resumed.longitudinal.all_detections) == serialise(
            expected.longitudinal.all_detections
        )
        assert resumed.dataset.summary() == expected.dataset.summary()

        # Resuming the now-finished campaign is a no-op byte-identical replay.
        replay = ExperimentRunner(
            dataclasses.replace(ckpt_config, resume=True)
        ).run(storage=storage)
        assert storage.path.read_bytes() == clean.path.read_bytes()
        assert replay.dataset.summary() == expected.dataset.summary()

    def test_runner_refuses_checkpoint_without_storage(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import ExperimentRunner

        config = ExperimentConfig(
            total_sites=400, seed=7, recrawl_days=0, historical_sites=120,
            checkpoint_path=str(tmp_path / "cp.json"),
        )
        with pytest.raises(ConfigurationError, match="persistent storage"):
            ExperimentRunner(config).run()

    def test_experiment_config_validates_resume(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ConfigurationError, match="resume requires"):
            ExperimentConfig(resume=True)

    def test_runner_fingerprint_mismatch_refuses(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import ExperimentRunner

        config = ExperimentConfig(
            total_sites=400, seed=7, recrawl_days=0, historical_sites=120,
            checkpoint_path=str(tmp_path / "cp.json"),
        )
        storage = CrawlStorage(tmp_path / "crawl.jsonl")
        ExperimentRunner(config).run(storage=storage)
        bigger = dataclasses.replace(config, total_sites=500, resume=True)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            ExperimentRunner(bigger).run(storage=storage)
